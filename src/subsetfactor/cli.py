"""Command-line entry point.

Exit codes: 0 = property holds / subset is a factor / verification passed;
1 = property fails / non-factor / verification failed; 2 = usage or input
error; 3 = classification budget exceeded (inconclusive).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Any

from . import cfs as cfs_mod
from . import factor as factor_mod
from . import geometry, notation
from .groups import GroupSpecError, SMALL_GROUP_CATALOG, Group
from .notation import NotationError
from .subsets import Subset, canonical_form

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _default_budget() -> int:
    raw = os.environ.get("SUBSETFACTOR_BUDGET")
    if raw:
        try:
            return int(raw)
        except ValueError as exc:
            raise NotationError(f"SUBSETFACTOR_BUDGET is not an integer: {raw!r}") from exc
    return cfs_mod.DEFAULT_BUDGET


def _emit(args: argparse.Namespace, envelope: dict[str, Any], human: list[str]) -> None:
    if args.json:
        print(json.dumps(envelope, indent=1, sort_keys=False))
    else:
        for line in human:
            print(line)


def _load_group(args: argparse.Namespace) -> Group:
    return notation.group_from_string(args.group)


def _load_subset(args: argparse.Namespace, group: Group) -> Subset:
    if getattr(args, "set", None) and getattr(args, "set_file", None):
        raise NotationError("give either --set or --set-file, not both")
    if getattr(args, "set", None):
        return notation.parse_subset(group, args.set)
    if getattr(args, "set_file", None):
        _, subset = notation.load_subset_file(args.set_file, group)
        return subset
    raise NotationError("a subset is required: use --set or --set-file")


# ---------------------------------------------------------------------------
# Commands


def _cmd_info(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    g = _load_group(args)
    divisors = [d for d in range(1, g.order + 1) if g.order % d == 0]
    env = notation.report_envelope(
        "info",
        g,
        "ok",
        (time.perf_counter() - t0) * 1000,
        group_spec=args.group,
        abelian=g.is_abelian,
        generators={k: g.element_names[v] for k, v in g.generator_names.items()},
        divisors=divisors,
        elements=list(g.element_names) if g.order <= 64 else None,
    )
    human = [
        f"group {g.name}: order {g.order}, {'abelian' if g.is_abelian else 'nonabelian'}",
        f"generators: {', '.join(g.generator_names) or '(none)'}",
        f"divisors: {divisors}",
    ]
    if g.order <= 64:
        human.append(f"elements: {', '.join(g.element_names)}")
    _emit(args, env, human)
    return EXIT_HOLDS


def _cmd_factor(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    g = _load_group(args)
    a = _load_subset(args, g)
    fields: dict[str, Any] = {"subset": notation.subset_words(g, a)}
    human = [f"group {g.name}, subset {notation.format_subset(g, a)} (size {len(a)})"]

    if args.side == "same":
        b = factor_mod.find_same_complement(g, a)
        ok = b is not None
        verdict = "same_complement" if ok else "none"
        if ok:
            fields["complement"] = notation.subset_words(g, b)
            human.append(f"shared complement: {notation.format_subset(g, b)}")
        else:
            human.append("no shared complement exists")
    elif args.side in ("left", "right"):
        if args.all:
            sols = factor_mod.enumerate_complements(g, a, args.side)
            ok = bool(sols)
            verdict = args.side if ok else "none"
            fields["complements"] = [notation.subset_words(g, b) for b in sols]
            fields["complement_count"] = len(sols)
            human.append(f"{len(sols)} {args.side} complement(s)")
            human.extend(f"  {notation.format_subset(g, b)}" for b in sols)
        else:
            find = (
                factor_mod.find_left_complement
                if args.side == "left"
                else factor_mod.find_right_complement
            )
            b = find(g, a)
            ok = b is not None
            verdict = args.side if ok else "none"
            if ok:
                fields["complement"] = notation.subset_words(g, b)
                order = "A . B" if args.side == "left" else "B . A"
                human.append(f"{args.side} factor: G = {order} with B = {notation.format_subset(g, b)}")
            else:
                human.append(f"not a {args.side} factor")
    else:  # both
        report = factor_mod.classify_factor(g, a)
        verdict = report.classification
        ok = verdict != factor_mod.CLASS_NONE
        if report.left_complement is not None:
            fields["left_complement"] = notation.subset_words(g, report.left_complement)
        if report.right_complement is not None:
            fields["right_complement"] = notation.subset_words(g, report.right_complement)
        if report.evidence is not None:
            fields["evidence"] = {"kind": report.evidence.kind, **report.evidence.detail}
        human.append(f"classification: {verdict}")
        if report.left_complement is not None:
            human.append(f"  left complement: {notation.format_subset(g, report.left_complement)}")
        if report.right_complement is not None:
            human.append(f"  right complement: {notation.format_subset(g, report.right_complement)}")
        if report.evidence is not None:
            human.append(f"  evidence: {report.evidence.kind}")

    env = notation.report_envelope(
        "factor", g, verdict, (time.perf_counter() - t0) * 1000, group_spec=args.group, **fields
    )
    _emit(args, env, human)
    return EXIT_HOLDS if ok else EXIT_FAILS


def _cmd_same_complement(args: argparse.Namespace) -> int:
    args.side = "same"
    args.all = False
    return _cmd_factor(args)


def _cmd_strong_cfs(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    g = _load_group(args)
    budget = args.budget if args.budget is not None else _default_budget()
    try:
        rep = cfs_mod.decide_strong_cfs(g, canon_level=args.canon, budget=budget, group_name=args.group)
    except cfs_mod.BudgetExceededError as exc:
        env = notation.report_envelope(
            "strong-cfs",
            g,
            "inconclusive",
            (time.perf_counter() - t0) * 1000,
            group_spec=args.group,
            subsets_examined=exc.partial.subsets_examined,
            divisors_checked=list(exc.partial.divisors_checked),
            budget=budget,
        )
        _emit(args, env, [f"budget of {budget} classifications exhausted; inconclusive"])
        return EXIT_BUDGET
    fields: dict[str, Any] = {
        "subsets_examined": rep.subsets_examined,
        "divisors_checked": list(rep.divisors_checked),
        "canon": rep.canon_level,
    }
    human = [f"group {g.name}: strong CFS {'holds' if rep.holds else 'fails'}"]
    if rep.witness is not None:
        fields["witness"] = notation.subset_words(g, rep.witness)
        human.append(f"  witness (non-factor): {notation.format_subset(g, rep.witness)}")
    env = notation.report_envelope(
        "strong-cfs",
        g,
        "holds" if rep.holds else "fails",
        (time.perf_counter() - t0) * 1000,
        group_spec=args.group,
        **fields,
    )
    _emit(args, env, human)
    return EXIT_HOLDS if rep.holds else EXIT_FAILS


def _cmd_cfs(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    g = _load_group(args)
    rep = cfs_mod.decide_cfs(g, group_name=args.group)
    per = {
        str(d): {
            "left_factor": notation.subset_words(g, f.left_factor),
            "left_complement": notation.subset_words(g, f.left_complement),
            "right_factor": notation.subset_words(g, f.right_factor),
            "right_complement": notation.subset_words(g, f.right_complement),
            "route": f.route,
        }
        for d, f in rep.per_divisor.items()
    }
    human = [f"group {g.name}: CFS {'holds' if rep.holds else 'fails'}"]
    for d, f in rep.per_divisor.items():
        human.append(
            f"  d={d} ({f.route}): G = {notation.format_subset(g, f.left_factor)}"
            f" . {notation.format_subset(g, f.left_complement)}"
        )
    if rep.failed_divisor is not None:
        human.append(f"  no factorization of size {rep.failed_divisor}")
    env = notation.report_envelope(
        "cfs",
        g,
        "holds" if rep.holds else "fails",
        (time.perf_counter() - t0) * 1000,
        group_spec=args.group,
        per_divisor=per,
        failed_divisor=rep.failed_divisor,
    )
    _emit(args, env, human)
    return EXIT_HOLDS if rep.holds else EXIT_FAILS


def _cmd_lagrange(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    g = _load_group(args)
    reps = list(cfs_mod.enumerate_lagrange_subsets(g, args.size, args.canon))
    human = [
        f"group {g.name}: {len(reps)} canonical ({args.canon}) identity-containing "
        f"subset(s) of size {args.size}"
    ]
    human.extend(f"  {notation.format_subset(g, s)}" for s in reps)
    env = notation.report_envelope(
        "lagrange",
        g,
        "ok",
        (time.perf_counter() - t0) * 1000,
        group_spec=args.group,
        size=args.size,
        canon=args.canon,
        count=len(reps),
        representatives=[notation.subset_words(g, s) for s in reps],
    )
    _emit(args, env, human)
    return EXIT_HOLDS


def _gens_for(args: argparse.Namespace, g: Group) -> geometry.GeneratingSet:
    if getattr(args, "gens", None):
        idx = tuple(notation.parse_element_word(g, w.strip()) for w in args.gens.split(","))
        return geometry.GeneratingSet(g, idx)
    return geometry.standard_generating_set(g)


def _cmd_ball(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    g = _load_group(args)
    gens = _gens_for(args, g)
    b = geometry.ball(g, gens, args.radius)
    human = [
        f"group {g.name}, generators {[g.element_names[x] for x in gens.gens]}:"
        f" |ball_{args.radius}| = {len(b.members)}",
        f"  {notation.format_subset(g, b.members)}",
    ]
    env = notation.report_envelope(
        "ball",
        g,
        "ok",
        (time.perf_counter() - t0) * 1000,
        group_spec=args.group,
        radius=args.radius,
        generators=[g.element_names[x] for x in gens.gens],
        size=len(b.members),
        members=notation.subset_words(g, b.members),
    )
    _emit(args, env, human)
    return EXIT_HOLDS


def _cmd_tilde(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    g = _load_group(args)
    if args.size < 1 or g.order % args.size:
        raise ValueError(f"{args.size} is not a divisor of the group order {g.order}")
    gens = _gens_for(args, g)
    a_tilde = geometry.construct_tilde(g, gens, args.size)
    if a_tilde is None:
        env = notation.report_envelope(
            "tilde",
            g,
            "inapplicable",
            (time.perf_counter() - t0) * 1000,
            group_spec=args.group,
            size=args.size,
        )
        _emit(args, env, [f"no radius-2 ball extension of cardinality {args.size + 1} exists"])
        return EXIT_FAILS
    one_sided = geometry.tilde_condition(g, a_tilde)
    two_sided = geometry.tilde_condition_two_sided(g, a_tilde)
    stripped = Subset(g.order, a_tilde.mask & ~(1 << g.identity))
    cls = factor_mod.classify_factor(g, stripped).classification
    env = notation.report_envelope(
        "tilde",
        g,
        "ok",
        (time.perf_counter() - t0) * 1000,
        group_spec=args.group,
        size=args.size,
        tilde=notation.subset_words(g, a_tilde),
        condition_right=one_sided,
        condition_two_sided=two_sided,
        stripped_classification=cls,
    )
    human = [
        f"tilde set (size {len(a_tilde)}): {notation.format_subset(g, a_tilde)}",
        f"  right-translate condition: {one_sided}; two-sided: {two_sided}",
        f"  classification of the set minus the identity: {cls}",
    ]
    _emit(args, env, human)
    return EXIT_HOLDS


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    rep = cfs_mod.verify_paper()
    items = [
        {
            "id": item.id,
            "description": item.description,
            "passed": item.passed,
            "failures": list(item.failures),
            **({"detail": item.detail} if item.detail else {}),
        }
        for item in rep.items
    ]
    env = notation.report_envelope(
        "verify-paper",
        None,
        "passed" if rep.passed else "failed",
        (time.perf_counter() - t0) * 1000,
        checks=items,
    )
    human = []
    for item in rep.items:
        human.append(f"[{'PASS' if item.passed else 'FAIL'}] {item.id}: {item.description}")
        human.extend(f"    {f}" for f in item.failures)
    human.append(f"verification {'passed' if rep.passed else 'FAILED'}")
    _emit(args, env, human)
    return EXIT_HOLDS if rep.passed else EXIT_FAILS


def _cmd_catalog(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    entries = cfs_mod.witness_catalog()
    listed = [
        {
            "group": e.group_spec,
            "display": e.display,
            "claim": e.claim,
            "set": list(e.words),
            **({"complement": list(e.complement_words)} if e.complement_words else {}),
            **({"argument": e.argument} if e.argument else {}),
            "locus": e.locus,
        }
        for e in entries
    ]
    env = notation.report_envelope(
        "catalog",
        None,
        "ok",
        (time.perf_counter() - t0) * 1000,
        entries=listed,
        groups=[name for name, _ in SMALL_GROUP_CATALOG],
    )
    human = [f"{len(entries)} catalog entries"]
    for e in entries:
        tail = f" . {{{', '.join(e.complement_words)}}}" if e.complement_words else f" [{e.argument}]"
        human.append(f"  {e.display}: {{{', '.join(e.words)}}}{tail} ({e.claim})")
    _emit(args, env, human)
    return EXIT_HOLDS


# ---------------------------------------------------------------------------
# Argument parsing


def _add_group_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("group", help="group spec, e.g. C4, C2xC2, D7, Q8, S4, Heis3, sd(7,3,2)")


def _add_subset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", help="inline subset: comma-separated words, identity written 1")
    p.add_argument("--set-file", help="JSON subset file with 'group' and 'elements' fields")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsetfactor",
        description="Decide factor/CFS properties of subsets of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine-readable JSON report")
        return p

    p = cmd("info", _cmd_info, "describe a group")
    _add_group_arg(p)

    p = cmd("factor", _cmd_factor, "classify a subset as left/right/two-sided factor")
    _add_group_arg(p)
    _add_subset_args(p)
    p.add_argument("--side", choices=["left", "right", "both", "same"], default="both")
    p.add_argument("--all", action="store_true", help="enumerate all complements (left/right only)")

    p = cmd("same-complement", _cmd_same_complement, "find B with G = A.B = B.A")
    _add_group_arg(p)
    _add_subset_args(p)

    p = cmd("strong-cfs", _cmd_strong_cfs, "decide whether every Lagrange subset is a factor")
    _add_group_arg(p)
    p.add_argument("--canon", choices=["L1", "L2", "L3"], default="L1")
    p.add_argument("--budget", type=int, default=None, help="max classify calls, >= 0 (default 10^8)")

    p = cmd("cfs", _cmd_cfs, "exhibit factorizations for every divisor of the order")
    _add_group_arg(p)

    p = cmd("lagrange", _cmd_lagrange, "enumerate canonical Lagrange subsets of one size")
    _add_group_arg(p)
    p.add_argument("--size", "-d", type=int, required=True)
    p.add_argument("--canon", choices=["L1", "L2", "L3"], default="L1")

    p = cmd("ball", _cmd_ball, "Cayley-graph ball around the identity")
    _add_group_arg(p)
    p.add_argument("--radius", "-r", type=int, default=2)
    p.add_argument("--gens", help="comma-separated generator words (default: standard)")

    p = cmd("tilde", _cmd_tilde, "grow a connected ball extension and test its conditions")
    _add_group_arg(p)
    p.add_argument("--size", "-d", type=int, required=True, help="target divisor d (set has d+1 elements)")
    p.add_argument("--gens", help="comma-separated generator words (default: standard)")

    cmd("verify-paper", _cmd_verify_paper, "re-derive the full classification evidence")
    cmd("catalog", _cmd_catalog, "list the embedded witness catalog")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() call and reused by later ones."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (NotationError, GroupSpecError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
