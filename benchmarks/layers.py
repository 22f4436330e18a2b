"""Where the traced run's wrappers go, and how spans become per-layer
metrics.  One layer per library module: groups, subsets, cfs, factor,
notation, cli (geometry is spanned only so that its time is not charged to
the CLI's own self time).

Each wrapper is installed on every module that binds the name, because each
module looks the name up in its own globals.
"""

from __future__ import annotations

import os
from typing import Any

from tracer import SpanTable, Tracer

OBSTRUCTIONS = {  # kind -> (function, predicate on its result meaning "fired")
    "lagrange": ("lagrange_obstruction", lambda r: r is not None),
    "hole": ("hole_criterion", lambda r: r is None),
    "index2": ("index2_criterion", lambda r: r is None),
    "translates_meet": ("all_translates_meet", lambda r: r is True),
}
EVIDENCE_KINDS = ("exhausted_search", "index2_failure", "hole_failure", "all_translates_meet", "lagrange_obstruction")
COMPLEMENT_SEARCHES = ("find_left_complement", "find_right_complement", "enumerate_complements", "find_same_complement")
PARSE = ("notation.parse_group_spec", "notation.parse_subset", "notation.parse_element_word")
FORMAT = ("notation.format_subset", "notation.subset_words", "notation.report_envelope")
ENUMERATE = "cfs.enumerate_lagrange_subsets"
CLASSIFY = "factor.classify_factor"
OBSTRUCTION_SPANS = tuple(f"factor.{fn}" for fn, _ in OBSTRUCTIONS.values())
COMPLEMENT_SPANS = tuple(f"factor.{fn}" for fn in COMPLEMENT_SEARCHES)


def _classified(tracer: Tracer, report: Any, args: tuple) -> None:
    if report.evidence is not None:
        tracer.count(f"factor.evidence.{report.evidence.kind}")


def _fired(kind: str, predicate):
    def outcome(tracer: Tracer, result: Any, args: tuple) -> None:
        if predicate(result):
            tracer.count(f"factor.obstruction_fired.{kind}")

    return outcome


def _found(tracer: Tracer, result: Any, args: tuple) -> None:
    if result:  # a Subset (truthy when nonempty) or a nonempty list
        tracer.count("factor.complement_found")


def _examined(tracer: Tracer, report: Any, args: tuple) -> None:
    tracer.count("cfs.strong_cfs_examined", report.subsets_examined)


def install(tracer: Tracer, lib: Any) -> None:
    g, s, f, c, nt, geo, cli = lib.groups, lib.subsets, lib.factor, lib.cfs, lib.notation, lib.geometry, lib.cli
    group_cls = g.Group
    for method in ("left_translate_mask", "right_translate_mask"):
        tracer.patch(group_cls, method, tracer.call_counter(method, getattr(group_cls, method)))

    tracer.install("groups.build_group", g.build_group, [g])
    tracer.install("groups.all_subgroups", g.all_subgroups, [g, c])
    tracer.install("groups.automorphisms", g.automorphisms, [g, s])

    tracer.install("subsets.canonical_form", s.canonical_form, [s, c, cli])
    tracer.install("subsets.verify_direct_factorization", s.verify_direct_factorization, [s, f, c])

    tracer.patch(c, "enumerate_lagrange_subsets",
                 tracer.span_iter(ENUMERATE, c.enumerate_lagrange_subsets, "cfs.classes"))
    tracer.install("cfs.decide_strong_cfs", c.decide_strong_cfs, [c], _examined)
    for name in ("decide_cfs", "verify_paper", "witness_catalog"):
        tracer.install(f"cfs.{name}", getattr(c, name), [c])

    tracer.install(CLASSIFY, f.classify_factor, [f, c], _classified)
    for kind, (name, predicate) in OBSTRUCTIONS.items():
        owners = [f] + ([c] if hasattr(c, name) else [])
        tracer.install(f"factor.{name}", getattr(f, name), owners, _fired(kind, predicate))
    for name in COMPLEMENT_SEARCHES:
        owners = [f] + ([c] if hasattr(c, name) else [])
        tracer.install(f"factor.{name}", getattr(f, name), owners, _found)

    for span_name in PARSE + FORMAT:
        name = span_name.split(".", 1)[1]
        tracer.install(span_name, getattr(nt, name), [nt])
    for name in ("ball", "construct_tilde", "tilde_condition", "tilde_condition_two_sided", "standard_generating_set"):
        tracer.install(f"geometry.{name}", getattr(geo, name), [geo])

    tracer.install("cli.main", cli.main, [cli])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counters(tracer: Tracer) -> dict[str, int]:
    """Work done, as counts that repeat exactly for the same seed on the
    same machine.  They cover the traced set-up and the traced job."""
    t: SpanTable = tracer.spans()
    out = tracer.outcomes
    result = {
        "groups.translate_calls": tracer.calls("left_translate_mask") + tracer.calls("right_translate_mask"),
        "groups.automorphisms_calls": t.calls("groups.automorphisms"),
        "subsets.canonical_calls": t.calls("subsets.canonical_form"),
        "subsets.verify_calls": t.calls("subsets.verify_direct_factorization"),
        "cfs.candidates": t.children_named(ENUMERATE, "subsets.canonical_form"),
        "cfs.classes": out["cfs.classes"],
        "cfs.strong_cfs_examined": out["cfs.strong_cfs_examined"],
        "factor.classify_calls": t.calls(CLASSIFY),
        "factor.complement_calls": t.calls(*COMPLEMENT_SPANS),
        "cli.default_threads": os.cpu_count() or 1,
        "trace.spans": t.count,
    }
    for kind, (fn, _) in OBSTRUCTIONS.items():
        result[f"factor.obstruction_calls.{kind}"] = t.calls(f"factor.{fn}")
        result[f"factor.obstruction_fired.{kind}"] = out[f"factor.obstruction_fired.{kind}"]
    for kind in EVIDENCE_KINDS:
        result[f"factor.evidence.{kind}"] = out[f"factor.evidence.{kind}"]
    return result


def measured(tracer: Tracer, job_s: float, untraced_job_s: float, json_bytes: int,
             micro: dict[str, float]) -> dict[str, float]:
    """Timings, rates and sizes over the traced set-up and job; these vary
    from run to run."""
    t: SpanTable = tracer.spans()
    out = tracer.outcomes
    candidates = t.children_named(ENUMERATE, "subsets.canonical_form")
    classes = out["cfs.classes"]
    enumerate_s = t.inclusive_s(ENUMERATE)
    return {
        "groups.translate_ns": micro["groups.translate_ns"],
        "groups.automorphisms_s": t.inclusive_s("groups.automorphisms"),
        "groups.build_s": t.inclusive_s("groups.build_group"),
        "groups.subgroups_s": t.inclusive_s("groups.all_subgroups"),
        "subsets.canonical_s": t.self_s("subsets.canonical_form"),
        "subsets.verify_s": t.inclusive_s("subsets.verify_direct_factorization"),
        "cfs.class_ratio": _ratio(classes, candidates),
        "cfs.enumerate_self_s": t.self_s(ENUMERATE),
        "cfs.candidates_per_s": _ratio(candidates, enumerate_s),
        "cfs.classes_per_s": _ratio(classes, enumerate_s),
        "cfs.strong_cfs_self_s": t.self_s("cfs.decide_strong_cfs"),
        "factor.classify_self_s": t.self_s(CLASSIFY),
        "factor.classify_per_s": _ratio(t.calls(CLASSIFY), t.inclusive_s(CLASSIFY)),
        "factor.obstruction_s": t.inclusive_s(*OBSTRUCTION_SPANS),
        "factor.complement_s": t.inclusive_s(*COMPLEMENT_SPANS),
        "factor.complement_found_ratio": _ratio(out["factor.complement_found"], t.calls(*COMPLEMENT_SPANS)),
        "notation.parse_s": t.inclusive_s(*PARSE),
        "notation.format_s": t.inclusive_s(*FORMAT),
        "cli.self_s": t.self_s("cli.main"),
        "cli.json_bytes": json_bytes,
        "micro.canonical_l1_us": micro["micro.canonical_l1_us"],
        "micro.classify_per_s": micro["micro.classify_per_s"],
        "trace.overhead_frac": _ratio(job_s - untraced_job_s, untraced_job_s),
    }
