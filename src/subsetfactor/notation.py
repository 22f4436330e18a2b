"""Parsing and serialization: group spec strings, element words, subsets,
and the JSON report envelope shared by the CLI and the test suites.

Spec-string grammar (case-insensitive):

    C<n> | D<m> | Q8 | S<k> | A<k> | Heis<p> | sd(<m>,<k>,<t>)
    atom x atom x ...          products, left-associative
    file:<path>                JSON Cayley-table file
    perm:[(1,2,3);(1,2)]       closure of explicit permutations

Element words use explicit '*' between factors: ``a^2*b``, ``a^-1*b^-1``,
``1`` for the identity.  An exact element name (e.g. the cycle notation
``(1,2)(3,4)`` or Q8's ``-1``) is always accepted as well.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Sequence

from . import groups
from .groups import FAMILIES, Group, GroupSpec
from .subsets import Subset


class NotationError(ValueError):
    """Malformed spec string, word, or subset file."""


# One pattern per family with integer parameters, read from its spec-string
# template: C{} -> c(\d+), sd({},{},{}) -> sd\((\d+),(\d+),(\d+)\).
_ATOM_RES: list[tuple[re.Pattern[str], str]] = [
    (re.compile(re.escape(form.lower()).replace(r"\{\}", r"(\d+)") + "$"), family)
    for family, (form, _, _) in FAMILIES.items()
    if family not in ("x", "file", "perm")
]


def _split_top_level(text: str, sep: str) -> list[str]:
    """Split on ``sep`` outside any parentheses/brackets."""
    parts: list[str] = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_cycles(text: str, pos_base: int) -> list[list[int]]:
    cycles = []
    rest = text.strip()
    if rest == "" or rest == "1" or rest == "()":
        return []
    pat = re.compile(r"\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)")
    idx = 0
    while idx < len(rest):
        m = pat.match(rest, idx)
        if not m:
            raise NotationError(f"bad cycle notation at position {pos_base + idx}: {rest[idx:]!r}")
        cycles.append([int(v) for v in m.group(1).split(",")])
        idx = m.end()
    return cycles


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a spec string into a GroupSpec; raises NotationError with the
    offending position on failure."""
    s = text.strip()
    if not s:
        raise NotationError("empty group spec")
    low = s.lower()
    if low.startswith("file:"):
        return GroupSpec("file", (s[5:].strip(),))
    if low.startswith("perm:"):
        body = s[5:].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise NotationError("perm: spec requires [cycles;...]")
        npoints = 0
        parsed = []
        for part in _split_top_level(body[1:-1], ";"):
            cycles = _parse_cycles(part, text.index("[") + 1)
            parsed.append(cycles)
            for cyc in cycles:
                npoints = max(npoints, *cyc)
        npoints = max(npoints, 1)
        perms = tuple(groups.perm_from_cycles(c, npoints) for c in parsed)
        return GroupSpec("perm", (perms,))

    atoms = _split_top_level(low, "x")
    specs = []
    pos = 0
    for atom in atoms:
        a = atom.strip()
        if not a:
            raise NotationError(f"empty factor at position {pos} in {text!r}")
        for pat, family in _ATOM_RES:
            m = pat.match(a)
            if m:
                specs.append(GroupSpec(family, tuple(map(int, m.groups()))))
                break
        else:
            raise NotationError(f"unrecognized group atom {a!r} at position {pos}")
        pos += len(atom) + 1
    spec = specs[0]
    for nxt in specs[1:]:
        spec = GroupSpec("x", (spec, nxt))
    return spec


def group_from_string(text: str) -> Group:
    return groups.build_group(parse_group_spec(text))


_FACTOR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*|1)(?:\^(-?\d+))?$")


def parse_element_word(group: Group, text: str) -> int:
    """Evaluate a word over the group's named generators; exact element
    names are also accepted."""
    s = text.strip()
    if not s:
        raise NotationError("empty element word")
    exact = group.element_index(s)
    if exact is not None:
        return exact
    acc = group.identity
    for factor in s.split("*"):
        f = factor.strip()
        m = _FACTOR_RE.match(f)
        if not m:
            raise NotationError(f"malformed factor {f!r} in word {text!r}")
        name, exp = m.group(1), m.group(2)
        e = int(exp) if exp is not None else 1
        if name == "1":
            continue
        if name not in group.generator_names:
            raise NotationError(f"unknown generator {name!r} in group {group.name}")
        x = group.generator_names[name]
        acc = group.mul(acc, group.power(x, e))
    return acc


def _split_words(text: str) -> list[str]:
    """Split a comma-separated word list, ignoring commas inside parens
    (cycle notation)."""
    return [p.strip() for p in _split_top_level(text, ",") if p.strip()]


def parse_subset(group: Group, words: str | Sequence[str]) -> Subset:
    """Subset from a comma-separated string or a sequence of words; words
    naming the same element twice raise ``NotationError``."""
    if isinstance(words, str):
        words = _split_words(words)
    mask = 0
    for w in words:
        bit = 1 << parse_element_word(group, w)
        if mask & bit:
            raise NotationError(f"word {w!r} repeats an element already in the subset")
        mask |= bit
    return Subset(group.order, mask)


def format_subset(group: Group, a: Subset) -> str:
    """Brace-delimited element names in index order; stable across runs."""
    if a.parent_order != group.order:
        raise ValueError("subset does not belong to this group")
    return "{" + ", ".join(group.element_names[i] for i in a) + "}"


def subset_words(group: Group, a: Subset) -> list[str]:
    return [group.element_names[i] for i in a]


# ---------------------------------------------------------------------------
# Files and report envelopes


def load_subset_file(path: str | Path, group: Group | None = None) -> tuple[Group, Subset]:
    """Load {"group": spec-string, "elements": [words]}; a pre-built group
    may be supplied to skip reconstruction."""
    data = json.loads(Path(path).read_text())
    if group is None:
        spec = data.get("group")
        if not spec:
            raise NotationError("subset file lacks a 'group' field")
        group = group_from_string(spec)
    return group, parse_subset(group, data["elements"])


def save_subset_file(group: Group, a: Subset, path: str | Path, spec: str | None = None) -> None:
    payload = {"group": spec or group.name, "elements": subset_words(group, a)}
    Path(path).write_text(json.dumps(payload, indent=1))


def report_envelope(
    command: str,
    group: Group | None,
    verdict: str,
    elapsed_ms: float,
    group_spec: str | None = None,
    **fields: Any,
) -> dict[str, Any]:
    """Single-document JSON report shared by all CLI commands."""
    env: dict[str, Any] = {"command": command}
    if group is not None:
        env["group"] = {
            "spec": group_spec or group.name,
            "name": group.name,
            "order": group.order,
        }
    env["verdict"] = verdict
    env.update({k: v for k, v in fields.items() if v is not None})
    env["elapsed_ms"] = round(elapsed_ms, 3)
    return env
