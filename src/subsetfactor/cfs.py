"""CFS and strong-CFS deciders, Lagrange-subset enumeration up to symmetry,
the embedded witness catalog, and the verification suite for the
classification of groups in which every Lagrange subset is a factor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Any, Iterator

from . import notation
from .factor import (
    CLASS_NONE,
    all_translates_meet,
    classify_factor,
    find_left_complement,
    find_right_complement,
    hole_criterion,
    index2_criterion,
)
from .groups import (
    SMALL_GROUP_CATALOG,
    Group,
    Subgroup,
    all_subgroups,
    bits,
    left_transversal,
    right_transversal,
    subgroup_as_group,
)
from .subsets import Subset, canonical_form, invert_set, verify_direct_factorization

DEFAULT_BUDGET = 10**8
DEFAULT_CFS_ORDER_CAP = 200


class BudgetExceededError(RuntimeError):
    """The classify-call budget ran out; carries the partial report."""

    def __init__(self, partial: "StrongCfsReport"):
        super().__init__(
            f"budget exhausted after {partial.subsets_examined} classifications"
        )
        self.partial = partial


@dataclass(frozen=True)
class StrongCfsReport:
    group: str
    holds: bool | None  # None = inconclusive (budget), only inside the error
    witness: Subset | None
    divisors_checked: tuple[int, ...]
    subsets_examined: int
    canon_level: str


@dataclass(frozen=True)
class DivisorFactors:
    left_factor: Subset
    left_complement: Subset   # G = left_factor . left_complement
    right_factor: Subset
    right_complement: Subset  # G = right_complement . right_factor
    route: str                # subgroup | transversal | search


@dataclass(frozen=True)
class CfsReport:
    group: str
    holds: bool
    per_divisor: dict[int, DivisorFactors]
    failed_divisor: int | None = None


@dataclass(frozen=True)
class WitnessCatalogEntry:
    group_spec: str
    display: str
    words: tuple[str, ...]
    claim: str  # "positive_factorization" | "non_factor"
    complement_words: tuple[str, ...] | None
    locus: str
    argument: str | None = None


# ---------------------------------------------------------------------------
# Enumeration


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _size_masks_ascending(nbits: int, k: int) -> Iterator[int]:
    """All masks over ``nbits`` bits with popcount k, in increasing value
    (Gosper's hack)."""
    if k == 0:
        yield 0
        return
    if k > nbits:
        return
    v = (1 << k) - 1
    limit = 1 << nbits
    while v < limit:
        yield v
        lo = v & -v
        lz = v + lo
        v = lz | ((v ^ lz) // lo) >> 2


def enumerate_lagrange_subsets(group: Group, d: int, canon_level: str = "L1") -> Iterator[Subset]:
    """One representative per canonical class of size-d subsets containing
    the identity, in increasing mask order."""
    n = group.order
    if d < 1 or n % d:
        raise ValueError(f"{d} is not a divisor of the group order {n}")
    ident = group.identity
    if ident == 0:
        candidates = ((sub << 1) | 1 for sub in _size_masks_ascending(n - 1, d - 1))
    else:
        candidates = (
            m for m in _size_masks_ascending(n, d) if m >> ident & 1
        )
    for mask in candidates:
        s = Subset(n, mask)
        if canonical_form(group, s, canon_level).mask == mask:
            yield s


# ---------------------------------------------------------------------------
# Strong CFS


def decide_strong_cfs(
    group: Group,
    canon_level: str = "L1",
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
    group_name: str | None = None,
) -> StrongCfsReport:
    """Check whether every Lagrange subset of the group is a factor.

    The proper divisors are scanned in increasing order and the witness, if
    any, is the first canonical representative classifying as a non-factor.
    ``subsets_examined`` is the number of classify calls made; ``budget``
    (>= 0) bounds it, and BudgetExceededError is raised when a further call
    would be needed.  ``threads`` is accepted for compatibility and has no
    effect: the scan is sequential.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    name = group_name or group.name
    examined = 0
    checked: list[int] = []
    for d in _divisors(group.order)[1:-1]:  # {1} and G itself are always factors
        checked.append(d)
        for s in enumerate_lagrange_subsets(group, d, canon_level):
            if examined == budget:
                raise BudgetExceededError(
                    StrongCfsReport(name, None, None, tuple(checked), examined, canon_level)
                )
            examined += 1
            if classify_factor(group, s).classification == CLASS_NONE:
                return StrongCfsReport(name, False, s, tuple(checked), examined, canon_level)
    return StrongCfsReport(name, True, None, tuple(checked), examined, canon_level)


# ---------------------------------------------------------------------------
# CFS


def _subgroup_of_order(subs: list[Subgroup], d: int) -> Subgroup | None:
    for h in subs:
        if h.order == d:
            return h
    return None


def decide_cfs(group: Group, order_cap: int = DEFAULT_CFS_ORDER_CAP, group_name: str | None = None) -> CfsReport:
    """For every divisor d of |G|, exhibit a verified left factor and a
    verified right factor of size d.

    Routes, in order: subgroup of order d; transversal of a subgroup of
    order |G|/d; canonical search over size-d subsets.
    """
    n = group.order
    if n > order_cap:
        raise ValueError(f"decide_cfs capped at order {order_cap}")
    subs = all_subgroups(group)
    per: dict[int, DivisorFactors] = {}

    for d in _divisors(n):
        entry = None
        h = _subgroup_of_order(subs, d)
        if h is not None:
            a = Subset(n, h.mask)
            x = Subset(n, right_transversal(group, h).reps_mask)
            y = Subset(n, left_transversal(group, h).reps_mask)
            entry = DivisorFactors(a, x, a, y, "subgroup")
        else:
            k = _subgroup_of_order(subs, n // d)
            if k is not None:
                ks = Subset(n, k.mask)
                x = Subset(n, right_transversal(group, k).reps_mask)  # G = K . X
                y = Subset(n, left_transversal(group, k).reps_mask)   # G = Y . K
                entry = DivisorFactors(y, ks, x, ks, "transversal")
            else:
                for s in enumerate_lagrange_subsets(group, d, "L1"):
                    b = find_left_complement(group, s)
                    if b is not None:
                        # inversion duality gives the right factor
                        entry = DivisorFactors(
                            s, b, invert_set(group, s), invert_set(group, b), "search"
                        )
                        break
        if entry is None:
            return CfsReport(group_name or group.name, False, per, failed_divisor=d)
        assert verify_direct_factorization(group, entry.left_factor, entry.left_complement)
        assert verify_direct_factorization(group, entry.right_complement, entry.right_factor)
        per[d] = entry

    return CfsReport(group_name or group.name, True, per)


# ---------------------------------------------------------------------------
# Cyclic witnesses


def cyclic_witness(group: Group, d: int) -> Subset:
    """The non-factor set {1, a^2, a^3, ..., a^d} for a cyclic group with a
    proper divisor d >= 3 of its order."""
    n = group.order
    gen = next((x for x in range(n) if group.element_order(x) == n), None)
    if gen is None:
        raise ValueError("group is not cyclic")
    if d < 3 or d >= n or n % d:
        raise ValueError(f"d must be a proper divisor >= 3 of {n}, got {d}")
    indices = [group.identity] + [group.power(gen, e) for e in range(2, d + 1)]
    return Subset.from_indices(n, indices)


# ---------------------------------------------------------------------------
# Witness catalog


def _load_catalog_data() -> dict[str, Any]:
    with resources.files("subsetfactor.data").joinpath("witness_catalog.json").open() as fh:
        return json.load(fh)


_CATALOG_CACHE: list[WitnessCatalogEntry] | None = None
_GROUP_CACHE: dict[str, Group] = {}


def catalog_group(spec: str) -> Group:
    if spec not in _GROUP_CACHE:
        _GROUP_CACHE[spec] = notation.group_from_string(spec)
    return _GROUP_CACHE[spec]


def witness_catalog() -> list[WitnessCatalogEntry]:
    """All positive factorizations and explicit non-factor witnesses from
    the strong-CFS classification, as one embedded list."""
    global _CATALOG_CACHE
    if _CATALOG_CACHE is None:
        data = _load_catalog_data()
        entries: list[WitnessCatalogEntry] = []
        for e in data["positive"]:
            entries.append(
                WitnessCatalogEntry(
                    group_spec=e["group"],
                    display=e.get("display", e["group"]),
                    words=tuple(e["a"]),
                    claim="positive_factorization",
                    complement_words=tuple(e["b"]),
                    locus=e["locus"],
                )
            )
        for e in data["nonfactor"]:
            entries.append(
                WitnessCatalogEntry(
                    group_spec=e["group"],
                    display=e.get("display", e["group"]),
                    words=tuple(e["set"]),
                    claim="non_factor",
                    complement_words=None,
                    locus=e["locus"],
                    argument=e.get("argument"),
                )
            )
        _CATALOG_CACHE = entries
    return list(_CATALOG_CACHE)


def catalog_metadata() -> dict[str, Any]:
    """Elimination routes and typographical repairs recorded alongside the
    witness catalog."""
    data = _load_catalog_data()
    return {"eliminations": data["eliminations"], "repairs": data["repairs"]}


STRONG_CFS_GROUPS: tuple[str, ...] = (
    "C1", "C2", "C3", "C5", "C7", "C11", "C13", "C2xC2", "C4", "C2xC2xC2", "C3xC3",
)


# ---------------------------------------------------------------------------
# Catalog verification suite


@dataclass(frozen=True)
class CheckItem:
    id: str
    description: str
    passed: bool
    failures: tuple[str, ...] = ()
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class VerificationReport:
    items: tuple[CheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)


def _check_positive_entries() -> CheckItem:
    failures = []
    count = 0
    for e in witness_catalog():
        if e.claim != "positive_factorization":
            continue
        count += 1
        g = catalog_group(e.group_spec)
        a = notation.parse_subset(g, e.words)
        b = notation.parse_subset(g, e.complement_words)
        if not verify_direct_factorization(g, a, b):
            failures.append(f"{e.display}: {e.words} . {e.complement_words}")
    return CheckItem(
        "positive-catalog",
        "every listed factorization G = A . B verifies by multiply-and-count",
        not failures,
        tuple(failures),
        {"entries": count},
    )


def _check_nonfactor_entries() -> CheckItem:
    failures = []
    count = 0
    for e in witness_catalog():
        if e.claim != "non_factor":
            continue
        count += 1
        g = catalog_group(e.group_spec)
        try:
            a = notation.parse_subset(g, e.words)
        except notation.NotationError as exc:
            failures.append(f"{e.display}: {exc}")
            continue
        if find_left_complement(g, a) is not None or find_right_complement(g, a) is not None:
            failures.append(f"{e.display}: {e.words} admits a complement")
    return CheckItem(
        "nonfactor-catalog",
        "every explicit witness is a non-factor by exhausted two-sided search",
        not failures,
        tuple(failures),
        {"entries": count},
    )


def _check_strong_cfs_positives() -> CheckItem:
    failures = []
    for name in STRONG_CFS_GROUPS:
        g = catalog_group(name)
        rep = decide_strong_cfs(g, group_name=name)
        if not rep.holds:
            failures.append(f"{name}: witness {rep.witness}")
    return CheckItem(
        "strong-cfs-positives",
        "the eleven listed groups have the strong CFS property",
        not failures,
        tuple(failures),
    )


def _check_hereditary() -> CheckItem:
    failures = []
    # S3 witness {(), (1,2,3)} inside S4 (points 1..3 fixed-point embedding).
    s4 = catalog_group("S4")
    a = notation.parse_subset(s4, ["1", "(1,2,3)"])
    if classify_factor(s4, a).classification != CLASS_NONE:
        failures.append("S3 witness is a factor of S4")
    # C6 witness {1, a^2, a^3} lifted along C6 = <a^2> in C12, <a^3> in C18.
    for spec, gen_word in (("C12", "a^2"), ("C18", "a^3")):
        g = catalog_group(spec)
        gen = notation.parse_element_word(g, gen_word)
        lifted = Subset.from_indices(
            g.order, [g.identity, g.power(gen, 2), g.power(gen, 3)]
        )
        if classify_factor(g, lifted).classification != CLASS_NONE:
            failures.append(f"C6 witness is a factor of {spec}")
    return CheckItem(
        "hereditary",
        "witnesses remain non-factors in supergroups (S4, C12, C18)",
        not failures,
        tuple(failures),
    )


def _check_case_list_completeness() -> CheckItem:
    failures = []
    sets_by_group: dict[str, set[int]] = {"C2xC2xC2": set(), "C3xC3": set()}
    sizes = {"C2xC2xC2": 4, "C3xC3": 3}
    for e in witness_catalog():
        if e.claim != "positive_factorization" or e.group_spec not in sets_by_group:
            continue
        g = catalog_group(e.group_spec)
        a = notation.parse_subset(g, e.words)
        if len(a) == sizes[e.group_spec]:
            if g.identity not in a:
                failures.append(f"{e.group_spec}: {e.words} misses the identity")
            sets_by_group[e.group_spec].add(a.mask)
    expected = {
        "C2xC2xC2": math.comb(7, 3),
        "C3xC3": math.comb(8, 2),
    }
    counts = {}
    for spec, masks in sets_by_group.items():
        counts[spec] = len(masks)
        if len(masks) != expected[spec]:
            failures.append(f"{spec}: {len(masks)} distinct sets, expected {expected[spec]}")
    return CheckItem(
        "case-list-completeness",
        "the printed case lists cover all identity-containing Lagrange "
        "subsets of the advertised sizes (35 and 28)",
        not failures,
        tuple(failures),
        counts,
    )


def _check_witness_arguments() -> CheckItem:
    """The obstruction tagged on each witness actually fires."""
    failures = []
    for e in witness_catalog():
        if e.claim != "non_factor" or e.argument in (None, "parity", "tiling"):
            continue
        g = catalog_group(e.group_spec)
        a = notation.parse_subset(g, e.words)
        if e.argument == "index2":
            ok = (
                index2_criterion(g, a, "left") is None
                and index2_criterion(g, a, "right") is None
            )
        elif e.argument == "hole":
            ok = (
                hole_criterion(g, a, "left") is None
                and hole_criterion(g, a, "right") is None
            )
        elif e.argument == "translates_meet":
            ok = all_translates_meet(g, a)
        else:
            ok = False
        if not ok:
            failures.append(f"{e.display}: argument {e.argument} does not fire")
    return CheckItem(
        "witness-arguments",
        "each witness's quoted obstruction (index-2 / hole / translates-meet) re-checks",
        not failures,
        tuple(failures),
    )


def verify_paper() -> VerificationReport:
    """Re-derive every identity and witness behind the strong-CFS classification."""
    return VerificationReport(
        (
            _check_positive_entries(),
            _check_nonfactor_entries(),
            _check_strong_cfs_positives(),
            _check_hereditary(),
            _check_case_list_completeness(),
            _check_witness_arguments(),
        )
    )


__all__ = [
    "BudgetExceededError",
    "CfsReport",
    "CheckItem",
    "DivisorFactors",
    "STRONG_CFS_GROUPS",
    "StrongCfsReport",
    "VerificationReport",
    "WitnessCatalogEntry",
    "catalog_group",
    "catalog_metadata",
    "cyclic_witness",
    "decide_cfs",
    "decide_strong_cfs",
    "enumerate_lagrange_subsets",
    "verify_paper",
    "witness_catalog",
]
