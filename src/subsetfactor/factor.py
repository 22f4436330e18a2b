"""Deciding factor-ness of subsets.

A is a left factor of G (G = A . B for some B) exactly when G can be tiled
by right translates {Ab}; complements are found by exact-cover backtracking
over those translates, always branching on the least-index uncovered
element.  The search checks forward: it leaves a branch as soon as some
uncovered element lies in no translate still disjoint from the partial
tiling.  That drops only branches without a tiling and keeps the branching
order, so complements are found in the same order as by plain
backtracking.  Cheap sound criteria (Lagrange obstruction, index-2 scan,
hole covering, all-translates-meet) run first and double as independently
checkable non-factor certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from .groups import Group, Subgroup, Transversal, bits, generated_subgroup, subgroup_as_group
from .subsets import Subset, invert_set, verify_direct_factorization

CLASS_TWO_SIDED = "two_sided"
CLASS_LEFT_ONLY = "left_only"
CLASS_RIGHT_ONLY = "right_only"
CLASS_NONE = "none"


@dataclass(frozen=True)
class NonFactorEvidence:
    """Why a subset is not a factor; every kind can be re-checked by the
    corresponding criterion operation."""

    kind: str  # exhausted_search | index2_failure | hole_failure |
    #            all_translates_meet | lagrange_obstruction
    detail: dict[str, Any]


@dataclass(frozen=True)
class FactorReport:
    classification: str
    left_complement: Subset | None = None   # B with G = A . B
    right_complement: Subset | None = None  # B with G = B . A
    same_complement: Subset | None = None
    evidence: NonFactorEvidence | None = None

    @property
    def is_factor(self) -> bool:
        return self.classification != CLASS_NONE


# ---------------------------------------------------------------------------
# Exact cover over translates


def _translates(group: Group, amask: int, side: str) -> Iterator[int]:
    """The translates that tile G when A is a factor on ``side``: Ag for a
    left factor (G = A . B), gA for a right factor, for g = 0, 1, ..."""
    return group.translates(amask, "right" if side == "left" else "left")


def _tiles(masks: Iterable[int]) -> list[tuple[int, int]]:
    """Deduplicated tiles (mask, least label b) from the masks of labels
    b = 0, 1, ..., in ascending label order."""
    seen: dict[int, int] = {}
    for b, m in enumerate(masks):
        seen.setdefault(m, b)
    return list(seen.items())


def _cover_search(ncells: int, tiles: list[tuple[int, int]], all_solutions: bool) -> list[int]:
    """Exact covers of cells 0..ncells-1 by tiles given in ascending label
    order, branching on the least uncovered cell, with forward checking.

    Tiles are numbered 0..T-1 in label order; ``on_cell[c]`` is the bitmask
    of the tiles containing cell c, and ``near[c]`` the cells of those
    tiles.  A node carries ``covered`` and ``live``, the tiles disjoint from
    ``covered``, and tries the live tiles on the least uncovered cell lowest
    number first, as plain backtracking does.  A child is entered only if
    every uncovered cell still has a live tile.  That holds at the root, as
    every element lies in some translate.  Placing tile i kills the tiles
    meeting it (``kill[i]``), so only their cells (``watch[i]``) can lose
    their last live tile, and only those are checked; both are worked out
    once per search, on first use.  Pruning removes only subtrees that hold
    no cover and the branching order is unchanged, so covers are found in
    the same order as without it: the first cover and the set of all covers
    are the same.

    Returns complement masks (OR of chosen labels' bits); just the first
    found unless ``all_solutions``.
    """
    full = (1 << ncells) - 1
    masks = [m for m, _ in tiles]
    on_cell = [0] * ncells
    near = [0] * ncells
    # The bit loops below are inlined: in this hot path ``bits()`` costs
    # more than the search it serves on short searches.
    for i, m in enumerate(masks):
        bit = 1 << i
        rest = m
        while rest:
            low = rest & -rest
            c = low.bit_length() - 1
            on_cell[c] |= bit
            near[c] |= m
            rest ^= low
    kill: list[int | None] = [None] * len(masks)
    watch = [0] * len(masks)

    solutions: list[int] = []
    chosen: list[int] = []

    def rec(covered: int, live: int) -> bool:
        if covered == full:
            solutions.append(sum(1 << tiles[i][1] for i in chosen))
            return not all_solutions
        free = ~covered & full
        cand = on_cell[(free & -free).bit_length() - 1] & live
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            k = kill[i]
            if k is None:
                k = w = 0
                rest = masks[i]
                while rest:
                    lr = rest & -rest
                    c = lr.bit_length() - 1
                    k |= on_cell[c]
                    w |= near[c]
                    rest ^= lr
                kill[i] = k
                watch[i] = w
            child_covered = covered | masks[i]
            child_live = live & ~k
            w = watch[i] & ~child_covered
            while w:
                lw = w & -w
                if not on_cell[lw.bit_length() - 1] & child_live:
                    break
                w ^= lw
            else:
                chosen.append(i)
                if rec(child_covered, child_live):
                    return True
                chosen.pop()
        return False

    rec(0, (1 << len(masks)) - 1)
    return solutions


def _complement_mask(group: Group, amask: int, side: str) -> int | None:
    k = amask.bit_count()
    if k == 0:
        raise ValueError("complement search requires a nonempty subset")
    if group.order % k:
        return None
    sols = _cover_search(group.order, _tiles(_translates(group, amask, side)), False)
    return sols[0] if sols else None


def find_left_complement(group: Group, a: Subset) -> Subset | None:
    """B with G = A . B, or None."""
    m = _complement_mask(group, a.mask, "left")
    if m is None:
        return None
    b = Subset(group.order, m)
    assert verify_direct_factorization(group, a, b)
    return b


def find_right_complement(group: Group, a: Subset) -> Subset | None:
    """B with G = B . A, or None."""
    m = _complement_mask(group, a.mask, "right")
    if m is None:
        return None
    b = Subset(group.order, m)
    assert verify_direct_factorization(group, b, a)
    return b


def enumerate_complements(group: Group, a: Subset, side: str = "left") -> list[Subset]:
    """All complements on the given side, one per tiling, sorted by mask.

    Labels with equal translates (Ab = Ab') give the same tiling, so each
    complement uses the least label of every translate it picks.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not a:
        raise ValueError("enumerate_complements requires a nonempty subset")
    if group.order % len(a):
        return []
    sols = _cover_search(group.order, _tiles(_translates(group, a.mask, side)), True)
    return [Subset(group.order, m) for m in sorted(sols)]


# ---------------------------------------------------------------------------
# Cheap criteria


def lagrange_obstruction(group: Group, a: Subset) -> Subgroup | None:
    """The generated subgroup <A> when |A| does not divide |<A>|, which
    proves A is not a factor of any supergroup; None otherwise."""
    if not a:
        raise ValueError("empty subset")
    h = generated_subgroup(group, a.mask)
    return h if h.order % len(a) else None


def index2_criterion(group: Group, a: Subset, side: str) -> int | None:
    """For |A| = |G|/2: least g with Ag = G \\ A (side='left') or
    gA = G \\ A (side='right').  Existence is equivalent to factor-ness on
    that side."""
    n = group.order
    if 2 * len(a) != n:
        raise ValueError("index2_criterion requires |A| = |G|/2")
    want = group.full_mask ^ a.mask
    for g, m in enumerate(_translates(group, a.mask, side)):
        if m == want:
            return g
    return None


def hole_criterion(group: Group, a: Subset, side: str) -> int | None:
    """For 1 not in A: least g with identity in Ag (resp. gA) and the
    translate disjoint from A.  If no such g exists on a side, A is not a
    factor on that side."""
    ident = 1 << group.identity
    if a.mask & ident:
        raise ValueError("hole_criterion requires the identity to be outside A")
    for g, m in enumerate(_translates(group, a.mask, side)):
        if m & ident and not m & a.mask:
            return g
    return None


def all_translates_meet(group: Group, a: Subset) -> bool:
    """True iff A meets every translate Ag and gA.  Together with
    1 not in A this proves A is not a factor on either side."""
    return all(a.mask & m for side in ("right", "left") for m in group.translates(a.mask, side))


# ---------------------------------------------------------------------------
# Classification


def classify_factor(group: Group, a: Subset) -> FactorReport:
    """Full left/right/two-sided/none classification with certificates."""
    if not a:
        raise ValueError("classify_factor requires a nonempty subset")
    n = group.order
    k = len(a)

    obstruction = lagrange_obstruction(group, a)
    if obstruction is not None:
        return FactorReport(
            CLASS_NONE,
            evidence=NonFactorEvidence(
                "lagrange_obstruction",
                {"generated_order": obstruction.order, "size": k},
            ),
        )

    left_known_absent = False
    right_known_absent = False
    evidence: NonFactorEvidence | None = None

    if not a.mask >> group.identity & 1:
        if all_translates_meet(group, a):
            return FactorReport(
                CLASS_NONE,
                evidence=NonFactorEvidence("all_translates_meet", {"hole": group.identity}),
            )
        hole_left = hole_criterion(group, a, "left")
        hole_right = hole_criterion(group, a, "right")
        left_known_absent = hole_left is None
        right_known_absent = hole_right is None
        if left_known_absent and right_known_absent:
            return FactorReport(
                CLASS_NONE,
                evidence=NonFactorEvidence("hole_failure", {"sides": ["left", "right"]}),
            )
        if left_known_absent or right_known_absent:
            evidence = NonFactorEvidence(
                "hole_failure",
                {"sides": ["left"] if left_known_absent else ["right"]},
            )

    left = right = None
    if n == 2 * k:
        gl = index2_criterion(group, a, "left")
        gr = index2_criterion(group, a, "right")
        if gl is not None:
            left = Subset.from_indices(n, (group.identity, gl))
        if gr is not None:
            right = Subset.from_indices(n, (group.identity, gr))
        if left is None and right is None:
            return FactorReport(
                CLASS_NONE,
                evidence=NonFactorEvidence("index2_failure", {"sides": ["left", "right"]}),
            )
    else:
        if not left_known_absent:
            left = find_left_complement(group, a)
        if not right_known_absent:
            right = find_right_complement(group, a)

    if left is not None and right is not None:
        return FactorReport(CLASS_TWO_SIDED, left_complement=left, right_complement=right)
    if left is not None:
        return FactorReport(CLASS_LEFT_ONLY, left_complement=left)
    if right is not None:
        return FactorReport(CLASS_RIGHT_ONLY, right_complement=right)
    if evidence is None:
        evidence = NonFactorEvidence("exhausted_search", {"sides": ["left", "right"]})
    return FactorReport(CLASS_NONE, evidence=evidence)


# ---------------------------------------------------------------------------
# Simultaneous (same-complement) search


def find_same_complement(group: Group, a: Subset) -> Subset | None:
    """B with G = A . B = B . A simultaneously, or None.

    One exact cover over 2n cells: tile b covers Ab in cells 0..n-1 and bA
    in cells n..2n-1.
    """
    if not a:
        raise ValueError("find_same_complement requires a nonempty subset")
    n = group.order
    if n % len(a):
        return None
    pairs = zip(_translates(group, a.mask, "left"), _translates(group, a.mask, "right"))
    sols = _cover_search(2 * n, _tiles(ab | ba << n for ab, ba in pairs), False)
    if not sols:
        return None
    b = Subset(n, sols[0])
    assert verify_direct_factorization(group, a, b)
    assert verify_direct_factorization(group, b, a)
    return b


# ---------------------------------------------------------------------------
# Factor-subgroup lemma operations


def restrict_complement(group: Group, subgroup: Subgroup, a: Subset, b: Subset) -> Subset:
    """Given A subset of H and G = A . B, return C = B n H with H = A . C."""
    if a.mask & ~subgroup.mask:
        raise ValueError("A is not contained in the subgroup")
    if not verify_direct_factorization(group, a, b):
        raise ValueError("G = A . B does not hold")
    c = Subset(group.order, b.mask & subgroup.mask)
    hgrp, elems = subgroup_as_group(group, subgroup)
    pos = {x: i for i, x in enumerate(elems)}
    a_h = Subset.from_indices(hgrp.order, (pos[x] for x in a))
    c_h = Subset.from_indices(hgrp.order, (pos[x] for x in c))
    if not verify_direct_factorization(hgrp, a_h, c_h):
        raise AssertionError("restriction postcondition failed")
    return c


def extend_complement(
    group: Group, subgroup: Subgroup, a: Subset, b: Subset, x: Transversal
) -> Subset:
    """Given A, B subsets of H with H = A . B and X a right transversal of
    H, return BX with G = A . (BX)."""
    if a.mask & ~subgroup.mask or b.mask & ~subgroup.mask:
        raise ValueError("A and B must be contained in the subgroup")
    if x.side != "right" or x.subgroup.mask != subgroup.mask:
        raise ValueError("X must be a right transversal of the given subgroup")
    hgrp, elems = subgroup_as_group(group, subgroup)
    pos = {e: i for i, e in enumerate(elems)}
    a_h = Subset.from_indices(hgrp.order, (pos[v] for v in a))
    b_h = Subset.from_indices(hgrp.order, (pos[v] for v in b))
    if not verify_direct_factorization(hgrp, a_h, b_h):
        raise ValueError("H = A . B does not hold")
    bx = 0
    for t in bits(x.reps_mask):
        bx |= group.right_translate_mask(b.mask, t)
    out = Subset(group.order, bx)
    if not verify_direct_factorization(group, a, out):
        raise AssertionError("extension postcondition failed")
    return out


def inversion_dual(group: Group, a: Subset) -> Subset:
    """A^-1; A is a left factor iff A^-1 is a right factor."""
    return invert_set(group, a)
