"""Cayley-graph geometry: balls around the identity, connectivity of
subsets, and the padded-ball construction that produces non-factor
witnesses with a "hole" at the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .groups import Group, bits
from .subsets import Subset


@dataclass(frozen=True)
class GeneratingSet:
    """An ordered generating set of a group (checked on construction)."""

    parent: Group
    gens: tuple[int, ...]

    def __post_init__(self) -> None:
        mask = 0
        for g in self.gens:
            mask |= 1 << g
        if self.parent.closure_mask(mask | (1 << self.parent.identity)) != self.parent.full_mask:
            raise ValueError("the given elements do not generate the group")

    @property
    def symmetric_gens(self) -> tuple[int, ...]:
        out: list[int] = []
        for g in self.gens:
            if g not in out:
                out.append(g)
            gi = self.parent.inverse[g]
            if gi not in out:
                out.append(gi)
        return tuple(out)


def standard_generating_set(group: Group) -> GeneratingSet:
    """Shortest prefix of the group's named generators that generates it;
    falls back to a greedy generating sequence."""
    named = list(group.generator_names.values())
    mask = 1 << group.identity
    chosen: list[int] = []
    for g in named:
        chosen.append(g)
        mask = group.closure_mask(mask | (1 << g))
        if mask == group.full_mask:
            return GeneratingSet(group, tuple(chosen))
    if group.order == 1:
        return GeneratingSet(group, ())
    for x in range(group.order):
        if not mask >> x & 1:
            chosen.append(x)
            mask = group.closure_mask(mask | (1 << x))
            if mask == group.full_mask:
                break
    return GeneratingSet(group, tuple(chosen))


@dataclass(frozen=True)
class Ball:
    center: int
    radius: int
    members: Subset


def ball(group: Group, gens: GeneratingSet, radius: int) -> Ball:
    """Elements of word length <= radius over gens and their inverses,
    grown breadth-first from the identity."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    sym = gens.symmetric_gens
    mask = 1 << group.identity
    frontier = [group.identity]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            row = group.table[x]
            for g in sym:
                y = row[g]
                if not mask >> y & 1:
                    mask |= 1 << y
                    nxt.append(y)
        frontier = nxt
    return Ball(group.identity, radius, Subset(group.order, mask))


def is_connected_subset(group: Group, gens: GeneratingSet, a: Subset) -> bool:
    """Connectivity of A in the undirected Cayley graph restricted to A."""
    if not a:
        raise ValueError("connectivity of the empty set is undefined")
    sym = gens.symmetric_gens
    start = (a.mask & -a.mask).bit_length() - 1
    seen = 1 << start
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            row = group.table[x]
            for g in sym:
                y = row[g]
                b = 1 << y
                if a.mask & b and not seen & b:
                    seen |= b
                    nxt.append(y)
        frontier = nxt
    return seen == a.mask


def _tilde_holds(group: Group, a_tilde: Subset, sides: tuple[str, ...]) -> bool:
    """For every translate T of A~ on the given sides: |A~ n T| > 2 or the
    identity is outside A~ n T."""
    ident = 1 << group.identity
    mask = a_tilde.mask
    if not mask & ident:
        raise ValueError("tilde_condition requires the identity in the set")
    for side in sides:
        for t in group.translates(mask, side):
            inter = mask & t
            if inter & ident and inter.bit_count() <= 2:
                return False
    return True


def tilde_condition(group: Group, a_tilde: Subset) -> bool:
    """For every g: |A~ n A~g| > 2 or the identity is outside A~ n A~g."""
    return _tilde_holds(group, a_tilde, ("right",))


def tilde_condition_two_sided(group: Group, a_tilde: Subset) -> bool:
    """The tilde condition checked with both right and left translates."""
    return _tilde_holds(group, a_tilde, ("right", "left"))


def construct_tilde(group: Group, gens: GeneratingSet, d: int) -> Subset | None:
    """Grow a connected superset of the radius-2 ball to cardinality d + 1,
    where d divides |G|.

    Growth is deterministic: among elements adjacent to the current set the
    least index is added first.  Returns None when d + 1 is smaller than
    the ball or exceeds the group order, or d does not divide |G|.
    """
    n = group.order
    if d <= 0 or n % d or d + 1 > n:
        return None
    b2 = ball(group, gens, 2).members.mask
    if b2.bit_count() > d + 1:
        return None
    sym = gens.symmetric_gens
    current = b2
    while current.bit_count() < d + 1:
        frontier = 0
        for x in bits(current):
            row = group.table[x]
            for g in sym:
                frontier |= 1 << row[g]
        frontier &= ~current
        if not frontier:
            break
        current |= frontier & -frontier  # least-index neighbor
    if current.bit_count() != d + 1:
        return None
    return Subset(n, current)
