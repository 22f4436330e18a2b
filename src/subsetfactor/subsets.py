"""Dense subsets of a finite group and the primitive set operations:
products with directness certificates, translates, inversion, the Lagrange
divisibility test, and canonical forms under translation symmetry.

Subsets are bit vectors packed into Python integers (bit i = element i).
Subset order everywhere means the integer value of the mask, so "least"
prefers small element indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .groups import Group, automorphisms, bits, mask_of

CANON_LEVELS = ("L1", "L2", "L3")


@dataclass(frozen=True, order=True)
class Subset:
    """Subset of the elements of a group of the given order."""

    parent_order: int
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >> self.parent_order:
            raise ValueError("subset mask out of range for parent order")

    @classmethod
    def from_indices(cls, parent_order: int, indices: Iterable[int]) -> "Subset":
        return cls(parent_order, mask_of(indices))

    @classmethod
    def full(cls, parent_order: int) -> "Subset":
        return cls(parent_order, (1 << parent_order) - 1)

    def indices(self) -> list[int]:
        return list(bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, i: int) -> bool:
        return bool(self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return bits(self.mask)

    def __bool__(self) -> bool:
        return self.mask != 0


def _check_parent(group: Group, *sets: Subset) -> None:
    for s in sets:
        if s.parent_order != group.order:
            raise ValueError(
                f"subset over order {s.parent_order} used with group of order {group.order}"
            )


@dataclass(frozen=True)
class ProductResult:
    """The set product AB with a directness verdict.

    ``collision`` is the first (in (a, b) scan order) witness of an element
    with two factorizations: (x, (a, b), (a2, b2)).
    """

    product: Subset
    direct: bool
    collision: tuple[int, tuple[int, int], tuple[int, int]] | None


def product(group: Group, a: Subset, b: Subset) -> ProductResult:
    """Compute AB = {xy | x in A, y in B} and decide whether it is direct."""
    _check_parent(group, a, b)
    table = group.table
    seen: dict[int, tuple[int, int]] = {}
    collision = None
    out = 0
    for x in a:
        row = table[x]
        for y in b:
            z = row[y]
            if z in seen:
                if collision is None:
                    collision = (z, seen[z], (x, y))
            else:
                seen[z] = (x, y)
                out |= 1 << z
    return ProductResult(Subset(group.order, out), collision is None, collision)


def product_mask(group: Group, amask: int, bmask: int) -> int:
    """Mask of AB, computed as a union of translates of the smaller side."""
    if amask.bit_count() <= bmask.bit_count():
        out = 0
        for x in bits(amask):
            out |= group.left_translate_mask(x, bmask)
        return out
    out = 0
    for y in bits(bmask):
        out |= group.right_translate_mask(amask, y)
    return out


def verify_direct_factorization(group: Group, a: Subset, b: Subset) -> bool:
    """True iff G = A . B (the product covers G and |A||B| = |G|).

    This is the independent multiply-and-count verifier used to re-check
    complements produced by the search engine.
    """
    _check_parent(group, a, b)
    if len(a) * len(b) != group.order:
        return False
    return product_mask(group, a.mask, b.mask) == group.full_mask


def translate(group: Group, a: Subset, g: int, side: str = "left") -> Subset:
    """gA (side='left') or Ag (side='right')."""
    _check_parent(group, a)
    if side == "left":
        return Subset(group.order, group.left_translate_mask(g, a.mask))
    if side == "right":
        return Subset(group.order, group.right_translate_mask(a.mask, g))
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def invert_set(group: Group, a: Subset) -> Subset:
    """{x^-1 : x in A}."""
    _check_parent(group, a)
    return Subset(group.order, group.invert_mask(a.mask))


def is_lagrange(group: Group, a: Subset) -> bool:
    """True iff |A| divides |G|; the empty set is rejected."""
    _check_parent(group, a)
    k = len(a)
    if k == 0:
        raise ValueError("the empty set has no Lagrange status")
    return group.order % k == 0


def _identity_stabilizer(group: Group, level: str) -> tuple[tuple[int, ...], ...]:
    """The maps that fix the identity and keep the symmetry orbits of
    ``level`` (L2 or L3): the inner automorphisms (L2) or all automorphisms
    (L3), each also composed with inversion, as element permutations,
    deduplicated and without the identity map.  Computed on first use and
    stored on the group instance, as ``cached_property`` stores its values.
    """
    key = f"_identity_stabilizer_{level}"
    cached = group.__dict__.get(key)
    if cached is not None:
        return cached
    if level not in ("L2", "L3"):
        raise ValueError(f"unknown canonical level {level!r}")
    n, table, inverse = group.order, group.table, group.inverse
    if level == "L2":
        maps = {tuple(table[table[inverse[h]][x]][h] for x in range(n)) for h in range(n)}
    else:
        maps = set(automorphisms(group))
    maps |= {tuple(inverse[y] for y in phi) for phi in maps}
    maps.discard(tuple(range(n)))
    cached = group.__dict__[key] = tuple(sorted(maps))
    return cached


def canonical_form(group: Group, a: Subset, level: str = "L1") -> Subset:
    """Distinguished representative of A's symmetry orbit: its least member
    that contains the identity.

    L1: the orbit under left translation.
    L2: the orbit {gA^e h} under two-sided translation and inversion.
    L3: the orbit {g phi(A^e) h}, with phi running over all automorphisms.

    Orbit-stabilizer identity: a map x -> g phi(x^e) h that sends some
    a in A to the identity is x -> sigma(a^-1 x), where sigma fixes the
    identity and is an automorphism (inner for L2, the identity for L1),
    possibly composed with inversion.  So the identity-containing members
    of the orbit are exactly the sets sigma(a^-1 A), a in A, and only the
    |A| left translates a^-1 A and their images under that stabilizer are
    minimized over.
    """
    _check_parent(group, a)
    if not a:
        raise ValueError("canonical_form requires a nonempty subset")
    mask, inverse = a.mask, group.inverse
    translates = []
    best = 1 << group.order  # above every mask
    for x in bits(mask):
        t = group.left_translate_mask(inverse[x], mask)
        translates.append(t)
        if t < best:
            best = t
    if level == "L1":
        return Subset(group.order, best)
    stabilizer = _identity_stabilizer(group, level)
    for t in set(translates):
        elements = list(bits(t))
        for sigma in stabilizer:
            image = 0
            for x in elements:
                image |= 1 << sigma[x]
            if image < best:
                best = image
    return Subset(group.order, best)
