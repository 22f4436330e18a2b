"""Finite groups as Cayley tables.

A group of order n is a validated n x n multiplication table over element
indices 0..n-1.  Parametric families (cyclic, dihedral, semidirect products
of cyclic groups, Heisenberg groups, ...) are realized by explicit concrete
models; permutation groups are closed by breadth-first search.  Element
ordering is deterministic everywhere so that all downstream output is
reproducible.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

ORDER_LIMIT = 512  # largest order any group may have
AUTOMORPHISM_ORDER_CAP = 64
AUTOMORPHISM_SEARCH_CAP = 10**6  # most generator-image tuples automorphisms() tries

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class GroupValidationError(ValueError):
    """A candidate Cayley table violates one of the group axioms."""


class GroupSpecError(ValueError):
    """A group specification carries invalid parameters."""


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


# ---------------------------------------------------------------------------
# Group


@dataclass(frozen=True)
class Group:
    """Immutable finite group on indices 0..order-1."""

    name: str
    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    element_names: tuple[str, ...]
    generator_names: dict[str, int] = field(default_factory=dict)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def power(self, x: int, e: int) -> int:
        """x^e, with e taken modulo the order of x, so a huge e costs no
        more than a small one."""
        if e < 0:
            x, e = self.inverse[x], -e
        acc = self.identity
        for _ in range(e % self.element_order(x)):
            acc = self.table[acc][x]
        return acc

    def element_order(self, x: int) -> int:
        k, acc = 1, x
        while acc != self.identity:
            acc = self.table[acc][x]
            k += 1
        return k

    @cached_property
    def is_abelian(self) -> bool:
        t = self.table
        n = self.order
        return all(t[a][b] == t[b][a] for a in range(n) for b in range(a + 1, n))

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.element_names)}

    def element_index(self, name: str) -> int | None:
        return self._name_index.get(name)

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    # Bitmask translation helpers; these dominate every search.

    def left_translate_mask(self, g: int, mask: int) -> int:
        row = self.table[g]
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << row[low.bit_length() - 1]
            mask ^= low
        return out

    def right_translate_mask(self, mask: int, g: int) -> int:
        t = self.table
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << t[low.bit_length() - 1][g]
            mask ^= low
        return out

    def translates(self, mask: int, side: str) -> Iterator[int]:
        """gA (side='left') or Ag (side='right') for g = 0, 1, ..., lazily."""
        if side == "left":
            return (self.left_translate_mask(g, mask) for g in range(self.order))
        if side == "right":
            return (self.right_translate_mask(mask, g) for g in range(self.order))
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def invert_mask(self, mask: int) -> int:
        inv = self.inverse
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << inv[low.bit_length() - 1]
            mask ^= low
        return out

    def closure_mask(self, mask: int) -> int:
        """Mask of the subgroup generated by the elements of ``mask``."""
        t = self.table
        gens = list(bits(mask))
        seen = 1 << self.identity
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                row = t[x]
                for g in gens:
                    y = row[g]
                    b = 1 << y
                    if not seen & b:
                        seen |= b
                        nxt.append(y)
            frontier = nxt
        return seen

    def __repr__(self) -> str:  # pragma: no cover
        return f"Group({self.name!r}, order={self.order})"


# ---------------------------------------------------------------------------
# Table validation


def _check_order(n: int) -> None:
    """Refuse a group of order n above ORDER_LIMIT; called before a table of
    that order is built or validated."""
    if n > ORDER_LIMIT:
        raise GroupSpecError(f"group order {n} exceeds the limit of {ORDER_LIMIT}")


def _index_rows(table: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The table as a square of Python ints in 0..n-1: the first step of
    validation.  Integer types such as numpy's are accepted; floats and
    strings are not."""
    n = len(table)
    if n == 0:
        raise GroupValidationError("empty table")
    try:
        rows = tuple(tuple(map(operator.index, row)) for row in table)
    except TypeError as exc:
        raise GroupValidationError(f"table is not a square of integers: {exc}") from None
    if any(len(row) != n for row in rows):
        raise GroupValidationError("table is not square")
    if min(map(min, rows)) < 0 or max(map(max, rows)) >= n:
        raise GroupValidationError("table entries out of range 0..n-1")
    return rows


def _generating_sequence(table: Sequence[Sequence[int]], identity: int) -> list[int]:
    """Greedy generators: each element in turn that is not yet reached from
    the identity by right multiplication by the earlier generators."""
    n = len(table)
    gens: list[int] = []
    seen = [False] * n
    seen[identity] = True
    reached = [identity]
    for x in range(n):
        if seen[x]:
            continue
        gens.append(x)
        for r in reached:  # the loop also visits the elements appended below
            row = table[r]
            for g in gens:
                y = row[g]
                if not seen[y]:
                    seen[y] = True
                    reached.append(y)
    return gens


def _light_test(rows: tuple[tuple[int, ...], ...], identity: int) -> None:
    """Light's associativity test: (x*s)*y = x*(s*y) for all x, y and every s
    of a generating sequence.  It is exact: the elements s that pass form a
    set closed under products, and every element is a product of the
    generators, so every element passes."""
    for s in _generating_sequence(rows, identity):
        row_s = rows[s]
        times_s = operator.itemgetter(*row_s)  # row of x -> (x*(s*y) for all y)
        for x, row in enumerate(rows):
            row_xs = rows[row[s]]
            if row_xs != times_s(row):
                y = next(y for y, v in enumerate(row_xs) if v != row[row_s[y]])
                raise GroupValidationError(f"associativity fails at triple ({x}, {s}, {y})")


def validate_table(
    table: Sequence[Sequence[int]],
    element_names: Sequence[str] | None = None,
    name: str = "group",
    generator_names: dict[str, int] | None = None,
) -> Group:
    """Check the group axioms on an index table and wrap it as a Group.

    The Latin square, the identity and the inverses are checked in O(n^2),
    associativity by Light's test in O(n^2 k) for k generators.  Raises
    GroupValidationError naming the first violation found, and
    GroupSpecError for a table above the order limit.
    """
    _check_order(len(table))
    rows = _index_rows(table)
    n = len(rows)
    for i, row in enumerate(rows):
        if len(set(row)) != n:
            raise GroupValidationError(f"row {i} is not a permutation of 0..n-1")
    cols = list(zip(*rows))
    for j, col in enumerate(cols):
        if len(set(col)) != n:
            raise GroupValidationError(f"column {j} is not a permutation of 0..n-1")

    ident = tuple(range(n))
    identity = next((e for e in range(n) if rows[e] == ident and cols[e] == ident), -1)
    if identity < 0:
        raise GroupValidationError("no two-sided identity element")
    inverse = tuple(row.index(identity) for row in rows)
    for i, j in enumerate(inverse):
        if rows[j][i] != identity:
            raise GroupValidationError(f"element {i} has no two-sided inverse")

    _light_test(rows, identity)

    names = tuple(element_names) if element_names else tuple(f"x{i}" for i in range(n))
    if len(names) != n:
        raise GroupValidationError("element_names length mismatch")
    if len(set(names)) != n:
        raise GroupValidationError("element names are not distinct")

    return Group(
        name=name,
        order=n,
        table=rows,
        identity=identity,
        inverse=inverse,
        element_names=names,
        generator_names=dict(generator_names or {}),
    )


# ---------------------------------------------------------------------------
# Permutations (image-tuple representation, 0-based points)


def compose_perms(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p first, then q."""
    return tuple(q[p[x]] for x in range(len(p)))


def perm_from_cycles(cycles: Sequence[Sequence[int]], npoints: int) -> tuple[int, ...]:
    """Build an image tuple from 1-based disjoint cycles."""
    images = list(range(npoints))
    for cyc in cycles:
        cyc = list(cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b - 1
    return tuple(images)


def cycles_string(perm: tuple[int, ...]) -> str:
    """Canonical 1-based cycle notation; '1' for the identity."""
    n = len(perm)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        out.append("(" + ",".join(str(v + 1) for v in cyc) + ")")
    return "".join(out) if out else "1"


def close_permutations(generators: Sequence[Sequence[int]], name: str | None = None) -> Group:
    """Close a set of permutations under composition.

    Elements are enumerated by BFS from the identity, multiplying on the
    right by the generators in the given order.  The closure stops with
    GroupSpecError once it outgrows the order limit.
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        raise GroupSpecError("at least one generator required")
    npoints = len(gens[0])
    for g in gens:
        if len(g) != npoints or sorted(g) != list(range(npoints)):
            raise GroupSpecError(f"not a permutation of {npoints} points: {g}")

    ident = tuple(range(npoints))
    elems: list[tuple[int, ...]] = [ident]
    index = {ident: 0}
    head = 0
    while head < len(elems):
        x = elems[head]
        head += 1
        for g in gens:
            y = compose_perms(x, g)
            if y not in index:
                _check_order(len(elems) + 1)
                index[y] = len(elems)
                elems.append(y)

    n = len(elems)
    table = [[index[compose_perms(a, b)] for b in elems] for a in elems]
    names = [cycles_string(p) for p in elems]
    gen_names = {}
    for i, g in enumerate(gens):
        if i < len(_LETTERS):
            gen_names[_LETTERS[i]] = index[g]
    return validate_table(table, names, name or f"perm-group<{n}>", gen_names)


# ---------------------------------------------------------------------------
# Parametric families


def _power_word(letter: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return letter
    return f"{letter}^{e}"


def _join_word(parts: Iterable[str]) -> str:
    parts = [p for p in parts if p]
    return "*".join(parts) if parts else "1"


def _cyclic(n: int) -> Group:
    if n < 1:
        raise GroupSpecError(f"cyclic order must be positive, got {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = [_join_word([_power_word("a", i)]) for i in range(n)]
    gens = {"a": 1} if n > 1 else {}
    return validate_table(table, names, f"C{n}", gens)


def _semidirect(m: int, k: int, t: int, name: str | None = None) -> Group:
    """Pairs (i, j) standing for a^i * b^j, i mod m, j mod k, with
    b^-1 a b = a^t.

    Multiplication: (i, j) * (i', j') = (i + i' * t^(-j), j + j'),
    since b^j a b^(-j) = a^(t^(-j)).
    """
    name = name or f"sd({m},{k},{t})"
    if m < 1 or k < 1:
        raise GroupSpecError("semidirect parameters must be positive")
    t %= max(m, 1)
    if m > 1:
        if math.gcd(t, m) != 1:
            raise GroupSpecError(f"t={t} not invertible mod {m}")
        if pow(t, k, m) != 1:
            raise GroupSpecError(f"t^k != 1 (mod m) for t={t}, k={k}, m={m}")
    s = pow(t, -1, m) if m > 1 else 0
    sp = [pow(s, j, m) if m > 1 else 0 for j in range(k)]
    n = m * k

    def idx(i: int, j: int) -> int:
        return i * k + j

    table = [[0] * n for _ in range(n)]
    for i1 in range(m):
        for j1 in range(k):
            for i2 in range(m):
                for j2 in range(k):
                    i = (i1 + i2 * sp[j1]) % m if m > 1 else 0
                    j = (j1 + j2) % k
                    table[idx(i1, j1)][idx(i2, j2)] = idx(i, j)
    names = [
        _join_word([_power_word("a", i), _power_word("b", j)])
        for i in range(m)
        for j in range(k)
    ]
    gens = {}
    if m > 1:
        gens["a"] = idx(1, 0)
    if k > 1:
        gens["b"] = idx(0, 1)
    return validate_table(table, names, name, gens)


def _dihedral(m: int) -> Group:
    if m < 1:
        raise GroupSpecError("dihedral parameter must be positive")
    return _semidirect(m, 2, m - 1, f"D{m}")


def _heisenberg(p: int) -> Group:
    """Upper unitriangular 3x3 matrices over F_p, as triples (x, y, z)."""
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise GroupSpecError(f"Heisenberg parameter must be prime, got {p}")
    n = p * p * p

    def idx(x: int, y: int, z: int) -> int:
        return (x * p + y) * p + z

    table = [[0] * n for _ in range(n)]
    for x1, y1, z1 in itertools.product(range(p), repeat=3):
        a = idx(x1, y1, z1)
        for x2, y2, z2 in itertools.product(range(p), repeat=3):
            table[a][idx(x2, y2, z2)] = idx(
                (x1 + x2) % p, (y1 + y2) % p, (z1 + z2 + x1 * y2) % p
            )
    names = []
    for x, y, z in itertools.product(range(p), repeat=3):
        w = (z - x * y) % p
        names.append(_join_word([_power_word("a", x), _power_word("b", y), _power_word("c", w)]))
    gens = {"a": idx(1, 0, 0), "b": idx(0, 1, 0), "c": idx(0, 0, 1)}
    return validate_table(table, names, f"Heis{p}", gens)


def _quaternion8() -> Group:
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("1", "1"): ("1", 1), ("i", "i"): ("1", -1), ("j", "j"): ("1", -1),
        ("k", "k"): ("1", -1), ("i", "j"): ("k", 1), ("j", "i"): ("k", -1),
        ("j", "k"): ("i", 1), ("k", "j"): ("i", -1), ("k", "i"): ("j", 1),
        ("i", "k"): ("j", -1),
    }

    def mul(a: str, b: str) -> str:
        sa, ua = (-1, a[1:]) if a.startswith("-") else (1, a)
        sb, ub = (-1, b[1:]) if b.startswith("-") else (1, b)
        if ua == "1":
            u, s = ub, 1
        elif ub == "1":
            u, s = ua, 1
        else:
            u, s = base[(ua, ub)]
        sign = sa * sb * s
        return u if sign == 1 else ("-" + u if not u.startswith("-") else u[1:])

    index = {u: i for i, u in enumerate(units)}
    table = [[index[mul(a, b)] for b in units] for a in units]
    return validate_table(table, units, "Q8", {"i": index["i"], "j": index["j"]})


def _symmetric(k: int) -> Group:
    if k < 1:
        raise GroupSpecError("S_k requires k >= 1")
    if k == 1:
        return close_permutations([(0,)], name="S1")
    gens = [perm_from_cycles([list(range(1, k + 1))], k)]
    if k > 2:
        gens.append(perm_from_cycles([[1, 2]], k))
    return close_permutations(gens, name=f"S{k}")


def _alternating(k: int) -> Group:
    if k < 1:
        raise GroupSpecError("A_k requires k >= 1")
    if k <= 2:
        return close_permutations([tuple(range(max(k, 1)))], name=f"A{k}")
    gens = [perm_from_cycles([[1, 2, 3]], k)]
    if k > 3:
        if k % 2 == 1:
            gens.append(perm_from_cycles([list(range(3, k + 1))], k))
        else:
            gens.append(perm_from_cycles([[1, 2], list(range(3, k + 1))], k))
    return close_permutations(gens, name=f"A{k}")


def _is_letter_named(g: Group) -> bool:
    if not all(len(s) == 1 and s in _LETTERS for s in g.generator_names):
        return False
    allowed = set(_LETTERS + "0123456789^*-")
    return all(nm == "1" or set(nm) <= allowed for nm in g.element_names)


def _direct_product(g1: Group, g2: Group, name: str | None = None) -> Group:
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    _check_order(n)

    def idx(i: int, j: int) -> int:
        return i * n2 + j

    t1, t2 = g1.table, g2.table
    table = [
        [idx(t1[i1][i2], t2[j1][j2]) for i2 in range(n1) for j2 in range(n2)]
        for i1 in range(n1)
        for j1 in range(n2)
    ]

    letters_ok = _is_letter_named(g1) and _is_letter_named(g2)
    k1 = len(g1.generator_names)
    k2 = len(g2.generator_names)
    if letters_ok and k1 + k2 <= len(_LETTERS):
        map1 = dict(zip(g1.generator_names, _LETTERS[:k1]))
        map2 = dict(zip(g2.generator_names, _LETTERS[k1 : k1 + k2]))
        tr1 = str.maketrans(map1)
        tr2 = str.maketrans(map2)

        def rename(nm: str, tr) -> str:
            return "" if nm == "1" else nm.translate(tr)

        names = [
            _join_word([rename(g1.element_names[i], tr1), rename(g2.element_names[j], tr2)])
            for i in range(n1)
            for j in range(n2)
        ]
        gen_names = {map1[s]: idx(i, g2.identity) for s, i in g1.generator_names.items()}
        gen_names.update({map2[s]: idx(g1.identity, j) for s, j in g2.generator_names.items()})
    else:
        names = [
            f"({g1.element_names[i]},{g2.element_names[j]})"
            for i in range(n1)
            for j in range(n2)
        ]
        gen_names = {}

    return validate_table(table, names, name or f"{g1.name}x{g2.name}", gen_names)


def load_group_file(path: str | Path) -> Group:
    """Load a group from its JSON file format and validate it.

    Format: {"name": str, "order": n, "elements": [str], "table": [[int]],
    optional "generators": {name: index}}.
    """
    data = json.loads(Path(path).read_text())
    table = data["table"]
    names = data.get("elements")
    order = data.get("order")
    if order is not None and order != len(table):
        raise GroupValidationError("declared order does not match table size")
    return validate_table(
        table,
        names,
        data.get("name", Path(path).stem),
        data.get("generators"),
    )


def save_group_file(group: Group, path: str | Path) -> None:
    payload = {
        "name": group.name,
        "order": group.order,
        "elements": list(group.element_names),
        "table": [list(row) for row in group.table],
        "generators": dict(group.generator_names),
    }
    Path(path).write_text(json.dumps(payload, indent=1))


# ---------------------------------------------------------------------------
# Specifications


@dataclass(frozen=True)
class GroupSpec:
    """A group to build: a family of FAMILIES and its parameters, e.g.
    GroupSpec("sd", (7, 3, 2)).  The parameters of ``x`` are two specs, of
    ``file`` a path and of ``perm`` a tuple of 0-based image tuples."""

    family: str
    params: tuple = ()


def _sym_order(k: int) -> int:
    """|S_k|, with k taken as 20 at most: already far above the order limit,
    and a huge k then costs no huge factorial."""
    return math.factorial(min(max(k, 1), 20))


def _product_order(left: GroupSpec, right: GroupSpec) -> int | None:
    a, b = _spec_order(left), _spec_order(right)
    return None if a is None or b is None else a * b


def _product(left: GroupSpec, right: GroupSpec) -> Group:
    return _direct_product(build_group(left), build_group(right))


# family: (spec-string template, order from the parameters or None when only
# the contents tell it, builder).  notation reads its atom grammar from the
# templates of the families with integer parameters.
FAMILIES: dict[str, tuple[str, Callable[..., int | None] | None, Callable[..., Group]]] = {
    "C": ("C{}", lambda n: n, _cyclic),
    "D": ("D{}", lambda m: 2 * m, _dihedral),
    "Q8": ("Q8", lambda: 8, _quaternion8),
    "S": ("S{}", _sym_order, _symmetric),
    "A": ("A{}", lambda k: max(_sym_order(k) // 2, 1), _alternating),
    "sd": ("sd({},{},{})", lambda m, k, t: m * k, _semidirect),
    "Heis": ("Heis{}", lambda p: p**3, _heisenberg),
    "x": ("{}x{}", _product_order, _product),
    "file": ("file:{}", None, load_group_file),
    "perm": ("perm:[{}]", None, close_permutations),
}


def _family(spec: GroupSpec) -> tuple[str, Any, Callable[..., Group]]:
    try:
        return FAMILIES[spec.family]
    except KeyError:
        raise GroupSpecError(f"unknown group family {spec.family!r}") from None


def _param_string(p: Any) -> str:
    if isinstance(p, GroupSpec):
        return spec_string(p)
    if isinstance(p, tuple):  # the permutations of a perm: spec
        return ";".join(map(cycles_string, p))
    return str(p)


def spec_string(spec: GroupSpec) -> str:
    """The spec string of ``spec``, as notation.parse_group_spec reads it."""
    return _family(spec)[0].format(*map(_param_string, spec.params))


def _spec_order(spec: GroupSpec) -> int | None:
    """The order of the group ``spec`` describes, computed without building
    it; None for file and permutation specs."""
    order = _family(spec)[1]
    return None if order is None else order(*spec.params)


def build_group(spec: GroupSpec) -> Group:
    """Construct and validate the group described by ``spec``.  A group of
    more than ORDER_LIMIT elements is refused with GroupSpecError before
    its table is built."""
    order = _spec_order(spec)
    if order is not None and order > ORDER_LIMIT:
        raise GroupSpecError(f"{spec_string(spec)} has more than {ORDER_LIMIT} elements")
    return _family(spec)[2](*spec.params)


# ---------------------------------------------------------------------------
# Subgroups and transversals


@dataclass(frozen=True)
class Subgroup:
    parent: Group
    mask: int

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> list[int]:
        return list(bits(self.mask))


@dataclass(frozen=True)
class Transversal:
    parent: Group
    subgroup: Subgroup
    reps_mask: int
    side: str  # "right" or "left"

    def indices(self) -> list[int]:
        return list(bits(self.reps_mask))


def generated_subgroup(group: Group, elements: Iterable[int] | int) -> Subgroup:
    """Smallest subgroup containing the given elements (mask or iterable)."""
    mask = elements if isinstance(elements, int) else mask_of(elements)
    if mask == 0:
        raise ValueError("generated_subgroup requires a nonempty generating set")
    return Subgroup(group, group.closure_mask(mask))


def subgroup_from_mask(group: Group, mask: int) -> Subgroup:
    """Wrap a mask as a Subgroup after checking closure."""
    if group.closure_mask(mask) != mask or not mask & (1 << group.identity):
        raise ValueError("mask is not a subgroup")
    return Subgroup(group, mask)


def transversal(group: Group, subgroup: Subgroup, side: str = "right") -> Transversal:
    """Deterministic coset transversal: scan element indices, keep the first
    representative of each uncovered coset."""
    covered = 0
    reps = 0
    # the right coset of x is Hx, the right translate of H
    for x, coset in enumerate(group.translates(subgroup.mask, side)):
        if not covered >> x & 1:
            reps |= 1 << x
            covered |= coset
    return Transversal(group, subgroup, reps, side)


def right_transversal(group: Group, subgroup: Subgroup) -> Transversal:
    return transversal(group, subgroup, "right")


def left_transversal(group: Group, subgroup: Subgroup) -> Transversal:
    return transversal(group, subgroup, "left")


def subgroup_as_group(group: Group, subgroup: Subgroup) -> tuple[Group, list[int]]:
    """Re-index a subgroup as a standalone Group.

    Returns the new group and the list mapping new indices to parent indices.
    """
    elems = subgroup.indices()
    pos = {x: i for i, x in enumerate(elems)}
    table = [[pos[group.table[a][b]] for b in elems] for a in elems]
    names = [group.element_names[x] for x in elems]
    gens = {s: pos[i] for s, i in group.generator_names.items() if i in pos}
    sub = validate_table(table, names, f"{group.name}-sub<{len(elems)}>", gens)
    return sub, elems


def all_subgroups(group: Group) -> list[Subgroup]:
    """All subgroups, found by closing unions of smaller subgroups.

    Exponential in the worst case; intended for small orders.
    """
    seen = {1 << group.identity}
    for x in range(group.order):
        seen.add(group.closure_mask((1 << group.identity) | (1 << x)))
    grown = True
    while grown:
        grown = False
        current = sorted(seen)
        for h, k in itertools.combinations(current, 2):
            m = group.closure_mask(h | k)
            if m not in seen:
                seen.add(m)
                grown = True
    return [Subgroup(group, m) for m in sorted(seen)]


# ---------------------------------------------------------------------------
# Automorphisms


def automorphisms(group: Group) -> list[tuple[int, ...]]:
    """All automorphisms as permutations of element indices, sorted
    lexicographically (the identity map comes first).

    Raises ValueError above order AUTOMORPHISM_ORDER_CAP, and when the
    search would try more than AUTOMORPHISM_SEARCH_CAP tuples of generator
    images (C2^5 needs 31^5, about 2.9e7).
    """
    n = group.order
    if n > AUTOMORPHISM_ORDER_CAP:
        raise ValueError(f"automorphism computation capped at order {AUTOMORPHISM_ORDER_CAP}")
    gens = _generating_sequence(group.table, group.identity)
    if not gens:
        return [tuple(range(n))]

    # Express every element as parent * generator, BFS from the identity.
    parent = [-1] * n
    via = [-1] * n
    order_bfs = [group.identity]
    seen = 1 << group.identity
    head = 0
    while head < len(order_bfs):
        x = order_bfs[head]
        head += 1
        for gi, g in enumerate(gens):
            y = group.table[x][g]
            if not seen & (1 << y):
                seen |= 1 << y
                parent[y] = x
                via[y] = gi
                order_bfs.append(y)

    orders = [group.element_order(x) for x in range(n)]
    cands = [[y for y in range(n) if orders[y] == orders[g]] for g in gens]
    tuples = math.prod(len(c) for c in cands)
    if tuples > AUTOMORPHISM_SEARCH_CAP:
        raise ValueError(
            f"automorphism search needs {tuples} generator-image tuples, "
            f"over the cap of {AUTOMORPHISM_SEARCH_CAP}"
        )

    table = group.table
    found: list[tuple[int, ...]] = []

    def try_images(images: list[int]) -> None:
        phi = [-1] * n
        phi[group.identity] = group.identity
        used = 1 << group.identity
        for x in order_bfs[1:]:
            y = table[phi[parent[x]]][images[via[x]]]
            if used & (1 << y):
                return
            phi[x] = y
            used |= 1 << y
        # phi is a bijection; phi(xs) = phi(x)phi(s) for the generators s
        # alone makes it a homomorphism, as they generate the group.
        for x in range(n):
            rx = table[x]
            rpx = table[phi[x]]
            for s, ps in zip(gens, images):
                if phi[rx[s]] != rpx[ps]:
                    return
        found.append(tuple(phi))

    for images in itertools.product(*cands):
        try_images(list(images))
    found.sort()
    return found


# ---------------------------------------------------------------------------
# Built-in small-group catalog (every group of order <= 15, up to isomorphism)

SMALL_GROUP_CATALOG: tuple[tuple[str, str], ...] = (
    ("C1", "C1"),
    ("C2", "C2"),
    ("C3", "C3"),
    ("C4", "C4"),
    ("C2xC2", "C2xC2"),
    ("C5", "C5"),
    ("C6", "C6"),
    ("S3", "S3"),
    ("C7", "C7"),
    ("C8", "C8"),
    ("C4xC2", "C4xC2"),
    ("C2xC2xC2", "C2xC2xC2"),
    ("D4", "D4"),
    ("Q8", "Q8"),
    ("C9", "C9"),
    ("C3xC3", "C3xC3"),
    ("C10", "C10"),
    ("D5", "D5"),
    ("C11", "C11"),
    ("C12", "C12"),
    ("C6xC2", "C6xC2"),
    ("D6", "D6"),
    ("A4", "A4"),
    ("C3:C4", "sd(3,4,2)"),
    ("C13", "C13"),
    ("C14", "C14"),
    ("D7", "D7"),
    ("C15", "C15"),
)
