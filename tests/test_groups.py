"""Group construction, validation, subgroups, transversals, automorphisms."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from subsetfactor.groups import (
    SMALL_GROUP_CATALOG,
    Group,
    GroupSpec,
    GroupSpecError,
    GroupValidationError,
    all_subgroups,
    automorphisms,
    build_group,
    close_permutations,
    generated_subgroup,
    left_transversal,
    load_group_file,
    right_transversal,
    save_group_file,
    subgroup_as_group,
    validate_table,
)
from subsetfactor.notation import group_from_string, parse_element_word


def mul(g: Group, *words: str) -> int:
    acc = g.identity
    for w in words:
        acc = g.mul(acc, parse_element_word(g, w))
    return acc


# ---------------------------------------------------------------------------
# Construction and validation


def test_cyclic_infrastructure():
    g = group_from_string("C4")
    assert g.order == 4
    a = parse_element_word(g, "a")
    assert g.power(a, 4) == g.identity
    assert g.power(a, 2) != g.identity
    assert g.is_abelian


def test_cyclic_trivial_group():
    g = group_from_string("C1")
    assert g.order == 1
    assert g.element_names == ("1",)


@pytest.mark.parametrize("name,spec", SMALL_GROUP_CATALOG)
def test_catalog_tables_validate(name, spec):
    g = group_from_string(spec)
    validate_table(g.table)  # raises on failure


def test_catalog_is_all_groups_up_to_order_15():
    # number of groups of each order 1..15: classical values
    counts = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2,
              11: 1, 12: 5, 13: 1, 14: 2, 15: 1}
    seen: dict[int, int] = {}
    for _, spec in SMALL_GROUP_CATALOG:
        g = group_from_string(spec)
        seen[g.order] = seen.get(g.order, 0) + 1
    assert seen == counts


def test_validate_rejects_broken_table():
    g = group_from_string("C4")
    bad = [list(row) for row in g.table]
    bad[1][1] = 1  # breaks the Latin-square property
    with pytest.raises(ValueError):
        validate_table(bad)


def test_validate_rejects_nonassociative_latin_square():
    # a Latin square with two-sided identity that is not a group table
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError):
        validate_table(table)


# ---------------------------------------------------------------------------
# Defining relations per family


def test_dihedral_relations():
    g = group_from_string("D7")
    a, b = parse_element_word(g, "a"), parse_element_word(g, "b")
    assert g.element_order(a) == 7
    assert g.element_order(b) == 2
    conj = g.mul(g.mul(g.inverse[b], a), b)
    assert conj == g.inverse[a]


@pytest.mark.parametrize("m,k,t", [(7, 3, 2), (13, 3, 3), (11, 5, 4), (3, 4, 2), (5, 4, 2)])
def test_semidirect_relations(m, k, t):
    g = group_from_string(f"sd({m},{k},{t})")
    a, b = parse_element_word(g, "a"), parse_element_word(g, "b")
    assert g.element_order(a) == m
    assert g.element_order(b) == k
    conj = g.mul(g.mul(g.inverse[b], a), b)
    assert conj == g.power(a, t)


def test_semidirect_names_match_multiplication():
    g = group_from_string("sd(7,3,2)")
    a, b = parse_element_word(g, "a"), parse_element_word(g, "b")
    for i in range(7):
        for j in range(3):
            x = g.mul(g.power(a, i), g.power(b, j))
            assert parse_element_word(g, g.element_names[x]) == x


def test_semidirect_rejects_bad_parameters():
    with pytest.raises(GroupSpecError):
        build_group(GroupSpec("sd", (6, 2, 2)))  # gcd(t, m) != 1
    with pytest.raises(GroupSpecError):
        build_group(GroupSpec("sd", (7, 3, 3)))  # t^k != 1 mod m


def test_quaternion_relations():
    g = group_from_string("Q8")
    i, j = parse_element_word(g, "i"), parse_element_word(g, "j")
    assert g.element_order(i) == 4
    assert g.mul(i, i) == g.mul(j, j)  # i^2 = j^2 = -1
    assert g.mul(i, j) != g.mul(j, i)
    k = g.mul(i, j)
    assert g.mul(k, k) == g.mul(i, i)


def test_heisenberg_exponent_three():
    g = group_from_string("Heis3")
    assert g.order == 27
    assert not g.is_abelian
    for x in range(27):
        assert g.element_order(x) in (1, 3)


def test_symmetric_and_alternating_orders():
    assert group_from_string("S3").order == 6
    assert group_from_string("S4").order == 24
    assert group_from_string("A4").order == 12
    assert group_from_string("A5").order == 60


def test_symmetric_composition_convention():
    g = group_from_string("S3")
    # (1,2) then (2,3) maps 1 -> 2 -> 3, so the product is (1,3,2)
    assert mul(g, "(1,2)", "(2,3)") == parse_element_word(g, "(1,3,2)")


def test_direct_product_component_renaming():
    g = group_from_string("C2xC2xC2")
    assert g.order == 8
    names = set(g.generator_names)
    assert names == {"a", "b", "c"}
    for w in ("a", "b", "c"):
        assert g.element_order(parse_element_word(g, w)) == 2


def test_direct_product_mixed():
    g = group_from_string("C4xC2")
    a, b = parse_element_word(g, "a"), parse_element_word(g, "b")
    assert g.element_order(a) == 4
    assert g.element_order(b) == 2
    assert g.is_abelian


# ---------------------------------------------------------------------------
# Group-element basics (property-style over the catalog)


@pytest.mark.parametrize("name,spec", SMALL_GROUP_CATALOG)
def test_inverse_and_identity_laws(name, spec):
    g = group_from_string(spec)
    e = g.identity
    for x in range(g.order):
        assert g.mul(x, e) == x == g.mul(e, x)
        assert g.mul(x, g.inverse[x]) == e == g.mul(g.inverse[x], x)


def test_element_order_divides_group_order():
    for _, spec in SMALL_GROUP_CATALOG:
        g = group_from_string(spec)
        for x in range(g.order):
            assert g.order % g.element_order(x) == 0


# ---------------------------------------------------------------------------
# Subgroups, transversals


def test_generated_subgroup_cyclic_closure():
    g = group_from_string("S3")
    h = generated_subgroup(g, [parse_element_word(g, "(1,2,3)")])
    assert h.order == 3


def test_all_subgroups_counts():
    assert len(all_subgroups(group_from_string("C6"))) == 4
    assert len(all_subgroups(group_from_string("S3"))) == 6
    assert len(all_subgroups(group_from_string("A4"))) == 10
    assert len(all_subgroups(group_from_string("Q8"))) == 6


@pytest.mark.parametrize("spec", ["S3", "D4", "A4", "C12"])
def test_transversals_factor_the_group(spec):
    g = group_from_string(spec)
    for h in all_subgroups(g):
        right = right_transversal(g, h)  # G = H . X
        left = left_transversal(g, h)  # G = Y . H
        assert right.reps_mask.bit_count() == g.order // h.order
        # every element has a unique h*x representation
        seen = set()
        for hh in range(g.order):
            if not h.mask >> hh & 1:
                continue
            for x in range(g.order):
                if not right.reps_mask >> x & 1:
                    continue
                seen.add(g.mul(hh, x))
        assert len(seen) == g.order
        seen = set()
        for y in range(g.order):
            if not left.reps_mask >> y & 1:
                continue
            for hh in range(g.order):
                if not h.mask >> hh & 1:
                    continue
                seen.add(g.mul(y, hh))
        assert len(seen) == g.order


def test_subgroup_as_group_roundtrip():
    g = group_from_string("S4")
    h = generated_subgroup(g, [parse_element_word(g, "(1,2,3)"), parse_element_word(g, "(1,2)")])
    assert h.order == 6
    sub, elems = subgroup_as_group(g, h)
    assert sub.order == 6
    validate_table(sub.table)
    # multiplication commutes with the embedding
    for i in range(6):
        for j in range(6):
            assert elems[sub.mul(i, j)] == g.mul(elems[i], elems[j])


# ---------------------------------------------------------------------------
# Automorphisms


@pytest.mark.parametrize(
    "spec,count",
    [
        ("C4", 2),
        ("C2xC2", 6),
        ("C5", 4),
        ("S3", 6),
        ("Q8", 24),
        ("C2xC2xC2", 168),
        ("D4", 8),
        ("A4", 24),
        ("C3xC3", 48),
        ("Q8xC2", 192),
        ("C2xC2xC2xC2", 20160),
    ],
)
def test_automorphism_group_sizes(spec, count):
    g = group_from_string(spec)
    autos = automorphisms(g)
    assert len(autos) == count
    for phi in autos:
        assert phi[g.identity] == g.identity
        assert sorted(phi) == list(range(g.order))


def test_automorphism_search_cap():
    # C4xC4xC4 tries 1.76e5 generator-image tuples, under the cap.
    assert len(automorphisms(group_from_string("C4xC4xC4"))) == 86016
    # C2^5 would try 31^5, about 2.9e7: refused before the search starts.
    with pytest.raises(ValueError, match="generator-image tuples"):
        automorphisms(group_from_string("C2xC2xC2xC2xC2"))


# ---------------------------------------------------------------------------
# File round trip


def test_group_file_roundtrip(tmp_path):
    g = group_from_string("D4")
    path = tmp_path / "d4.json"
    save_group_file(g, path)
    back = load_group_file(path)
    assert back.order == g.order
    assert back.table == g.table
    assert back.element_names == g.element_names


def test_load_rejects_invalid_table(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "table": [[0, 1], [1, 1]]}))
    with pytest.raises(ValueError):
        load_group_file(path)


def test_permutation_closure_stops_at_order_limit():
    s7_gens = [tuple(range(1, 7)) + (0,), (1, 0, 2, 3, 4, 5, 6)]
    with pytest.raises(GroupSpecError, match="512"):
        close_permutations(s7_gens)


def test_validate_accepts_numpy_large_cyclic():
    # numpy integers are accepted as table entries, and come back as ints
    g = group_from_string("C64")
    assert validate_table(np.array(g.table)).table == g.table


@pytest.mark.parametrize("table", [[[0, 1.7], [1, 0]], [["0", "1"], ["1", "0"]], [[0.0, 1.0], [1.0, 0.0]]])
def test_validate_rejects_non_integer_entries(table):
    with pytest.raises(GroupValidationError):
        validate_table(table)


def test_power_reduces_huge_exponents():
    g = group_from_string("C4")
    a = parse_element_word(g, "a")
    assert parse_element_word(g, "a^99999999999999") == g.power(a, 3)
    assert parse_element_word(g, "a^-99999999999999") == a
    assert g.power(a, -1) == g.power(a, 3) and g.power(a, 0) == g.identity


# ---------------------------------------------------------------------------
# Validation against a brute-force check of every triple


def brute_is_group(t) -> bool:
    """The group axioms checked directly: a Latin square with a two-sided
    identity, two-sided inverses, and (xy)z = x(yz) on every triple."""
    n = len(t)
    full = set(range(n))
    if any(set(row) != full for row in t) or any(set(col) != full for col in zip(*t)):
        return False
    ids = [e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))]
    if not ids:
        return False
    e = ids[0]
    if not all(any(t[x][y] == e == t[y][x] for y in range(n)) for x in range(n)):
        return False
    return all(t[t[x][y]][z] == t[x][t[y][z]] for x in range(n) for y in range(n) for z in range(n))


def validates(t) -> bool:
    try:
        validate_table(t)
    except GroupValidationError:
        return False
    return True


def reduced_latin_squares(n: int):
    """Every n x n Latin square whose first row and column are 0..n-1."""

    def fill(square: list[list[int]], row: list[int]):
        if len(row) == n:
            square = square + [row]
            if len(square) == n:
                yield [tuple(r) for r in square]
            else:
                yield from fill(square, [len(square)])
            return
        c = len(row)
        for v in range(n):
            if v not in row and all(r[c] != v for r in square):
                yield from fill(square, row + [v])

    yield from fill([list(range(n))], [1])


@pytest.mark.parametrize("n,squares,groups", [(4, 4, 4), (5, 56, 6)])
def test_light_test_matches_brute_force_on_all_small_latin_squares(n, squares, groups):
    found = list(reduced_latin_squares(n))
    assert len(found) == squares
    verdicts = [brute_is_group(t) for t in found]
    assert sum(verdicts) == groups
    assert [validates(t) for t in found] == verdicts


def test_light_test_matches_brute_force_on_order_6_sample():
    found = list(reduced_latin_squares(6))
    assert len(found) == 9408
    for t in random.Random(6).sample(found, 300):
        assert validates(t) == brute_is_group(t)


@pytest.mark.parametrize(
    "spec", ["C6", "D5", "Q8", "S3", "A4", "sd(7,3,2)", "Heis3", "C2xS3", "perm:[(1,2,3,4);(1,2)]"]
)
def test_family_tables_pass_brute_force(spec):
    assert brute_is_group(group_from_string(spec).table)


def test_file_table_passes_brute_force(tmp_path):
    path = tmp_path / "d4.json"
    save_group_file(group_from_string("D4"), path)
    assert brute_is_group(group_from_string(f"file:{path}").table)
