"""Subset algebra: products, direct factorizations, canonical forms."""

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetfactor import subsets
from subsetfactor.cfs import enumerate_lagrange_subsets
from subsetfactor.notation import group_from_string, parse_subset
from subsetfactor.subsets import (
    Subset,
    canonical_form,
    invert_set,
    is_lagrange,
    product,
    translate,
    verify_direct_factorization,
)

GROUP_POOL = ["C4", "C6", "S3", "C2xC2", "Q8", "D4", "C3xC3", "A4"]
_GROUPS = {spec: group_from_string(spec) for spec in GROUP_POOL}


@st.composite
def group_and_subset(draw, nonempty=True):
    g = _GROUPS[draw(st.sampled_from(GROUP_POOL))]
    lo = 1 if nonempty else 0
    mask = draw(st.integers(min_value=lo, max_value=(1 << g.order) - 1))
    return g, Subset(g.order, mask)


@st.composite
def group_and_two_subsets(draw):
    g = _GROUPS[draw(st.sampled_from(GROUP_POOL))]
    top = (1 << g.order) - 1
    a = draw(st.integers(min_value=1, max_value=top))
    b = draw(st.integers(min_value=1, max_value=top))
    return g, Subset(g.order, a), Subset(g.order, b)


# ---------------------------------------------------------------------------
# Basics


def test_subset_container_protocol():
    g = _GROUPS["C4"]
    s = Subset.from_indices(g.order, [0, 2])
    assert len(s) == 2
    assert 0 in s and 2 in s and 1 not in s
    assert list(s) == [0, 2]


def test_from_indices_rejects_out_of_range():
    with pytest.raises(ValueError):
        Subset.from_indices(4, [4])


def test_is_lagrange():
    g = _GROUPS["C6"]
    assert is_lagrange(g, parse_subset(g, "1,a"))
    assert is_lagrange(g, parse_subset(g, "1,a,a^2"))
    assert not is_lagrange(g, parse_subset(g, "1,a,a^2,a^3"))
    with pytest.raises(ValueError):
        is_lagrange(g, Subset(6, 0))


# ---------------------------------------------------------------------------
# Products


def test_product_direct_example():
    g = _GROUPS["C4"]
    a = parse_subset(g, "1,a")
    b = parse_subset(g, "1,a^2")
    res = product(g, a, b)
    assert res.direct
    assert res.product.mask == (1 << g.order) - 1


def test_product_collision_reported():
    g = _GROUPS["C4"]
    a = parse_subset(g, "1,a")
    b = parse_subset(g, "1,a")  # 1*a = a*1
    res = product(g, a, b)
    assert not res.direct
    assert res.collision is not None


@given(group_and_two_subsets())
@settings(max_examples=200, deadline=None)
def test_product_matches_naive(data):
    g, a, b = data
    res = product(g, a, b)
    pairs = {(x, y) for x in a for y in b}
    elements = {g.mul(x, y) for x, y in pairs}
    assert set(res.product) == elements
    assert res.direct == (len(pairs) == len(elements))


@given(group_and_two_subsets())
@settings(max_examples=200, deadline=None)
def test_verify_direct_factorization_definition(data):
    g, a, b = data
    res = product(g, a, b)
    expected = len(a) * len(b) == g.order and res.direct and len(set(res.product)) == g.order
    assert verify_direct_factorization(g, a, b) == expected


# ---------------------------------------------------------------------------
# Translation / inversion


@given(group_and_subset(), st.integers(min_value=0, max_value=63))
@settings(max_examples=200, deadline=None)
def test_translate_preserves_size(data, seed):
    g, a = data
    x = seed % g.order
    for side in ("left", "right"):
        t = translate(g, a, x, side)
        assert len(t) == len(a)


@given(group_and_subset())
@settings(max_examples=200, deadline=None)
def test_inversion_is_involutive(data):
    g, a = data
    assert invert_set(g, invert_set(g, a)).mask == a.mask


@given(group_and_subset(), st.integers(min_value=0, max_value=63))
@settings(max_examples=100, deadline=None)
def test_left_translate_then_inverse_is_right_translate(data, seed):
    g, a = data
    x = seed % g.order
    lhs = invert_set(g, translate(g, a, x, "left"))  # (xA)^-1 = A^-1 x^-1
    rhs = translate(g, invert_set(g, a), g.inverse[x], "right")
    assert lhs.mask == rhs.mask


# ---------------------------------------------------------------------------
# Canonical forms


@given(group_and_subset())
@settings(max_examples=150, deadline=None)
def test_l1_canonical_is_idempotent_and_minimal(data):
    g, a = data
    c = canonical_form(g, a, "L1")
    assert canonical_form(g, c, "L1").mask == c.mask
    # canonical form contains the identity for nonempty sets
    assert g.identity in c
    if g.identity in a:
        assert c.mask <= a.mask


@given(group_and_subset(), st.integers(min_value=0, max_value=63))
@settings(max_examples=150, deadline=None)
def test_l1_invariant_under_left_translation(data, seed):
    g, a = data
    x = seed % g.order
    t = translate(g, a, x, "left")
    assert canonical_form(g, a, "L1").mask == canonical_form(g, t, "L1").mask


@given(group_and_subset())
@settings(max_examples=100, deadline=None)
def test_l2_canonical_idempotent_and_below_l1(data):
    g, a = data
    c2 = canonical_form(g, a, "L2")
    assert canonical_form(g, c2, "L2").mask == c2.mask
    assert c2.mask <= canonical_form(g, a, "L1").mask


@given(group_and_subset())
@settings(max_examples=100, deadline=None)
def test_l2_invariant_under_inversion_and_two_sided_translation(data):
    g, a = data
    c = canonical_form(g, a, "L2").mask
    assert canonical_form(g, invert_set(g, a), "L2").mask == c
    for x in (0, g.order - 1):
        for side in ("left", "right"):
            assert canonical_form(g, translate(g, a, x, side), "L2").mask == c


@given(group_and_subset())
@settings(max_examples=60, deadline=None)
def test_l3_idempotent_and_below_l2(data):
    g, a = data
    c3 = canonical_form(g, a, "L3")
    assert canonical_form(g, c3, "L3").mask == c3.mask
    assert c3.mask <= canonical_form(g, a, "L2").mask


ORACLE_GROUPS = ["S3", "C4xC2", "D4", "Q8", "C2xC2xC2"]


def _brute_automorphisms(g):
    """Every bijection fixing the identity that preserves the table."""
    n = g.order
    others = [x for x in range(n) if x != g.identity]
    found = []
    for images in itertools.permutations(others):
        phi = [g.identity] * n
        for x, y in zip(others, images):
            phi[x] = y
        if all(phi[g.mul(a, b)] == g.mul(phi[a], phi[b]) for a in range(n) for b in range(n)):
            found.append(phi)
    return found


@functools.cache
def _orbit_minima(spec, level):
    """Each nonempty mask's least identity-containing orbit member, with the
    orbit {x phi(A^e) y} built directly over all x, y, e = +-1 and phi the
    identity map (L2) or any automorphism (L3)."""
    g = group_from_string(spec)
    n = g.order
    autos = [list(range(n))] if level == "L2" else _brute_automorphisms(g)
    maps = {
        tuple(g.mul(g.mul(x, phi[g.inv(z) if invert else z]), y) for z in range(n))
        for phi in autos
        for invert in (False, True)
        for x in range(n)
        for y in range(n)
    }
    minima = {}
    for mask in range(1, 1 << n):
        if mask in minima:
            continue
        elements = [z for z in range(n) if mask >> z & 1]
        orbit = {sum(1 << p[z] for z in elements) for p in maps}
        least = min(m for m in orbit if m >> g.identity & 1)
        minima.update(dict.fromkeys(orbit, least))
    return g, minima


@pytest.mark.parametrize("level", ["L2", "L3"])
@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_l2_l3_canonical_form_matches_brute_force_orbit(spec, level):
    g, minima = _orbit_minima(spec, level)
    for mask in range(1, 1 << g.order):
        assert canonical_form(g, Subset(g.order, mask), level).mask == minima[mask], mask


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_l3_class_count_matches_brute_force_orbit_count(spec):
    g, minima = _orbit_minima(spec, "L3")
    for d in range(1, g.order + 1):
        if g.order % d:
            continue
        want = sorted({m for mask, m in minima.items() if mask.bit_count() == d})
        reps = [s.mask for s in enumerate_lagrange_subsets(g, d, "L3")]
        assert len(reps) == len(want), d
        assert reps == want, d


def test_l3_computes_automorphisms_once_per_group(monkeypatch):
    calls = []
    real = subsets.automorphisms

    def counting(group, *args, **kwargs):
        calls.append(group)
        return real(group, *args, **kwargs)

    monkeypatch.setattr(subsets, "automorphisms", counting)
    g = group_from_string("C2xC2xC2")
    list(enumerate_lagrange_subsets(g, 4, "L3"))
    assert len(calls) == 1 and calls[0] is g
    h = group_from_string("C2xC2xC2")
    list(enumerate_lagrange_subsets(h, 4, "L3"))
    list(enumerate_lagrange_subsets(g, 2, "L3"))
    assert len(calls) == 2 and calls[1] is h


def test_canonical_form_rejects_unknown_level():
    g = _GROUPS["C4"]
    with pytest.raises(ValueError):
        canonical_form(g, parse_subset(g, "1,a"), "L9")
