"""The exact-cover engine against independent oracles: brute force over all
candidate complements, and a plain backtracking search that finds the
first cover in the same branching order."""

from __future__ import annotations

import itertools
import random

import pytest

from subsetfactor.factor import (
    enumerate_complements,
    find_left_complement,
    find_right_complement,
    find_same_complement,
)
from subsetfactor.groups import SMALL_GROUP_CATALOG
from subsetfactor.notation import group_from_string
from subsetfactor.subsets import Subset


def _left_tile(g, a, b):  # Ab, the cells of label b when G = A . B
    return [g.table[x][b] for x in a]


def _right_tile(g, a, b):  # bA, the cells of label b when G = B . A
    return [g.table[b][x] for x in a]


def _same_tile(g, a, b):  # Ab in cells 0..n-1 and bA in cells n..2n-1
    return _left_tile(g, a, b) + [g.order + y for y in _right_tile(g, a, b)]


def reference_first_cover(ncells, tile_cells):
    """Mask of the labels of the first exact cover found by backtracking on
    the least uncovered cell, trying labels in ascending order; or None."""
    masks = [sum(1 << c for c in cells) for cells in tile_cells]
    full = (1 << ncells) - 1

    def rec(covered, chosen):
        if covered == full:
            return chosen
        cell = next(c for c in range(ncells) if not covered >> c & 1)
        for b, m in enumerate(masks):
            if m >> cell & 1 and not m & covered:
                found = rec(covered | m, chosen | 1 << b)
                if found is not None:
                    return found
        return None

    return rec(0, 0)


def _mask(b):
    return None if b is None else b.mask


def _check_first_found(g, a):
    n = g.order
    labels = range(n)
    assert _mask(find_left_complement(g, a)) == reference_first_cover(
        n, [_left_tile(g, a, b) for b in labels])
    assert _mask(find_right_complement(g, a)) == reference_first_cover(
        n, [_right_tile(g, a, b) for b in labels])
    assert _mask(find_same_complement(g, a)) == reference_first_cover(
        2 * n, [_same_tile(g, a, b) for b in labels])


@pytest.mark.parametrize("spec", [s for _, s in SMALL_GROUP_CATALOG if group_from_string(s).order <= 10])
def test_first_found_matches_reference_on_every_subset(spec):
    g = group_from_string(spec)
    for mask in range(1, 1 << g.order):
        _check_first_found(g, Subset(g.order, mask))


@pytest.mark.parametrize("spec", ["S4", "D12"])
def test_first_found_matches_reference_on_random_subsets(spec):
    g = group_from_string(spec)
    rng = random.Random(f"first-found-{spec}")
    for k in (2, 3, 4, 6, 8):
        for _ in range(6):
            _check_first_found(g, Subset.from_indices(g.order, rng.sample(range(g.order), k)))


def _brute_force_complements(g, a, tile):
    """Every B of size n/|A| whose translates tile G, each written with the
    least label of every translate it uses."""
    n = g.order
    least = {}
    for b in range(n):
        least.setdefault(frozenset(tile(g, a, b)), b)
    out = set()
    for combo in itertools.combinations(range(n), n // len(a)):
        cells = [c for b in combo for c in tile(g, a, b)]
        if len(set(cells)) == n:
            out.add(sum(1 << least[frozenset(tile(g, a, b))] for b in combo))
    return out


@pytest.mark.parametrize("spec", ["S3", "C4xC2", "D4", "Q8", "C2xC2xC2", "C3xC3"])
def test_enumerate_complements_matches_brute_force(spec):
    g = group_from_string(spec)
    n = g.order
    for k in (k for k in range(1, n + 1) if n % k == 0):
        for combo in itertools.combinations(range(n), k):
            a = Subset.from_indices(n, combo)
            for side, tile in (("left", _left_tile), ("right", _right_tile)):
                got = [b.mask for b in enumerate_complements(g, a, side)]
                assert got == sorted(_brute_force_complements(g, a, tile)), (spec, combo, side)


def test_enumerate_complements_rejects_empty():
    with pytest.raises(ValueError):
        enumerate_complements(group_from_string("C4"), Subset(4, 0))

