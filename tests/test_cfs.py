"""Strong-CFS and CFS deciders, enumeration, catalog, verification suite."""

from __future__ import annotations

import itertools

import pytest

from subsetfactor import cfs
from subsetfactor.cfs import (
    BudgetExceededError,
    STRONG_CFS_GROUPS,
    WitnessCatalogEntry,
    catalog_group,
    catalog_metadata,
    cyclic_witness,
    decide_cfs,
    decide_strong_cfs,
    enumerate_lagrange_subsets,
    verify_paper,
    witness_catalog,
)
from subsetfactor.factor import classify_factor, find_left_complement
from subsetfactor.groups import SMALL_GROUP_CATALOG
from subsetfactor.notation import group_from_string, parse_element_word, parse_subset
from subsetfactor.subsets import Subset, canonical_form, verify_direct_factorization


# ---------------------------------------------------------------------------
# Enumeration up to symmetry


def orbit_count_oracle(g, d, level):
    """Count canonical classes by brute force over all identity-containing
    size-d subsets."""
    canon = set()
    for combo in itertools.combinations(
        [i for i in range(g.order) if i != g.identity], d - 1
    ):
        s = Subset.from_indices(g.order, (g.identity,) + combo)
        canon.add(canonical_form(g, s, level).mask)
    return len(canon)


@pytest.mark.parametrize(
    "spec,d",
    [("C2xC2xC2", 4), ("C3xC3", 3), ("C6", 2), ("C6", 3), ("S3", 2), ("S3", 3), ("D4", 4)],
)
def test_enumeration_matches_orbit_oracle(spec, d):
    g = group_from_string(spec)
    reps = list(enumerate_lagrange_subsets(g, d, "L1"))
    assert len(reps) == orbit_count_oracle(g, d, "L1")
    # each rep is its own canonical form, ascending, identity-containing
    masks = [s.mask for s in reps]
    assert masks == sorted(masks)
    for s in reps:
        assert g.identity in s
        assert canonical_form(g, s, "L1").mask == s.mask


def test_known_orbit_counts():
    assert len(list(enumerate_lagrange_subsets(group_from_string("C2xC2xC2"), 4))) == 14
    assert len(list(enumerate_lagrange_subsets(group_from_string("C3xC3"), 3))) == 12


def test_enumeration_rejects_non_divisor():
    with pytest.raises(ValueError):
        list(enumerate_lagrange_subsets(group_from_string("C6"), 4))


# ---------------------------------------------------------------------------
# Strong CFS


def test_strong_cfs_c5_holds():
    rep = decide_strong_cfs(group_from_string("C5"))
    assert rep.holds and rep.witness is None


def test_strong_cfs_s3_fails_with_verified_witness():
    g = group_from_string("S3")
    rep = decide_strong_cfs(g)
    assert not rep.holds
    assert rep.witness is not None and len(rep.witness) in (2, 3)
    assert classify_factor(g, rep.witness).classification == "none"


def first_nonfactor_representative(g):
    """Oracle: the first L1 representative, divisors ascending and masks
    ascending, that classifies as a non-factor."""
    for d in range(2, g.order):
        if g.order % d:
            continue
        others = [i for i in range(g.order) if i != g.identity]
        masks = sorted(
            Subset.from_indices(g.order, (g.identity, *combo)).mask
            for combo in itertools.combinations(others, d - 1)
        )
        for m in masks:
            s = Subset(g.order, m)
            is_rep = canonical_form(g, s, "L1").mask == m
            if is_rep and classify_factor(g, s).classification == "none":
                return s
    return None


def test_strong_cfs_witness_is_first_nonfactor_representative():
    for spec in ("C6", "C8", "D4", "C3xC3"):
        g = group_from_string(spec)
        rep = decide_strong_cfs(g)
        expected = first_nonfactor_representative(g)
        assert rep.holds == (expected is None), spec
        assert rep.witness == expected, spec


@pytest.mark.parametrize("spec", ["C4xC4", "C3xC3"])
def test_strong_cfs_counts_classify_calls(spec, monkeypatch):
    import subsetfactor.cfs as cfs

    calls = []

    def counting(group, a):
        calls.append(a.mask)
        return classify_factor(group, a)

    monkeypatch.setattr(cfs, "classify_factor", counting)
    rep = decide_strong_cfs(group_from_string(spec))
    assert rep.subsets_examined == len(calls)


def test_strong_cfs_rejects_negative_budget():
    with pytest.raises(ValueError):
        decide_strong_cfs(group_from_string("C8"), budget=-1)


def test_strong_cfs_budget_exceeded_carries_partial():
    with pytest.raises(BudgetExceededError) as exc:
        decide_strong_cfs(group_from_string("C2xC2xC2"), budget=2)
    partial = exc.value.partial
    assert partial.holds is None
    assert partial.subsets_examined == 2


def test_strong_cfs_canon_levels_agree():
    for spec in ("C6", "C4xC2", "C3xC3"):
        g = group_from_string(spec)
        verdicts = {
            level: decide_strong_cfs(g, canon_level=level).holds for level in ("L1", "L2", "L3")
        }
        assert len(set(verdicts.values())) == 1


# ---------------------------------------------------------------------------
# CFS


def test_cfs_holds_on_assorted_groups():
    for spec in ("C12", "A4", "Q8", "S4", "Heis3"):
        g = group_from_string(spec)
        rep = decide_cfs(g)
        assert rep.holds, spec
        divisors = [d for d in range(1, g.order + 1) if g.order % d == 0]
        assert sorted(rep.per_divisor) == divisors
        for d, f in rep.per_divisor.items():
            assert len(f.left_factor) == d
            assert verify_direct_factorization(g, f.left_factor, f.left_complement)
            assert len(f.right_factor) == d
            assert verify_direct_factorization(g, f.right_complement, f.right_factor)


def test_cfs_order_cap():
    with pytest.raises(ValueError):
        decide_cfs(group_from_string("C12xC11xC2"), order_cap=200)


# ---------------------------------------------------------------------------
# Cyclic witnesses


def test_cyclic_witness_shape():
    g = group_from_string("C6")
    w = cyclic_witness(g, 3)
    assert set(w) == set(parse_subset(g, "1,a^2,a^3"))


def test_cyclic_witness_rejects_bad_input():
    g = group_from_string("C6")
    with pytest.raises(ValueError):
        cyclic_witness(g, 2)
    with pytest.raises(ValueError):
        cyclic_witness(g, 6)
    with pytest.raises(ValueError):
        cyclic_witness(group_from_string("C2xC2"), 2)


# ---------------------------------------------------------------------------
# Catalog


def test_catalog_counts():
    cat = witness_catalog()
    pos = [e for e in cat if e.claim == "positive_factorization"]
    neg = [e for e in cat if e.claim == "non_factor"]
    assert len(pos) == 76
    assert len(neg) == 18


def test_catalog_eliminations_cover_21_groups():
    meta = catalog_metadata()
    assert len(meta["eliminations"]) == 21
    routes = {e["route"] for e in meta["eliminations"]}
    assert routes <= {"witness", "subgroup"}


def _eval_word(group, word, images):
    """Evaluate a word over generator names using explicit images in group."""
    acc = group.identity
    if word.strip() == "1":
        return acc
    for factor in word.split("*"):
        name, _, exp = factor.strip().partition("^")
        e = int(exp) if exp else 1
        acc = group.mul(acc, group.power(images[name], e))
    return acc


def test_catalog_subgroup_routes_verify():
    """Each subgroup elimination with an explicit embedding transports the
    via-group's witness into the big group, where it must stay a non-factor
    (the subgroup lemma)."""
    meta = catalog_metadata()
    witness_by_group = {
        e.group_spec: e.words for e in witness_catalog() if e.claim == "non_factor"
    }
    checked = 0
    for e in meta["eliminations"]:
        if e["route"] != "subgroup" or "embedding" not in e:
            continue
        g = catalog_group(e["group"])
        images = {name: parse_element_word(g, word) for name, word in e["embedding"].items()}
        words = witness_by_group[e["via"]]
        a = Subset.from_indices(g.order, sorted({_eval_word(g, w, images) for w in words}))
        assert len(a) == len(words), e["group"]
        assert classify_factor(g, a).classification == "none", e["group"]
        checked += 1
    assert checked == 3


def test_verify_paper_all_green():
    rep = verify_paper()
    assert rep.passed, [i for i in rep.items if not i.passed]
    assert len(rep.items) == 6


def test_nonfactor_check_reports_repeated_words(monkeypatch):
    bad = WitnessCatalogEntry("C4", "C4 (repeated)", ("1", "a^4"), "non_factor", None, "test")
    entries = witness_catalog() + [bad]
    monkeypatch.setattr(cfs, "witness_catalog", lambda: entries)
    item = cfs._check_nonfactor_entries()
    assert not item.passed
    assert len(item.failures) == 1 and item.failures[0].startswith("C4 (repeated):")


# ---------------------------------------------------------------------------
# Full classification at catalog scale


def test_strong_cfs_exact_classification_small():
    for name, spec in SMALL_GROUP_CATALOG:
        g = group_from_string(spec)
        rep = decide_strong_cfs(g, group_name=name)
        assert rep.holds == (name in STRONG_CFS_GROUPS), name
        if rep.witness is not None:
            assert find_left_complement(g, rep.witness) is None
