"""Group-spec grammar, element words, subset parsing and files."""

from __future__ import annotations

import json

import pytest

from subsetfactor.notation import (
    NotationError,
    format_subset,
    group_from_string,
    load_subset_file,
    parse_element_word,
    parse_group_spec,
    parse_subset,
    save_subset_file,
    subset_words,
)


# ---------------------------------------------------------------------------
# Group spec grammar


@pytest.mark.parametrize(
    "spec,order",
    [
        ("C1", 1),
        ("C4", 4),
        ("C4xC2", 8),
        ("C2xC2xC2", 8),
        ("D7", 14),
        ("Q8", 8),
        ("S4", 24),
        ("A4", 12),
        ("Heis3", 27),
        ("sd(7,3,2)", 21),
        ("sd(3,4,2)", 12),
    ],
)
def test_grammar_accepts_and_orders(spec, order):
    assert group_from_string(spec).order == order


def test_grammar_whitespace_and_case_tolerance():
    assert group_from_string(" C4 x C2 ").order == 8


def test_product_is_left_associative_composition():
    g = group_from_string("C2xC3xC2")
    assert g.order == 12


@pytest.mark.parametrize("bad", ["", "C", "C0", "Cx", "D1x", "sd(6,2,2)", "Zpq", "S"])
def test_grammar_rejects_garbage(bad):
    with pytest.raises((NotationError, Exception)):
        group_from_string(bad)


def test_perm_group_spec():
    g = group_from_string("perm:[(1,2,3);(1,2)]")
    assert g.order == 6


def test_file_group_spec(tmp_path):
    from subsetfactor.groups import save_group_file

    g = group_from_string("C6")
    path = tmp_path / "c6.json"
    save_group_file(g, path)
    again = group_from_string(f"file:{path}")
    assert again.order == 6
    assert again.table == g.table


# ---------------------------------------------------------------------------
# Element words


def test_word_basics():
    g = group_from_string("C6")
    a = parse_element_word(g, "a")
    assert parse_element_word(g, "1") == g.identity
    assert parse_element_word(g, "a^2") == g.mul(a, a)
    assert parse_element_word(g, "a^-1") == g.inverse[a]
    assert parse_element_word(g, "a^7") == a


def test_word_multiplication_order():
    g = group_from_string("sd(7,3,2)")
    a, b = parse_element_word(g, "a"), parse_element_word(g, "b")
    assert parse_element_word(g, "a*b") == g.mul(a, b)
    assert parse_element_word(g, "b*a") == g.mul(b, a)
    assert parse_element_word(g, "b*a") != parse_element_word(g, "a*b")


def test_exact_element_names_accepted():
    g = group_from_string("S3")
    assert parse_element_word(g, "(1,2,3)") == g.element_names.index("(1,2,3)")


def test_word_rejects_unknown_generator():
    g = group_from_string("C4")
    with pytest.raises(NotationError):
        parse_element_word(g, "z")
    with pytest.raises(NotationError):
        parse_element_word(g, "a**2")
    with pytest.raises(NotationError):
        parse_element_word(g, "")


# ---------------------------------------------------------------------------
# Subsets


def test_parse_subset_inline_and_sequence():
    g = group_from_string("C4")
    s1 = parse_subset(g, "1, a")
    s2 = parse_subset(g, ["1", "a"])
    assert s1.mask == s2.mask
    assert len(s1) == 2


def test_parse_subset_rejects_repeated_elements():
    g = group_from_string("C4")
    for words in ("1,1", "1, a, a^5", ["a^2", "a*a"]):
        with pytest.raises(NotationError):
            parse_subset(g, words)


def test_parse_subset_respects_cycle_commas():
    g = group_from_string("S3")
    s = parse_subset(g, "1, (1,2,3)")
    assert len(s) == 2


def test_format_and_words_are_stable():
    g = group_from_string("C4")
    s = parse_subset(g, "a^2,1")
    assert format_subset(g, s) == "{1, a^2}"
    assert subset_words(g, s) == ["1", "a^2"]


def test_subset_file_roundtrip(tmp_path):
    g = group_from_string("D4")
    s = parse_subset(g, "1,a,b")
    path = tmp_path / "s.json"
    save_subset_file(g, s, path, spec="D4")
    g2, s2 = load_subset_file(path)
    assert g2.order == g.order
    assert s2.mask == s.mask


def test_subset_file_requires_group_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["1"]}))
    with pytest.raises(NotationError):
        load_subset_file(path)


def test_parse_group_spec_roundtrip_examples():
    spec = parse_group_spec("C4xC2")
    g = group_from_string("C4xC2")
    assert g.order == 8
    assert spec is not None


@pytest.mark.parametrize(
    "text", ["C4", "D7", "Q8", "S4", "A5", "sd(7,3,2)", "Heis3", "C2xC3xD4", "perm:[(1,2,3);(1,2)]", "file:g.json"]
)
def test_spec_string_reads_back(text):
    from subsetfactor.groups import spec_string

    spec = parse_group_spec(text)
    assert spec_string(spec) == text
    assert parse_group_spec(spec_string(spec)) == spec
