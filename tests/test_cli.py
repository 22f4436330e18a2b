"""End-to-end command-line behavior: verdicts, exit codes, JSON envelopes."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import subsetfactor
from subsetfactor import groups
from subsetfactor.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# Exit codes


def test_factor_left_example(capsys):
    code, out, _ = run(capsys, "factor", "C4", "--set", "1,a", "--side", "left")
    assert code == 0
    assert "{1, a^2}" in out


def test_factor_nonfactor_exit_one(capsys):
    code, _, _ = run(capsys, "factor", "C6", "--set", "1,a^2,a^3")
    assert code == 1


def test_strong_cfs_s3_exit_one_with_witness(capsys):
    code, env, _ = run_json(capsys, "strong-cfs", "S3")
    assert code == 1
    assert env["verdict"] == "fails"
    assert 2 <= len(env["witness"]) <= 3


def test_strong_cfs_holds_exit_zero(capsys):
    code, env, _ = run_json(capsys, "strong-cfs", "C2xC2xC2")
    assert code == 0 and env["verdict"] == "holds"


def test_usage_error_exit_two(capsys):
    code, _, err = run(capsys, "factor", "Zog", "--set", "1")
    assert code == 2
    assert "error" in err


def test_missing_subset_exit_two(capsys):
    code, _, err = run(capsys, "factor", "C4")
    assert code == 2


def test_repeated_subset_element_exit_two(capsys):
    code, out, err = run(capsys, "factor", "C4", "--set", "1,1", "--side", "left", "--all")
    assert code == 2
    assert not out and "repeats" in err


def test_budget_exit_three(capsys):
    code, _, _ = run(capsys, "strong-cfs", "C8", "--budget", "1")
    assert code == 3


def test_budget_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("SUBSETFACTOR_BUDGET", "1")
    code, _, _ = run(capsys, "strong-cfs", "C8")
    assert code == 3


def test_budget_zero_exit_three(capsys):
    code, env, _ = run_json(capsys, "strong-cfs", "C8", "--budget", "0")
    assert code == 3
    assert env["verdict"] == "inconclusive" and env["subsets_examined"] == 0


def test_negative_budget_exit_two(capsys):
    code, out, err = run(capsys, "strong-cfs", "C8", "--budget", "-5")
    assert code == 2
    assert "budget" in err and out == ""


def test_negative_budget_env_variable_exit_two(capsys, monkeypatch):
    monkeypatch.setenv("SUBSETFACTOR_BUDGET", "-5")
    code, out, err = run(capsys, "strong-cfs", "C8")
    assert code == 2
    assert "budget" in err and out == ""


def test_unknown_command_exit_two(capsys):
    assert main(["frobnicate"]) == 2


@pytest.fixture
def no_table_builds(monkeypatch):
    """Make every table builder (each family's but the file reader's), and
    the start of table validation, fail the test if called."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a group table was built")

    for family, (form, order, _) in groups.FAMILIES.items():
        if family != "file":
            monkeypatch.setitem(groups.FAMILIES, family, (form, order, forbidden))
    for name in ("_index_rows", "_direct_product", "close_permutations"):
        monkeypatch.setattr(groups, name, forbidden)


@pytest.mark.parametrize("spec", ["C5000", "S7", "x".join(["C2"] * 10)])
def test_huge_order_exit_two_without_building(capsys, no_table_builds, spec):
    code, out, err = run(capsys, "info", spec)
    assert code == 2
    assert "512" in err and out == ""


def test_l3_automorphism_search_cap_exit_two(capsys):
    # Order 64 passes the L3 order limit, but Aut(C2^6) is far too large.
    code, out, err = run(capsys, "lagrange", "x".join(["C2"] * 6), "-d", "2", "--canon", "L3")
    assert code == 2
    assert "generator-image tuples" in err and out == ""


def test_huge_table_file_exit_two_without_validation(capsys, no_table_builds, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "big", "table": [[0]] * 513}))
    code, _, err = run(capsys, "info", f"file:{path}")
    assert code == 2
    assert "513" in err


@pytest.mark.parametrize("table", [[[0, 1.7], [1, 0]], [["0", "1"], ["1", "0"]]])
def test_non_integer_table_file_exit_two(capsys, tmp_path, table):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "table": table}))
    code, out, err = run(capsys, "info", f"file:{path}")
    assert code == 2
    assert "integers" in err and out == ""


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    from subsetfactor import cli

    build, calls = cli.build_parser, []

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "strong-cfs", "C4", "--json")
            assert code == 0
            outs.append(re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": _', out))
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1
    assert outs[0] == outs[1]


def test_python_dash_m_runs_the_cli():
    src = str(Path(subsetfactor.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "subsetfactor", "catalog"],
        capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "C3xC3" in done.stdout


def test_import_does_not_load_numpy():
    src = str(Path(subsetfactor.__file__).resolve().parents[1])
    code = "import sys, subsetfactor; sys.exit('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0


# ---------------------------------------------------------------------------
# JSON envelope determinism


def test_json_deterministic_modulo_elapsed(capsys):
    _, env1, _ = run_json(capsys, "factor", "D4", "--set", "1,b", "--side", "both")
    _, env2, _ = run_json(capsys, "factor", "D4", "--set", "1,b", "--side", "both")
    env1.pop("elapsed_ms")
    env2.pop("elapsed_ms")
    assert env1 == env2


def test_strong_cfs_json_byte_identical_modulo_elapsed(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "strong-cfs", "C4xC4", "--json")
        assert code == 1
        assert out.count('"elapsed_ms"') == 1
        outs.append(re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": _', out))
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# Individual commands


def test_info(capsys):
    code, env, _ = run_json(capsys, "info", "Q8")
    assert code == 0
    assert env["group"]["order"] == 8
    assert env["abelian"] is False


def test_factor_all_mode(capsys):
    code, env, _ = run_json(capsys, "factor", "C4", "--set", "1,a", "--side", "left", "--all")
    assert code == 0
    assert env["complement_count"] >= 1
    assert all(len(b) == 2 for b in env["complements"])


def test_factor_side_same(capsys):
    code, env, _ = run_json(capsys, "factor", "C2xC2", "--set", "1,a", "--side", "same")
    assert code == 0
    assert env["verdict"] == "same_complement"


def test_same_complement_command(capsys):
    code, env, _ = run_json(capsys, "same-complement", "C2xC2", "--set", "1,a")
    assert code == 0 and env["complement"] == ["1", "b"]


def test_set_file_input(capsys, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"group": "C4", "elements": ["1", "a"]}))
    code, env, _ = run_json(capsys, "factor", "C4", "--set-file", str(path), "--side", "left")
    assert code == 0 and env["complement"] == ["1", "a^2"]


def test_cfs_command(capsys):
    code, env, _ = run_json(capsys, "cfs", "A4")
    assert code == 0 and env["verdict"] == "holds"
    assert set(env["per_divisor"]) == {"1", "2", "3", "4", "6", "12"}


def test_lagrange_command(capsys):
    code, env, _ = run_json(capsys, "lagrange", "C2xC2xC2", "-d", "4")
    assert code == 0 and env["count"] == 14


def test_ball_command(capsys):
    code, env, _ = run_json(capsys, "ball", "C5xC5", "-r", "2")
    assert code == 0 and env["size"] == 13


def test_ball_custom_gens(capsys):
    code, env, _ = run_json(capsys, "ball", "C6", "-r", "1", "--gens", "a")
    assert code == 0 and env["size"] == 3


def test_tilde_command(capsys):
    code, env, _ = run_json(capsys, "tilde", "D9", "-d", "9")
    assert code == 0
    assert len(env["tilde"]) == 10
    assert env["stripped_classification"] == "none"


def test_tilde_inapplicable(capsys):
    code, env, _ = run_json(capsys, "tilde", "C5xC5", "-d", "5")
    assert code == 1 and env["verdict"] == "inapplicable"


def test_tilde_order_as_size_inapplicable(capsys):
    code, env, _ = run_json(capsys, "tilde", "C4", "-d", "4")
    assert code == 1 and env["verdict"] == "inapplicable"


@pytest.mark.parametrize("size", ["0", "3"])
def test_tilde_non_divisor_exit_two_like_lagrange(capsys, size):
    code, out, err = run(capsys, "tilde", "C4", "-d", size)
    assert code == 2 and out == ""
    assert (2, "", err) == run(capsys, "lagrange", "C4", "-d", size)
    assert f"{size} is not a divisor" in err


def test_verify_paper_command(capsys):
    code, env, _ = run_json(capsys, "verify-paper")
    assert code == 0 and env["verdict"] == "passed"
    assert len(env["checks"]) == 6


def test_catalog_command(capsys):
    code, env, _ = run_json(capsys, "catalog")
    assert code == 0 and len(env["entries"]) == 94
