"""Tests of the benchmark itself (not part of the library's tier-1 suite).

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import SpanTable, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, brute_automorphisms, burnside_l1_classes, import_library, l3_orbit_count, report_problems,
)

# A prefix of each workload's inputs that runs in well under a second.
PREFIX = {"census_l1": 3, "census_l3": 3, "complement_large": 40, "cli_requests": 60}


def traced_prefix(name: str, seed: int):
    wl = WORKLOADS[name]
    tracer = Tracer()
    lib = import_library()
    layers.install(tracer, lib)
    try:
        inputs = wl.setup(lib, seed)[: PREFIX[name]]
        _, outputs = wl.run(lib, inputs)
    finally:
        tracer.uninstall()
    return tracer, lib, inputs, outputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_for_the_same_seed(name):
    first = layers.counters(traced_prefix(name, 7)[0])
    second = layers.counters(traced_prefix(name, 7)[0])
    assert first == second
    assert first["trace.spans"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_prefix_passes_its_oracles_and_tracing_keeps_outputs(name):
    wl = WORKLOADS[name]
    tracer, lib, inputs, outputs = traced_prefix(name, 3)
    bad, messages = wl.check(lib, inputs, outputs)
    assert not bad, messages
    _, plain = wl.run(lib, inputs)
    assert wl.digest(inputs, plain) == wl.digest(inputs, outputs)


def test_per_layer_metrics_match_benchmark_json():
    tracer = traced_prefix("cli_requests", 1)[0]
    micro = {"groups.translate_ns": 1.0, "micro.canonical_l1_us": 1.0, "micro.classify_per_s": 1.0}
    names = set(layers.counters(tracer)) | set(layers.measured(tracer, 1.0, 1.0, 0, micro))
    assert names == set(run.per_layer_units())


def test_wrappers_are_removed_after_the_traced_run():
    tracer, lib, *_ = traced_prefix("census_l3", 1)
    assert not hasattr(lib.factor.classify_factor, "__wrapped__")
    assert not hasattr(lib.cfs.canonical_form, "__wrapped__")
    assert not hasattr(lib.groups.Group.left_translate_mask, "__wrapped__")


def test_census_oracle_flags_a_missing_class():
    wl = WORKLOADS["census_l1"]
    _, lib, blocks, outputs = traced_prefix("census_l1", 1)
    outputs[-1] = outputs[-1][:-1]
    bad, messages = wl.check(lib, blocks, outputs)
    assert bad and "expected" in messages[0]


def test_l3_oracle_flags_a_missing_class():
    wl = WORKLOADS["census_l3"]
    _, lib, blocks, outputs = traced_prefix("census_l3", 1)
    outputs[1] = outputs[1][:-1]
    bad, messages = wl.check(lib, blocks, outputs)
    assert bad and "expected" in messages[0]


def test_brute_force_l3_counts_match_hand_counts():
    lib = import_library()
    g = lambda spec: lib.notation.group_from_string(spec)  # noqa: E731
    # |Aut| of C2^3 is |GL(3,2)| = 168, of Q8 is |S4| = 24, of C3^2 is |GL(2,3)| = 48
    assert [len(brute_automorphisms(g(s))) for s in ("C2xC2xC2", "Q8", "C3xC3", "C5")] == [168, 24, 48, 4]
    # Aut(C2^3) is transitive on non-identity elements: one class of {1, x}.
    # 4-subsets of C2^3: the cosets of a subgroup of order 4, and the rest.
    # {1, -1} against {1, x} with x of order 4 in Q8.
    # 3-subsets of C3^2: the lines (cosets of order-3 subgroups), and the rest.
    assert l3_orbit_count(g("C2xC2xC2"), 2) == 1
    assert l3_orbit_count(g("C2xC2xC2"), 4) == 2
    assert l3_orbit_count(g("Q8"), 2) == 2
    assert l3_orbit_count(g("C3xC3"), 3) == 2


def test_report_oracle_flags_a_wrong_complement():
    lib = import_library()
    g = lib.notation.group_from_string("C4")
    a = lib.notation.parse_subset(g, "1,a")
    rep = lib.factor.classify_factor(g, a)
    assert report_problems(lib, g, a, rep) == []
    forged = type(rep)(rep.classification, left_complement=lib.notation.parse_subset(g, "1,a"),
                       right_complement=rep.right_complement)
    assert report_problems(lib, g, a, forged) == ["left complement does not verify"]


def test_cli_oracle_flags_a_wrong_verdict():
    wl = WORKLOADS["cli_requests"]
    _, lib, reqs, outputs = traced_prefix("cli_requests", 1)
    i = next(i for i, r in enumerate(reqs) if r.argv[0] == "factor")
    code, text = outputs[i]
    env = json.loads(text)
    env["verdict"] = "bogus"
    outputs[i] = (code, json.dumps(env))
    bad, _ = wl.check(lib, reqs, outputs)
    assert bad == {i}


def test_burnside_count_matches_enumeration_and_roadmap():
    lib = import_library()
    for spec, d in (("C2xC2xC2", 4), ("S3", 3), ("D4", 4), ("C3xC3", 3)):
        g = lib.notation.group_from_string(spec)
        assert burnside_l1_classes(g, d) == sum(1 for _ in lib.cfs.enumerate_lagrange_subsets(g, d))
    assert burnside_l1_classes(lib.notation.group_from_string("D12"), 12) == 113_182


def test_self_time_subtracts_the_union_of_overlapping_children():
    # parent 0..100; two worker children overlapping on 30..50; a grandchild
    records = [
        (1, 0, 10, 50, 0),
        (2, 0, 30, 70, 0),
        (3, 0, 35, 45, 2),
        (0, 1, 0, 100, -1),
    ]
    t = SpanTable(["child", "parent"], array("q", [v for r in records for v in r]))
    assert t.self_s("parent") == pytest.approx(40e-9)
    assert t.self_s("child") == pytest.approx((40 + 30 + 10) * 1e-9)
    assert t.inclusive_s("child") == pytest.approx(80e-9)
    assert t.inclusive_s("child", "parent") == pytest.approx(100e-9)


def test_tail_leaves_ten_samples_above_it():
    p50, tail, pct = run.latency_stats([float(i) for i in range(1, 1001)])
    assert tail == pytest.approx(990e3)
    assert pct == pytest.approx(99.0)
    pooled = run.latency_stats([float(i) for i in range(1, 1001)] * 3, passes=3)
    assert pooled == pytest.approx((p50, tail, pct))  # ten per pass above the tail


def test_exits_nonzero_without_output_in_a_bare_directory(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "cli_requests", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
