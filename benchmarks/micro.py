"""Primitive microbenchmarks printed by the traced run next to the
baselines in ROADMAP.md ("Recent"), as a sanity check, not a gate.
They run with the tracer removed."""

from __future__ import annotations

import random
import statistics
import time
from typing import Any

REPEATS = 5
BASELINES = {
    "groups.translate_ns": "870 ns per call (D12, 12-element masks)",
    "micro.canonical_l1_us": "about 13.7 us per candidate (73k candidates/s, D12 d=12)",
    "micro.classify_per_s": "8-15k classify calls/s",
}


def _median_per_call(fn, calls: int) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - t0) / calls)
    return statistics.median(samples)


def measure(lib: Any, seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    d12 = lib.notation.group_from_string("D12")
    n = d12.order
    masks = [lib.subsets.Subset.from_indices(n, [d12.identity, *rng.sample(range(1, n), 11)]) for _ in range(64)]

    translate = d12.left_translate_mask
    elements = range(n)
    plain = [m.mask for m in masks]

    def translates() -> None:
        for m in plain:
            for g in elements:
                translate(g, m)

    canonical = lib.subsets.canonical_form

    def canonicals() -> None:
        for s in masks:
            canonical(d12, s, "L1")

    s4 = lib.notation.group_from_string("S4")
    classes = []
    for s in lib.cfs.enumerate_lagrange_subsets(s4, 8):
        classes.append(s)
        if len(classes) == 1000:
            break
    classify = lib.factor.classify_factor

    def classifies() -> None:
        for s in classes:
            classify(s4, s)

    return {
        "groups.translate_ns": _median_per_call(translates, len(plain) * n),
        "micro.canonical_l1_us": _median_per_call(canonicals, len(masks)) / 1e3,
        "micro.classify_per_s": 1e9 / _median_per_call(classifies, len(classes)),
    }
