"""subsetfactor benchmark.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the library is imported from ./src.
Workloads: census_l1, census_l3, complement_large, cli_requests (see
workloads.py and WORKLOADS.md).  Load is a closed loop from one client in
this process; the only extra threads are the ones the CLI starts by default.

--trace 0 sets up SETUP_REPEATS times (median reported as setup_s), then
repeats the workload's fixed job until the passes add up to --seconds and
reports the median wall time of a pass and the latency percentiles of all
passes pooled.  Every pass starts cold: outside the timed
region the package is imported afresh and the inputs (groups included) are
built again, so no pass inherits caches from an earlier one.  --trace 1
repeats the untraced job the same way, then sets up again and runs one pass
with span wrappers installed, reports the per-layer metrics, runs the
primitive microbenchmarks, and writes the spans to
benchmarks/out/trace_<workload>.{json,spans}.

Outputs are checked by the workload's oracles outside the timed region;
every later pass, traced or not, must reproduce the first.  The last line of
standard output is one JSON object {correct, attempted, failed, metrics};
the exit code is 1 when any operation failed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 15
TAIL_BEYOND = 10  # the tail percentile leaves this many samples above it
MAX_MESSAGES = 10


def latency_stats(latencies, passes: int = 1) -> tuple[float, float, float]:
    """(p50 ms, tail ms, tail percentile) of the latencies of ``passes``
    equal passes, pooled.  The tail percentile is the highest one that
    leaves TAIL_BEYOND samples of a single pass above it; pooling puts
    TAIL_BEYOND samples per pass above it, so the estimate rests on more
    than one pass's handful of slowest operations."""
    ordered = sorted(latencies)
    i = max(len(ordered) // passes - TAIL_BEYOND, 1) * passes - 1
    return statistics.median(ordered) * 1e3, ordered[i] * 1e3, 100.0 * (i + 1) / len(ordered)


def mismatches(first: list, other: list) -> set[int]:
    if len(first) != len(other):
        return set(range(max(len(first), len(other))))
    return {i for i, (a, b) in enumerate(zip(first, other)) if a != b}


def log(*parts: object) -> None:
    print(*parts, file=sys.stderr, flush=True)


@dataclass
class Passes:
    """Untraced passes of a workload's fixed job, repeated for a time."""

    walls: list[float] = field(default_factory=list)
    latencies: array = field(default_factory=lambda: array("d"))  # of every pass, in seconds
    ops: int = 0
    first_digest: list | None = None
    bad: set[int] = field(default_factory=set)  # operations of the first pass the oracles reject
    messages: list[str] = field(default_factory=list)
    mismatched: int = 0  # operations of later passes that differ from the first
    tail_kinds: Counter = field(default_factory=Counter)  # the slowest operations of the last pass

    @property
    def failed(self) -> int:
        return len(self.bad) * len(self.walls) + self.mismatched


def run_passes(wl, lib_import, seed: int, seconds: float) -> Passes:
    """Repeat the job until the passes add up to ``seconds``.  Before each
    pass, untimed, the package is imported afresh and the inputs are set up
    again, so each pass pays what one job costs, lazy per-group and
    per-process state included.  The first pass is checked at once and only
    digests are kept, so that retained outputs do not lengthen the garbage
    collector's pauses in later passes; each pass starts from a collected
    heap."""
    p = Passes()
    while not p.walls or sum(p.walls) < seconds:
        lib = lib_import()
        inputs = wl.setup(lib, seed)
        gc.collect()
        t0 = time.perf_counter()
        latencies, outputs = wl.run(lib, inputs)
        p.walls.append(time.perf_counter() - t0)
        p.latencies.extend(latencies)
        p.ops = len(latencies)
        labels = wl.labels(inputs, outputs)
        slowest = sorted(range(len(latencies)), key=latencies.__getitem__)[-TAIL_BEYOND - 1:]
        p.tail_kinds = Counter(labels[i] for i in slowest)
        digest = wl.digest(inputs, outputs)
        if p.first_digest is None:
            p.first_digest = digest
            p.bad, p.messages = wl.check(lib, inputs, outputs)
        else:
            p.mismatched += len(mismatches(p.first_digest, digest))
        del outputs, inputs, lib
    return p


def measured_run(wl, lib_import, seed: int, seconds: float) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = lib_import()
        wl.setup(lib, seed)
        setup_times.append(time.perf_counter() - t0)

    p = run_passes(wl, lib_import, seed, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = p.failed
    attempted = p.ops * len(p.walls)
    wall = statistics.median(p.walls)
    p50, tail, percentile = latency_stats(p.latencies, len(p.walls))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (p.ops / wall, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    log(f"{wl.name} seed={seed}: {len(p.walls)} passes x {p.ops} ops, closed loop, 1 client, "
        f"CLI default threads={os.cpu_count() or 1}")
    log(f"  latency_tail_ms is p{percentile:.2f} of all passes' latencies pooled "
        f"({p.ops} samples and {TAIL_BEYOND} beyond per pass)")
    log(f"  slowest {TAIL_BEYOND + 1} operations of the last pass: "
        + ", ".join(f"{k} x{v}" for k, v in p.tail_kinds.most_common()))
    log(f"  fail_frac = {failed}/{attempted} = {failed / attempted:.6f}")
    for m in p.messages[:MAX_MESSAGES]:
        log(f"  FAIL {m}")
    for k, (v, unit) in metrics.items():
        log(f"  {k} = {v:.6g} {unit}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(wl, lib_import, seed: int, seconds: float) -> dict:
    from layers import counters as layer_counters, install, measured as layer_measured
    from micro import BASELINES, measure
    from tracer import Tracer

    p = run_passes(wl, lib_import, seed, seconds)
    untraced_s = statistics.median(p.walls)

    tracer = Tracer()
    lib = lib_import()
    install(tracer, lib)
    try:
        with tracer.root("bench.setup"):
            inputs = wl.setup(lib, seed)
        gc.collect()
        with tracer.root("bench.job") as job:
            latencies, outputs = wl.run(lib, inputs)
    finally:
        tracer.uninstall()

    json_bytes = sum(len(o[1].encode()) for o in outputs) if wl.name == "cli_requests" else 0
    micro = measure(lib, seed)
    counters = layer_counters(tracer)
    measured = layer_measured(tracer, job.seconds, untraced_s, json_bytes, micro)

    bad, messages = wl.check(lib, inputs, outputs)
    bad |= mismatches(p.first_digest, wl.digest(inputs, outputs))
    tracer.write(OUT_DIR / f"trace_{wl.name}", {
        "workload": wl.name, "seed": seed, "counters": counters, "measured": measured,
        "outcomes": dict(tracer.outcomes),
    })

    log(f"{wl.name} seed={seed} traced: job {job.seconds:.3f} s traced vs {untraced_s:.3f} s untraced "
        f"(median of {len(p.walls)}), {len(latencies)} ops, {counters['trace.spans']} spans")
    log("  deterministic counters:")
    for k, v in counters.items():
        log(f"    {k} = {v}")
    log("  measured:")
    for k, v in measured.items():
        log(f"    {k} = {v:.6g}" + (f"   [ROADMAP baseline: {BASELINES[k]}]" if k in BASELINES else ""))
    for m in (p.messages + messages)[:MAX_MESSAGES]:
        log(f"  FAIL {m}")
    values = {**counters, **measured}
    return {
        "attempted": len(latencies) + p.ops * len(p.walls),
        "failed": len(bad) + p.failed,
        "metrics": {k: (values[k], unit) for k, unit in per_layer_units().items()},
    }


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "subsetfactor" / "__init__.py").is_file():
        log(f"error: library source not found under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, import_library

    if args.workload not in WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        return 2
    if args.seconds <= 0:
        log("error: --seconds must be positive")
        return 2

    def lib_import():
        lib = import_library()
        if not Path(lib.cfs.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported {lib.cfs.__file__}, not the checkout's source")
        return lib

    wl = WORKLOADS[args.workload]
    if args.trace:
        result = traced_run(wl, lib_import, args.seed, args.seconds)
    else:
        result = measured_run(wl, lib_import, args.seed, args.seconds)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
