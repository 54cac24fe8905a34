"""Measurement loop, metrics and result line shared by the workloads.

A workload module provides::

    NAME, EXPECT
    setup(dynres, seed, workdir, size) -> state       warm-up included
    make_round(state, r) -> inputs                     seeded by (seed, r); inputs.key describes them
    run_round(state, inputs, tracer) -> RoundResult    the timed work
    check(state, results, expect) -> (attempted, failed, notes)
    broken(expect) -> expect with one deliberately wrong value
    describe(state, results) -> lines on the measured input properties
    trace_extras(state, traced) -> (metrics, attempted, failed)

Work is done in rounds of fixed composition.  A run keeps starting rounds
while the next one is expected to end closer to ``--seconds`` than stopping
now would, so every run measures whole rounds and the input mix is the same
whatever the speed.  Rounds after the first are generated between rounds,
outside the clock; round 0 is generated in set-up.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
TRACE_DIR = BENCH_DIR / "traces"

# SUSTAINED: on a shared host the CPU runs at a steady base speed with
# bursts up to ~1.5x faster that come and go within seconds.  The slowest
# round of a run sits at the base speed and repeats from run to run far
# better than the mean or the fastest round, so throughput and p50 come from
# the slowest round, and the tail pools the slowest rounds until it has
# TAIL_SAMPLES latencies (a workload module may set its own).  Round sizes
# are fixed, so that is a fixed sample count per workload and the percentile
# the ladder picks does not change with the speed.  Set-up is the median of
# SETUP_REPEATS.
SETUP_REPEATS = 7
TAIL_SAMPLES = 200
# tail percentiles tried, highest first; the tail is the highest that still
# has at least TAIL_BEYOND samples above it
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10

# per-layer metrics only some workloads measure; the others report 0
WORKLOAD_EXTRAS = ("census.records_bytes", "census.threads1_s", "census.threads2_s", "cliff.p17_moves", "cliff.p17_s")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class RoundResult:
    ops: int  # operations completed (records persisted / resultants / queries)
    busy_s: float  # wall time of those operations
    latencies: list[float]  # seconds, one per call
    outputs: object  # what check() needs
    extra: dict = field(default_factory=dict)  # workload-specific timings
    wall_s: float = 0.0


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_pct"):
        return "%"
    if name.startswith("trace.ops_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def fresh_import():
    """Import dynres from scratch, so every set-up pays the import and cold caches."""
    for name in [m for m in sys.modules if m == "dynres" or m.startswith("dynres.")]:
        del sys.modules[name]
    dynres = importlib.import_module("dynres")
    importlib.import_module("dynres.cli")
    return dynres


def sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest usable ladder step."""
    xs = sorted(latencies)
    n = len(xs)
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(n * q / 100))
        if n - rank >= TAIL_BEYOND or q == TAIL_LADDER[-1]:
            return xs[rank - 1], q, n - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


@dataclass
class Run:
    state: object
    results: list[RoundResult]
    metrics: dict[str, float]
    attempted: int
    failed: int
    lines: list[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def result_line(self) -> str:
        metrics = {name: {"value": value, "unit": unit(name)} for name, value in self.metrics.items()}
        return json.dumps(
            {"correct": self.correct, "attempted": self.attempted, "failed": self.failed, "metrics": metrics}
        )


def _measure(wl, state, first_inputs, seconds: float) -> list[RoundResult]:
    results = []
    measured = 0.0
    inputs = first_inputs
    r = 0
    while True:
        if r:
            inputs = wl.make_round(state, r)
        t0 = time.perf_counter()
        res = wl.run_round(state, inputs, None)
        res.wall_s = time.perf_counter() - t0
        results.append(res)
        measured += res.wall_s
        if measured + res.wall_s / 2 >= seconds:
            return results
        r += 1


def end_to_end(results: list[RoundResult], setup_s: float, tail_samples: int) -> tuple[dict[str, float], list[str]]:
    """End-to-end metrics of a run; see SUSTAINED for why rounds are not averaged."""
    rates = [res.ops / res.busy_s for res in results]
    lat = []
    slowest = 0
    for res in sorted(results, key=lambda res: res.ops / res.busy_s):
        lat += res.latencies
        slowest += 1
        if len(lat) >= tail_samples:
            break
    tail_value, q, beyond = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": min(rates),
        "latency_p50_ms": max(statistics.median(res.latencies) for res in results) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    lines = [
        f"  rounds {len(results)}, measured {sum(r.wall_s for r in results):.2f} s, "
        f"{sum(r.ops for r in results)} ops; ops/s per round " + " ".join(f"{x:.4g}" for x in rates),
        f"  tail is p{q:g} of the {slowest} slowest rounds: n={len(lat)}, {beyond} samples beyond it",
    ]
    return metrics, lines


def _extra_lines(results: list[RoundResult]) -> list[str]:
    keys = sorted({k for res in results for k in res.extra})
    out = []
    for k in keys:
        values = [res.extra[k] for res in results if k in res.extra]
        out.append(f"  {k} {statistics.median(values):.6g} (median of {len(values)})")
    return out


def run_workload(wl, seed: int, seconds: float, trace: bool, size: str) -> Run:
    workdir = WORK_DIR / f"{wl.NAME}-{os.getpid()}"
    try:
        return _run(wl, seed, seconds, trace, size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(wl, seed, seconds, trace, size, workdir) -> Run:
    lines = [f"workload {wl.NAME} seed {seed} seconds {seconds:g} trace {int(trace)} size {size}"]
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        dynres = fresh_import()
        state = wl.setup(dynres, seed, workdir, size)
        first = wl.make_round(state, 0)
        setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(setups)
    lines.append(f"  input digest {sha256([first.key])}")

    if not trace:
        results = _measure(wl, state, first, seconds)
        metrics, more = end_to_end(results, setup_s, getattr(wl, "TAIL_SAMPLES", TAIL_SAMPLES))
        attempted, failed, notes = wl.check(state, results, wl.EXPECT)
        lines += more + _extra_lines(results)
    else:
        t0 = time.perf_counter()
        plain = wl.run_round(state, first, None)
        plain.wall_s = time.perf_counter() - t0
        tracer = Tracer()
        tracer.install()
        try:
            traced = wl.run_round(state, first, tracer)
        finally:
            tracer.uninstall()
        results = [plain, traced]
        attempted, failed, notes = wl.check(state, results, wl.EXPECT)
        extras, x_attempted, x_failed = wl.trace_extras(state, traced)
        attempted += x_attempted
        failed += x_failed
        metrics = tracer.layer_metrics()
        metrics.update(dict.fromkeys(WORKLOAD_EXTRAS, 0))
        metrics.update(extras)
        untraced = plain.ops / plain.busy_s
        traced_rate = traced.ops / traced.busy_s
        metrics["trace.ops_per_s_untraced"] = untraced
        metrics["trace.ops_per_s_traced"] = traced_rate
        metrics["trace.overhead_pct"] = (untraced - traced_rate) / untraced * 100.0
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        span_file = TRACE_DIR / f"{wl.NAME}-seed{seed}.tsv.gz"
        tracer.write(span_file)
        lines.append(f"  {len(tracer)} spans written to {span_file.relative_to(ROOT)}")
        e2e, more = end_to_end([plain], setup_s, TAIL_SAMPLES)
        lines += ["  untraced round 0:"] + more
        lines += [f"  {k} {v:.6g} {END_TO_END_UNITS[k]}" for k, v in e2e.items() if k != "setup_s"]

    lines.append(f"  output digest {wl.output_digest(results)}")
    lines += ["  input: " + s for s in wl.describe(state, results[:1] if trace else results)]
    lines += ["  check failed: " + s for s in notes[:20]]
    lines.append(f"  error_rate {failed / attempted:.6g} ({failed} of {attempted} failed)")
    for name, value in metrics.items():
        lines.append(f"  {name} {value:.6g} {unit(name)}")
    return Run(state, results, metrics, attempted, failed, lines)
