"""census workload: the paper's bounded-height census, batch, one thread.

Each round runs the (n=1, d=2, H=1, B=8) census with the acceptance budget
(4, 2, 2) into a fresh prefix.  The seed picks, per round, the record at
which the first pass is interrupted (``stream_records(limit=k)``); a
``run_census`` then resumes, completes and summarizes, and a second
``run_census`` on the finished prefix is the read path (``resume_s``).
H=1 is the largest box with frozen counts that fits several censuses in one
run (H=2 takes minutes).  The only workload that exercises census streaming,
summarizing and resume, and ``bucket_twists``.
"""

from __future__ import annotations

import copy
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import RoundResult, sha256

NAME = "census"
N, D, H, B = 1, 2, 1, 8
BUDGET = (4, 2, 2)
# 12% of the models search and take 20x longer than the rest; p90 of one
# census sits on the lower edge of that cluster and jumps with the host
# speed, so the tail pools five censuses and lands on p99 inside it
TAIL_SAMPLES = 1000

# frozen in tests/test_census.py::test_run_census_h1_summary
EXPECT = {
    "total_models": 240,
    "gamma_definite": {1: 0, 2: 18, 4: 50, 8: 106},
    "class_count_at_B": [20, 21],
    "sb_primes_at_B": [2, 3, 5, 7],
    "monic": {"count": 9, "all_unit_ideal": True},
}


def broken(expect):
    wrong = copy.deepcopy(expect)
    wrong["gamma_definite"][B] += 1
    return wrong


@dataclass
class State:
    dynres: object
    seed: int
    workdir: Path
    budget: object
    latencies: list[float] = field(default_factory=list)
    prefixes: int = 0
    record_checks: dict = field(default_factory=dict)  # records digest -> failures

    def config(self, threads: int = 1):
        self.prefixes += 1
        prefix = self.workdir / f"c{self.prefixes}"
        return self.dynres.CensusConfig(
            n=N, d=D, coeff_bound=H, B=B, budget=self.budget, output_prefix=str(prefix), threads=threads
        )


@dataclass
class Inputs:
    interrupt_at: int
    key: str


@dataclass
class Output:
    summary: dict
    resumed_summary: dict
    records_digest: str
    resumed_records_digest: str
    records_path: Path
    records_bytes: int
    interrupt_at: int


def setup(dynres, seed, workdir, size):
    workdir.mkdir(parents=True, exist_ok=True)
    state = State(dynres, seed, workdir, dynres.SearchBudget(*BUDGET))
    census = dynres.census
    # warm-up: monomial tables and witness candidates fill on first use
    model = next(census.enumerate_models(N, D, H))
    census.compute_record(state.config(), model, census.record_key(model))
    dynres.bucket_twists([model, model], state.budget)
    # per-model latency: one timer at the layer boundary the census calls
    inner = census.compute_record
    sink = state.latencies

    def timed_compute_record(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - t0)

    census.compute_record = timed_compute_record
    return state


def make_round(state, r):
    k = random.Random(f"census:{state.seed}:{r}").randint(1, EXPECT["total_models"] - 1)
    key = f"n={N} d={D} H={H} B={B} budget={BUDGET} threads=1 interrupt_at={k}"
    return Inputs(k, key)


def _digest(path: Path) -> tuple[str, int]:
    data = path.read_bytes()
    return sha256([data]), len(data)


def run_round(state, inputs, tracer):
    dynres = state.dynres
    config = state.config()
    state.latencies.clear()
    if tracer is not None:
        tracer.query_id += 1
    t0 = time.perf_counter()
    dynres.stream_records(config, limit=inputs.interrupt_at)
    summary = dynres.run_census(config)
    busy = time.perf_counter() - t0
    digest, size = _digest(config.records_path)
    if tracer is not None:
        tracer.query_id += 1
    t0 = time.perf_counter()
    resumed = dynres.run_census(config)
    resume_s = time.perf_counter() - t0
    resumed_digest, _ = _digest(config.records_path)
    out = Output(
        summary.to_json(), resumed.to_json(), digest, resumed_digest, config.records_path, size, inputs.interrupt_at
    )
    return RoundResult(summary.total_models, busy, list(state.latencies), out, {"resume_s": resume_s})


def _record_failures(state, path: Path) -> tuple[int, list[str]]:
    """Per-record checks: sigma_3 = sigma_1 - 2, and bad primes of members inside S_B."""
    dynres = state.dynres
    s_b = set(dynres.s_b_primes(B))
    failures = []
    for record in dynres.load_records(path):
        s1, s2, s3 = dynres.sigma_invariants_full(record.model)
        if s3 != s1 - 2 or record.sigma != (s1, s2):
            failures.append(f"record {record.key}: sigma_3 != sigma_1 - 2 or stored sigma differs")
        elif record.in_gamma and not set(record.bad_primes()) <= s_b:
            failures.append(f"record {record.key}: bad prime outside S_{B}")
    return len(failures), failures


def _summary_failures(summary: dict, expect: dict) -> list[str]:
    out = []
    if summary["total_models"] != expect["total_models"]:
        out.append(f"total_models {summary['total_models']} != {expect['total_models']}")
    rows = {e["B"]: e for e in summary["per_b"]}
    for b, want in expect["gamma_definite"].items():
        if rows.get(b, {}).get("gamma_definite") != want:
            out.append(f"gamma_definite at B={b} is {rows.get(b, {}).get('gamma_definite')}, expected {want}")
    top = rows.get(B, {})
    if [top.get("class_count_lower"), top.get("class_count_upper")] != expect["class_count_at_B"]:
        out.append(f"class count interval at B={B} differs from {expect['class_count_at_B']}")
    if top.get("sb_primes") != expect["sb_primes_at_B"]:
        out.append(f"S_{B} differs from {expect['sb_primes_at_B']}")
    if any(e["sb_check"] != "pass" for e in summary["per_b"]):
        out.append("an S_B check did not pass")
    if summary["monic"] != expect["monic"]:
        out.append(f"monic {summary['monic']} != {expect['monic']}")
    return out


def check(state, results, expect):
    attempted = failed = 0
    notes = []
    for res in results:
        out = res.outputs
        attempted += res.ops
        bad = _summary_failures(out.summary, expect)
        if out.resumed_summary != out.summary:
            bad.append("resume changed the summary")
        if out.resumed_records_digest != out.records_digest:
            bad.append("resume rewrote the records file")
        if bad:
            failed += res.ops
            notes += bad
            continue
        # identical bytes give identical per-record results: check each file once
        if out.records_digest not in state.record_checks:
            state.record_checks[out.records_digest] = _record_failures(state, out.records_path)
        n, why = state.record_checks[out.records_digest]
        failed += n
        notes += why
    return attempted, failed, notes


def output_digest(results):
    out = results[0].outputs
    return sha256([out.records_digest, json.dumps(out.summary, sort_keys=True)])


def describe(state, results):
    out = results[0].outputs
    return [
        f"coefficient box [-{H},{H}]^6 (n={N}, d={D}), B={B}, budget {BUDGET}, threads=1",
        f"{out.summary['total_models']} records per census, {out.records_bytes} bytes per records file",
        f"{len(results)} censuses, first passes interrupted after records "
        + ", ".join(str(r.outputs.interrupt_at) for r in results),
    ]


def trace_extras(state, traced):
    """Records file size, and the threads=2 census against threads=1, untraced."""
    dynres = state.dynres
    metrics = {"census.records_bytes": traced.outputs.records_bytes}
    digests = []
    for threads in (1, 2):
        config = state.config(threads)
        t0 = time.perf_counter()
        dynres.run_census(config)
        metrics[f"census.threads{threads}_s"] = time.perf_counter() - t0
        digests.append(_digest(config.records_path)[0])
    failed = int(digests[0] != digests[1])
    return metrics, 1, failed
