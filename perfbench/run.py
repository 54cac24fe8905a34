"""Benchmark of the dynres package, run from the root of a checkout.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Workloads (see BENCHMARK.json for why each was chosen):

- census:        the (n=1, d=2, H=1, B=8) bounded-height census, with resume
- resultant-pn:  Macaulay resultants on P^2 and P^3, both backends
- query-mix:     reduce / invariants / twist-test through dynres.cli.main

With ``--trace 0`` the run measures for about ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it runs round 0 untraced and then
traced, and reports the per-layer metrics, the tracing overhead and the
measured cliffs.  Every output is checked outside the clock.  Human-readable
lines come first; the last line of stdout is one JSON object.  The exit code
is 1 when any check fails and 2 when the dynres sources are missing.

``--smoke`` runs every workload at a tiny size and checks the benchmark
itself: every metric of BENCHMARK.json is emitted with its unit, a
deliberately wrong expected value makes error_rate nonzero, and two seeds
generate different inputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _workloads():
    import wl_census
    import wl_query_mix
    import wl_resultant_pn

    return {wl.NAME: wl for wl in (wl_census, wl_resultant_pn, wl_query_mix)}


def smoke() -> int:
    import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def expect(cond, what):
        print(("PASS " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for name, wl in _workloads().items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            run = harness.run_workload(wl, seed=1, seconds=0.01, trace=trace, size="smoke")
            print("\n".join(run.lines))
            result = json.loads(run.result_line())
            emitted = {m: v["unit"] for m, v in result["metrics"].items()}
            declared = {m["name"]: m["unit"] for m in spec[key]}
            expect(run.correct, f"{name} trace={int(trace)}: every check passes")
            expect(emitted == declared, f"{name} trace={int(trace)}: emits exactly the {key} metrics and units")
            if not trace:
                expect(all(v["value"] > 0 for v in result["metrics"].values()), f"{name}: end-to-end metrics are nonzero")
                printed = {line.split()[0] for line in run.lines}
                expect({"error_rate", "input", "output"} <= printed, f"{name}: prints error_rate and digests")
                attempted, failed, _ = wl.check(run.state, run.results, wl.broken(wl.EXPECT))
                expect(failed > 0, f"{name}: a wrong expected value makes error_rate {failed}/{attempted} nonzero")
        keys = []
        for seed in (1, 2):
            dynres = harness.fresh_import()
            state = wl.setup(dynres, seed, harness.WORK_DIR / f"smoke-{name}-{seed}", "smoke")
            keys.append(wl.make_round(state, 0).key)
        expect(keys[0] != keys[1], f"{name}: seeds 1 and 2 generate different inputs")
    shutil.rmtree(harness.WORK_DIR, ignore_errors=True)
    print("smoke: " + ("FAIL " + "; ".join(problems) if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check the benchmark itself at a tiny size")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dynres" / "__init__.py").is_file():
        print(f"dynres sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    if args.smoke:
        return smoke()

    import harness

    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    run = harness.run_workload(workloads[args.workload], args.seed, args.seconds, bool(args.trace), "full")
    print("\n".join(run.lines))
    print(run.result_line(), flush=True)
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
