"""resultant-pn workload: Macaulay resultants on P^2 and P^3, one closed-loop client.

Each round draws fresh seeded models of shape (n, d) in {(2,2), (2,3),
(3,2)} (Macaulay matrices of size 15, 36 and 56).  Dense draws whose reduced
minor is invertible take the quotient path; sparse draws whose reduced minor
is singular take the perturbation path, which costs 15-80x more.  On (3,2)
a perturbation call takes ~2.5 s and would swamp the round, so only (2,2)
and (2,3) draw perturbation inputs.  Every model is computed once with each
backend: a first pass over the round in seeded order alternates bareiss and
modular_crt call by call, and a second pass in the same order swaps them, so
equal models are never computed back to back.  Here resultants and _matrix
do nearly all the work and reduction search does none.

Checks, outside the clock: the two backends agree exactly on every input,
and the scaling law Res(l*phi) = l^((n+1) d^n) Res(phi) holds on one
quotient input per shape and round.
"""

from __future__ import annotations

import copy
import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from harness import RoundResult, sha256

NAME = "resultant-pn"
SHAPES = ((2, 2), (2, 3), (3, 2))
BACKENDS = ("bareiss", "modular_crt")
COEFF = 5  # coefficients in [-COEFF, COEFF]
SPARSE_ZERO = 0.6  # chance a coefficient of a sparse draw is zero
SCALES = (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 3))

# per round and shape: models drawn for the quotient and the perturbation path
SIZES = {
    "full": {"quotient": 30, "perturbation": {(2, 2): 1, (2, 3): 1, (3, 2): 0}},
    "smoke": {"quotient": 1, "perturbation": {(2, 2): 1, (2, 3): 0, (3, 2): 0}},
}

EXPECT = {"scaling_exponent_offset": 0}


def broken(expect):
    wrong = copy.deepcopy(expect)
    wrong["scaling_exponent_offset"] = 1
    return wrong


@dataclass
class State:
    dynres: object
    seed: int
    size: dict


@dataclass
class Call:
    model: object
    shape: tuple[int, int]
    path: str  # the path the draw was selected for
    backend: str


@dataclass
class Inputs:
    calls: list[Call]
    key: str


def _draw(dynres, rng, n, d, sparse):
    per_form = len(dynres.monomials(n, d))
    while True:
        rows = [
            [0 if sparse and rng.random() < SPARSE_ZERO else rng.randint(-COEFF, COEFF) for _ in range(per_form)]
            for _ in range(n + 1)
        ]
        if any(any(row) for row in rows):
            return dynres.MorphismModel.from_coeff_lists(n, d, rows)


def _minor_vanishes(dynres, model) -> bool:
    return dynres.exact_determinant(dynres.macaulay_matrix(model).minor_rows()) == 0


def _models(dynres, rng, shape, path, count):
    out = []
    sparse = path == "perturbation"
    while len(out) < count:
        model = _draw(dynres, rng, *shape, sparse)
        if _minor_vanishes(dynres, model) == sparse:
            out.append(model)
    return out


def setup(dynres, seed, workdir, size):
    state = State(dynres, seed, SIZES[size])
    # warm-up: monomial tables and the CRT prime list fill on first use
    for n, d in SHAPES:
        model = _draw(dynres, random.Random(0), n, d, False)
        for backend in BACKENDS:
            dynres.macaulay_resultant(model, backend)
    return state


def make_round(state, r):
    dynres = state.dynres
    rng = random.Random(f"resultant-pn:{state.seed}:{r}")
    drawn = []
    for shape in SHAPES:
        counts = {"quotient": state.size["quotient"], "perturbation": state.size["perturbation"][shape]}
        for path, count in counts.items():
            drawn += [(model, shape, path) for model in _models(dynres, rng, shape, path, count)]
    rng.shuffle(drawn)
    calls = [Call(m, shape, path, BACKENDS[(i + swap) % 2]) for swap in (0, 1) for i, (m, shape, path) in enumerate(drawn)]
    key = ";".join(f"{c.backend}:{c.model.all_coeffs()}" for c in calls)
    return Inputs(calls, key)


def run_round(state, inputs, tracer):
    resultant = state.dynres.macaulay_resultant
    outputs = []
    latencies = []
    t_round = time.perf_counter()
    for call in inputs.calls:
        if tracer is not None:
            tracer.query_id += 1
        t0 = time.perf_counter()
        value = resultant(call.model, call.backend)
        latencies.append(time.perf_counter() - t0)
        outputs.append((call, value))
    busy = time.perf_counter() - t_round
    return RoundResult(len(outputs), busy, latencies, outputs)


def check(state, results, expect):
    dynres = state.dynres
    attempted = failed = 0
    notes = []
    for res in results:
        by_model = {}
        for call, value in res.outputs:
            by_model.setdefault(id(call.model), []).append((call, value))
        scaled_shapes = set()
        for pair in by_model.values():
            (call, value), (_, again) = pair
            attempted += len(pair)
            model = call.model
            bad = []
            if (again.value, again.method) != (value.value, value.method):
                bad.append("bareiss and modular_crt disagree")
            if (value.method == "perturbation") != (call.path == "perturbation"):
                bad.append(f"took the {value.method} path, drawn for {call.path}")
            if call.path == "quotient" and call.shape not in scaled_shapes:
                scaled_shapes.add(call.shape)
                n, d = call.shape
                lam = SCALES[len(scaled_shapes) % len(SCALES)]
                exponent = (n + 1) * d**n + expect["scaling_exponent_offset"]
                if dynres.macaulay_resultant(model.scale(lam)).value != lam**exponent * value.value:
                    bad.append(f"scaling law fails for lambda={lam}")
            if bad:
                failed += len(pair)
                notes.append(f"{call.shape} {model.all_coeffs()}: " + "; ".join(bad))
    return attempted, failed, notes


def output_digest(results):
    return sha256(f"{call.backend}:{value.method}:{value.value}" for call, value in results[0].outputs)


def describe(state, results):
    calls = [(call, value) for res in results for call, value in res.outputs]
    total = len(calls)
    shapes = Counter(call.shape for call, _ in calls)
    methods = Counter(value.method for _, value in calls)
    backends = Counter(call.backend for call, _ in calls)
    vanishing = sum(1 for _, value in calls if value.vanishes())
    pert_time = sum(
        lat for res in results for lat, (_, v) in zip(res.latencies, res.outputs) if v.method == "perturbation"
    )
    all_time = sum(sum(res.latencies) for res in results)
    return [
        f"{total} calls; shapes " + ", ".join(f"{s}: {shapes[s]}" for s in SHAPES),
        "paths " + ", ".join(f"{m}: {c / total:.1%}" for m, c in sorted(methods.items()))
        + f"; perturbation is {pert_time / all_time:.1%} of call time",
        "backends " + ", ".join(f"{b}: {backends[b] / total:.0%}" for b in BACKENDS),
        f"vanishing resultants {vanishing / total:.1%}; coefficients in [-{COEFF},{COEFF}], sparse draws {SPARSE_ZERO:.0%} zeros",
    ]


def trace_extras(state, traced):
    return {}, 0, 0
