"""query-mix workload: reduce, invariants and twist-test through the CLI, one closed-loop client.

Each query calls ``dynres.cli.main`` in-process on payload files written in
set-up, with stdout captured.  Models are (n=1, d=2) with coefficients in
[-3, 3].  twist-test pairs come in three kinds of equal count:

- conjugate: psi = conjugate(phi, f) for a random f with entries in [-3, 3],
  inside the default matrix_bound, so the witness search must succeed;
- separated: two random models whose sigma invariants differ;
- unknown: z + b/z against z + c/z with b/c not a square, which share sigma,
  exhaust all 1008 witness candidates and must end unknown.

Ordinary reduce inputs are drawn per search class in fixed counts
(REDUCE_MIX): the class is the largest prime p with p^2 | Res, which decides
the size of the search, and whether p divides a sigma denominator.
Multipliers of a map with good reduction are p-integral, so in that case no
conjugate has good reduction at p and the search cannot stop early.  The
classes cost from 0.2 ms to 0.8 s per query, so fixed counts keep the work
per round alike across seeds.

Each round also holds one cliff input at p = 11: |Res| = p^2 with p in a
sigma denominator, so the translation search tries all ~80 p^2 moves.  The
cliff is put into every seed on purpose, and every round alike, so rounds
stay comparable; ordinary reduce inputs never have q^2 | Res for a prime
q >= 11.  The traced run measures the same cliff at p = 17 once.
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from harness import RoundResult, sha256

NAME = "query-mix"
COEFF = 3
CLIFF_COEFF = 4
CLIFF_P = 11  # one cliff input per round
CLIFF_P17 = 17  # measured once in the traced run: too slow for every round

# ordinary reduce inputs per round: (largest p with p^2 | Res, p divides a
# sigma denominator) -> count; None is a squarefree Res, where no search runs
REDUCE_MIX = {None: 12, (2, True): 4, (2, False): 2, (3, True): 5, (3, False): 2, (5, True): 1, (7, True): 1}

SIZES = {
    "full": {"reduce": REDUCE_MIX, "invariants": 50, "twist": 9},
    "smoke": {"reduce": {None: 1, (2, True): 1}, "invariants": 2, "twist": 1},
}

EXPECT = {"conjugate": "conjugate", "separated": "not_conjugate", "unknown": "unknown"}


def broken(expect):
    wrong = copy.deepcopy(expect)
    wrong["separated"] = "unknown"
    return wrong


@dataclass
class State:
    dynres: object
    seed: int
    workdir: Path
    size: dict


@dataclass
class Query:
    kind: str  # reduce | cliff | invariants | conjugate | separated | unknown
    argv: list[str]
    models: tuple  # the models behind the payload files
    cliff_p: int | None = None
    search_class: tuple | None = None


@dataclass
class Inputs:
    queries: list[Query]
    key: str


def _random_model(dynres, rng, bound):
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(3)] for _ in range(2)]
        if not any(any(row) for row in rows):
            continue
        model = dynres.normalize_primitive(dynres.MorphismModel.from_coeff_lists(1, 2, rows))
        res = dynres.macaulay_resultant(model).value
        if res != 0:
            return model, abs(int(res))


def _ordinary(dynres, rng, mix):
    """Models filling the counts of mix, in draw order, with their search class."""
    wanted = dict(mix)
    out = []
    while any(wanted.values()):
        model, res = _random_model(dynres, rng, COEFF)
        squared = [p for p, e in dynres.factor_integer(res).items() if e >= 2]
        cls = None
        if squared:
            p = max(squared)
            if not (wanted.get((p, True)) or wanted.get((p, False))):
                continue
            cls = (p, any(s.denominator % p == 0 for s in dynres.sigma_invariants(model)))
        if wanted.get(cls):
            wanted[cls] -= 1
            out.append((model, cls))
    return out


def cliff_model(dynres, rng, p):
    """A model with |Res| = p^2 whose sigma has p in a denominator."""
    while True:
        model, res = _random_model(dynres, rng, CLIFF_COEFF)
        if res == p * p and any(s.denominator % p == 0 for s in dynres.sigma_invariants(model)):
            return model


def _twist_pair(dynres, rng, kind):
    if kind == "conjugate":
        phi = _random_model(dynres, rng, COEFF)[0]
        while True:
            f = [[rng.randint(-COEFF, COEFF) for _ in range(2)] for _ in range(2)]
            if f[0][0] * f[1][1] - f[0][1] * f[1][0] != 0:
                psi = dynres.normalize_primitive(dynres.conjugate(phi, dynres.LinearMap.from_rows(f)))
                if not psi.projectively_equal(phi):
                    return phi, psi
    if kind == "separated":
        phi = _random_model(dynres, rng, COEFF)[0]
        while True:
            psi = _random_model(dynres, rng, COEFF)[0]
            if dynres.sigma_invariants(psi) != dynres.sigma_invariants(phi):
                return phi, psi
    while True:
        b, c = rng.choice([-1, 1]) * rng.randint(1, 30), rng.choice([-1, 1]) * rng.randint(1, 30)
        if not dynres.twist_family_test(b, c):
            return dynres.quadratic_twist_model(b), dynres.quadratic_twist_model(c)


def setup(dynres, seed, workdir, size):
    workdir.mkdir(parents=True, exist_ok=True)
    state = State(dynres, seed, workdir, SIZES[size])
    # warm-up: monomial tables and the 1008 witness candidates fill on first use
    phi, psi = dynres.quadratic_twist_model(2), dynres.quadratic_twist_model(3)
    dynres.conjugacy_test(phi, psi, dynres.default_budget(2))
    dynres.reduction_report(phi, dynres.default_budget(2))
    dynres.moduli_height(phi)
    return state


def make_round(state, r):
    dynres = state.dynres
    size = state.size
    rng = random.Random(f"query-mix:{state.seed}:{r}")
    folder = state.workdir / f"r{r}"
    folder.mkdir(parents=True, exist_ok=True)
    numbers = itertools.count()

    def payload(model):
        path = folder / f"m{next(numbers)}.json"
        path.write_text(json.dumps(model.to_json()), encoding="utf-8")
        return str(path)

    queries = []
    for model, cls in _ordinary(dynres, rng, size["reduce"]):
        queries.append(Query("reduce", ["reduce", payload(model)], (model,), search_class=cls))
    model = cliff_model(dynres, rng, CLIFF_P)
    queries.append(Query("cliff", ["reduce", payload(model)], (model,), CLIFF_P))
    for _ in range(size["invariants"]):
        model = _random_model(dynres, rng, COEFF)[0]
        queries.append(Query("invariants", ["invariants", payload(model)], (model,)))
    for kind in ("conjugate", "separated", "unknown"):
        for _ in range(size["twist"]):
            phi, psi = _twist_pair(dynres, rng, kind)
            queries.append(Query(kind, ["twist-test", payload(phi), payload(psi)], (phi, psi)))
    rng.shuffle(queries)
    key = ";".join(f"{q.kind}:" + "|".join(str(m.all_coeffs()) for m in q.models) for q in queries)
    return Inputs(queries, key)


def run_round(state, inputs, tracer):
    cli = state.dynres.cli
    outputs = []
    latencies = []
    t_round = time.perf_counter()
    for query in inputs.queries:
        if tracer is not None:
            tracer.query_id += 1
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            code = cli.main(query.argv)
            latencies.append(time.perf_counter() - t0)
        outputs.append((query, code, buf.getvalue()))
    busy = time.perf_counter() - t_round
    return RoundResult(len(outputs), busy, latencies, outputs)


def _reduce_failures(query, out) -> list[str]:
    bad = []
    eps = {}
    for entry in out["local"]:
        e, ep, cert = entry["e"], entry["eps"], entry["certified"]
        if not 0 <= ep <= e:
            bad.append(f"eps {ep} outside [0, {e}] at p={entry['p']}")
        if cert != (ep == 0):
            bad.append(f"certified={cert} with eps {ep} at p={entry['p']}")
        eps[int(entry["p"])] = (e, ep)
    if out["minimal_resultant"] != {str(p): ep for p, (_, ep) in eps.items() if ep}:
        bad.append("minimal_resultant disagrees with local exponents")
    if int(out["norm"]) != math.prod(p**ep for p, (_, ep) in eps.items()):
        bad.append("norm disagrees with local exponents")
    if query.cliff_p is not None and eps.get(query.cliff_p) != (2, 2):
        bad.append(f"cliff prime {query.cliff_p}: (e, eps) = {eps.get(query.cliff_p)}, expected (2, 2)")
    return bad


def _invariants_failures(out) -> list[str]:
    if out["kind"] != "sigma_invariants":
        return [f"kind {out['kind']}"]
    s1, s2 = Fraction(out["sigma1"]), Fraction(out["sigma2"])
    z = s1.denominator * s2.denominator // math.gcd(s1.denominator, s2.denominator)
    x, y = int(s1 * z), int(s2 * z)
    g = math.gcd(math.gcd(x, y), z)
    point = [str(x // g), str(y // g), str(z // g)]
    if out["moduli_point"] != point:
        return [f"moduli point {out['moduli_point']} != {point}"]
    height = float(f"{math.log(max(abs(x), abs(y), z) // g):.12g}")
    if out["moduli_height"] != height:
        return [f"moduli height {out['moduli_height']} != {height}"]
    return []


def _twist_failures(dynres, query, out, expect) -> list[str]:
    want = expect[query.kind]
    if out["status"] != want:
        return [f"status {out['status']}, expected {want}"]
    if want != "conjugate":
        return [] if out["witness"] is None else ["witness given without a conjugacy"]
    phi, psi = query.models
    witness = dynres.LinearMap.from_rows([[Fraction(x) for x in row] for row in out["witness"]])
    if not dynres.conjugate(psi, witness).projectively_equal(phi):
        return ["witness does not re-verify through conjugate"]
    return []


def check(state, results, expect):
    dynres = state.dynres
    attempted = failed = 0
    notes = []
    for res in results:
        for query, code, text in res.outputs:
            attempted += 1
            if code != 0:
                bad = [f"exit code {code}: {text.strip()}"]
            else:
                out = json.loads(text)
                if query.kind in ("reduce", "cliff"):
                    bad = _reduce_failures(query, out)
                elif query.kind == "invariants":
                    bad = _invariants_failures(out)
                else:
                    bad = _twist_failures(dynres, query, out, expect)
            if bad:
                failed += 1
                notes.append(f"{query.kind} {query.argv[1:]}: " + "; ".join(bad))
    return attempted, failed, notes


def output_digest(results):
    return sha256(f"{code}:{text}" for _, code, text in results[0].outputs)


def describe(state, results):
    outputs = [o for res in results for o in res.outputs]
    kinds = Counter(q.kind for q, _, _ in outputs)
    classes = Counter(q.search_class for q, _, _ in outputs if q.kind == "reduce")
    verdicts = Counter(json.loads(text)["status"] for q, code, text in outputs if q.argv[0] == "twist-test" and code == 0)
    cliff = sorted(lat for res in results for (q, _, _), lat in zip(res.outputs, res.latencies) if q.kind == "cliff")
    reduces = kinds["reduce"] + kinds["cliff"]
    return [
        f"{len(outputs)} queries; " + ", ".join(f"{k}: {c}" for k, c in sorted(kinds.items())),
        "reduce search classes (p, exhaustive): "
        + ", ".join(f"{c}: {n}" for c, n in sorted(classes.items(), key=lambda kv: (kv[0] is not None, kv[0]))),
        "twist-test verdicts " + ", ".join(f"{v}: {c}" for v, c in sorted(verdicts.items())),
        f"cliff inputs {len(cliff)} of {reduces} reduce inputs ({len(cliff) / reduces:.1%}), "
        f"all at p={CLIFF_P}, median {cliff[len(cliff) // 2]:.2f} s",
    ]


def trace_extras(state, traced):
    """The translation-search cliff at p = 17, timed once with a call counter."""
    dynres = state.dynres
    model = cliff_model(dynres, random.Random(f"query-mix:{state.seed}:p17"), CLIFF_P17)
    theory = dynres.reduction_theory
    inner = theory.conjugated_exponent
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    theory.conjugated_exponent = counted
    try:
        t0 = time.perf_counter()
        report = dynres.reduction_report(model, dynres.default_budget(2))
        elapsed = time.perf_counter() - t0
    finally:
        theory.conjugated_exponent = inner
    ok = [(e.p, e.e_model, e.eps_estimate) for e in report.local] == [(CLIFF_P17, 2, 2)]
    return {"cliff.p17_moves": calls[0], "cliff.p17_s": elapsed}, 1, int(not ok)
