"""Acceptance suite: one test per acceptance criterion, printing PASS lines.

The census-backed criteria share one (n=1, d=2, H=2, B=8) run per session.
Frozen census counts are regression fixtures produced by this pipeline and
cross-checked by the independent brute-force bucketing in criterion 8.
"""

import random
import time
from collections import defaultdict
from fractions import Fraction

import pytest

from conftest import _macaulay_quotient, binary, bq, random_model, random_morphism, twist, z_squared
from dynres import (
    CensusConfig,
    MorphismModel,
    SearchBudget,
    conjugacy_test,
    conjugate,
    default_budget,
    exact_determinant,
    factor_integer,
    load_records,
    local_exponent,
    macaulay_resultant,
    minimize_exponent,
    moduli_height,
    reduction_report,
    s_b_primes,
    sigma_invariants,
    sigma_invariants_full,
    stream_records,
    sylvester_resultant,
    twist_family_test,
)
from dynres.census import run_census
from dynres.conjugacy_twists import _search_witness

CENSUS_BUDGET = SearchBudget(a_max=4, translation_depth=2, matrix_bound=2)

# regression fixtures for the (n=1, d=2, H=2, B=8) census
FROZEN_TOTAL_MODELS = 6464
FROZEN_PER_B = {
    1: {"gamma": 0, "possible": 60, "classes": [0, 0], "northcott": 5},
    2: {"gamma": 116, "possible": 138, "classes": [3, 3], "northcott": 14},
    4: {"gamma": 350, "possible": 162, "classes": [13, 20], "northcott": 33},
    8: {"gamma": 1020, "possible": 204, "classes": [61, 74], "northcott": 100},
}
FROZEN_MONIC = {"count": 25, "all_unit_ideal": True}
FROZEN_BRUTE = {1: [0, 0], 2: [3, 3], 4: [13, 18]}


@pytest.fixture(scope="module")
def census_run(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("census") / "h2"
    config = CensusConfig(
        n=1, d=2, coeff_bound=2, B=8, budget=CENSUS_BUDGET, output_prefix=str(prefix)
    )
    t0 = time.time()
    stream_records(config)
    stream_elapsed = time.time() - t0
    summary = run_census(config)
    total_elapsed = time.time() - t0
    records = load_records(config.records_path)
    return {
        "config": config,
        "summary": summary,
        "records": records,
        "stream_elapsed": stream_elapsed,
        "total_elapsed": total_elapsed,
    }


def test_criterion_1_scaling_law():
    rng = random.Random(101)
    t0 = time.time()
    lambdas = [Fraction(2), Fraction(-2), Fraction(3), Fraction(-3), Fraction(1, 2)]
    for _ in range(200):
        n = rng.choice([1, 2])
        d = rng.choice([1, 2, 3])
        m = random_model(rng, n, d, bound=5)
        lam = rng.choice(lambdas)
        assert macaulay_resultant(m.scale(lam)).value == lam ** ((n + 1) * d**n) * macaulay_resultant(m).value
    elapsed = time.time() - t0
    assert elapsed < 30
    print(f"\nACCEPTANCE 1: PASS - Res(lam*phi) = lam^((n+1)d^n) Res(phi) on 200 random models ({elapsed:.1f}s)")


def test_criterion_2_model_independence():
    rng = random.Random(202)
    t0 = time.time()
    lambdas = [Fraction(2), Fraction(-2), Fraction(3), Fraction(-3), Fraction(1, 2), Fraction(5, 3), Fraction(-7, 2)]
    for k in range(500):
        if k % 5 == 4:
            m = random_morphism(rng, 2, rng.choice([1, 2]), bound=3)
        else:
            m = random_morphism(rng, 1, rng.choice([2, 3]), bound=5)
        lam = rng.choice(lambdas)
        p = rng.choice([2, 3, 5, 7])
        assert local_exponent(m.scale(lam), p) == local_exponent(m, p)
    elapsed = time.time() - t0
    assert elapsed < 30
    print(f"\nACCEPTANCE 2: PASS - e_p is model-independent on 500 random (phi, lam, p) triples ({elapsed:.1f}s)")


def test_criterion_3_good_reduction_golden_cases():
    budget = default_budget(2)
    res = macaulay_resultant(z_squared()).value
    assert abs(res) == 1
    rep = reduction_report(z_squared(), budget)
    assert rep.minimal_resultant == {} and rep.norm == 1 and rep.fully_certified

    entry = minimize_exponent(binary(2, [4, 0, 0], [0, 0, 1]), 2, budget)
    assert entry.eps_estimate == 0 and entry.certified

    rep8 = reduction_report(twist(8), budget)
    assert rep8.bad_primes() == (2,)
    assert not rep8.fully_certified  # upper bound, not certified minimal
    print("\nACCEPTANCE 3: PASS - z^2 unit ideal; [4X^2:Y^2] certifies eps_2 = 0; z+8/z bad prime {2} only")


@pytest.mark.xfail(
    strict=True,
    reason="superseded golden value: z+8/z is conjugate to z+2/z via the diagonal move z->2z, "
    "so the searched minimal-resultant norm is 2, not 8 (see notes/decisions ledger)",
)
def test_criterion_3_superseded_norm_fixture():
    rep8 = reduction_report(twist(8), default_budget(2))
    print(f"\nACCEPTANCE 3 (norm-8 fixture): FAIL expected - search attains norm {rep8.norm}")
    assert rep8.norm == 8


def test_criterion_3_searched_norm_is_two():
    rep8 = reduction_report(twist(8), default_budget(2))
    assert rep8.norm == 2
    assert rep8.minimal_resultant == {2: 1}


def test_criterion_4_s_b_containment(census_run):
    assert s_b_primes(8) == [2, 3, 5, 7]
    allowed = set(s_b_primes(8))
    members = 0
    for record in census_run["records"]:
        in_gamma = record.norm <= 8 and record.mult_height <= 8
        assert in_gamma == record.in_gamma
        if in_gamma:
            members += 1
            assert set(record.bad_primes()) <= allowed
    assert members > 0
    elapsed = census_run["stream_elapsed"]
    assert elapsed < 300
    print(
        f"\nACCEPTANCE 4: PASS - S_8 = [2,3,5,7]; bad primes of all {members} census members lie in S_8 "
        f"(record stream {elapsed:.0f}s < 5min)"
    )


def test_criterion_5_twist_criterion():
    t0 = time.time()
    values = [1, -1, 2, -2, 3, -3, 4, 8, 18]

    def squarefree_class(q):
        q = Fraction(q)
        kernel = -1 if q < 0 else 1
        for p, e in factor_integer(abs(q.numerator) * q.denominator).items():
            if e % 2:
                kernel *= p
        return kernel

    budget = default_budget(2)
    for i, b in enumerate(values):
        for c in values[i:]:
            expected = squarefree_class(b) == squarefree_class(c)
            assert twist_family_test(b, c) is expected
            verdict = conjugacy_test(twist(b), twist(c), budget)
            if verdict.status == "conjugate":
                assert expected
                assert conjugate(twist(c), verdict.witness).projectively_equal(twist(b))
            elif verdict.status == "not_conjugate":
                assert not expected

    verdict = conjugacy_test(twist(8), twist(2), budget)
    assert verdict.status == "conjugate"
    rows = verdict.witness.matrix
    assert rows[0][1] == rows[1][0] == 0
    assert abs(Fraction(rows[1][1]) / Fraction(rows[0][0])) in (Fraction(2), Fraction(1, 2))
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"\nACCEPTANCE 5: PASS - b/c square class governs the twist family; diagonal 2-scaling witness for (8,2) ({elapsed:.1f}s)")


def test_criterion_6_multiplier_relation(census_run):
    assert sigma_invariants(z_squared()) == (2, 0)
    assert sigma_invariants(bq(1, -2, 0, 0, 0, 1)) == (2, -8)
    checked = 0
    for record in census_run["records"]:
        s1, s2, s3 = sigma_invariants_full(record.model)
        assert s3 == s1 - 2
        assert (s1, s2) == record.sigma
        checked += 1
    print(f"\nACCEPTANCE 6: PASS - sigma_3 = sigma_1 - 2 recomputed on all {checked} census morphisms")


def test_criterion_7_resultant_agreement():
    rng = random.Random(707)
    t0 = time.time()
    for _ in range(100):
        m = random_model(rng, 1, rng.choice([1, 2, 3]), bound=6)
        direct = sylvester_resultant(*m.forms)
        assert macaulay_resultant(m).value == direct
        assert _macaulay_quotient(m, "bareiss") == direct  # generic Macaulay route, same value
    for _ in range(20):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        if not any(any(r) for r in rows):
            continue
        m = MorphismModel.from_coeff_lists(2, 1, rows)
        assert macaulay_resultant(m).value == exact_determinant(rows)
    for _ in range(100):
        size = rng.randint(2, 12)
        mat = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        assert exact_determinant(mat, "bareiss") == exact_determinant(mat, "modular_crt")
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE 7: PASS - Sylvester/Macaulay and bareiss/modular_crt agree exactly ({elapsed:.1f}s)")


def _brute_force_class_interval(records, B, budget):
    """Independent bucketing: fresh sigma keys, full pairwise witness graph, BFS components."""
    members = [r for r in records if r.norm <= B and r.mult_height <= B]
    by_sigma = defaultdict(list)
    for r in members:
        assert moduli_height(r.model).mult_height == r.mult_height
        by_sigma[sigma_invariants(r.model)].append(r.model)
    upper = 0
    for _, models in sorted(by_sigma.items()):
        k = len(models)
        adjacency = [[] for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                if _search_witness(models[i], models[j], budget) is not None:
                    adjacency[i].append(j)
                    adjacency[j].append(i)
        seen = [False] * k
        for start in range(k):
            if seen[start]:
                continue
            upper += 1
            stack = [start]
            seen[start] = True
            while stack:
                u = stack.pop()
                for v in adjacency[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
    return len(members), len(by_sigma), upper


def test_criterion_8_census_finiteness(census_run):
    summary = census_run["summary"]
    records = census_run["records"]
    assert summary.total_models == FROZEN_TOTAL_MODELS
    rows = {entry["B"]: entry for entry in summary.per_b}
    assert sorted(rows) == [1, 2, 4, 8]
    for b, frozen in FROZEN_PER_B.items():
        entry = rows[b]
        assert entry["gamma_definite"] == frozen["gamma"]
        assert entry["gamma_possible_extra"] == frozen["possible"]
        assert [entry["class_count_lower"], entry["class_count_upper"]] == frozen["classes"]
        assert entry["northcott_sigma_keys"] == frozen["northcott"]
    assert summary.monic == FROZEN_MONIC
    for small, big in zip(summary.per_b, summary.per_b[1:]):
        assert small["gamma_definite"] <= big["gamma_definite"]
        assert small["class_count_lower"] <= big["class_count_lower"]
        assert small["class_count_upper"] <= big["class_count_upper"]

    # the twist subfamily z + b/z partitions by square classes of b
    from dynres.census import record_key

    class_of = {}
    for cls in summary.classes:
        for member_key in cls["members"]:
            class_of[member_key] = cls["class_id"]
    twist_class = {b: class_of[record_key(twist(b))] for b in (-2, -1, 1, 2)}
    for b in twist_class:
        for c in twist_class:
            assert (twist_class[b] == twist_class[c]) == twist_family_test(b, c)

    # independent cross-check over the same record file: exact members and lower
    # bounds; the full pairwise closure may merge chains the incremental pass
    # leaves unknown, so its upper bound refines (never exceeds) the summary's
    t0 = time.time()
    for b, frozen_interval in FROZEN_BRUTE.items():
        members, lower, upper = _brute_force_class_interval(records, b, CENSUS_BUDGET)
        assert members == rows[b]["gamma_definite"]
        assert lower == rows[b]["class_count_lower"]
        assert [lower, upper] == frozen_interval
        assert lower <= upper <= rows[b]["class_count_upper"]
    brute_elapsed = time.time() - t0
    total = census_run["total_elapsed"]
    assert total + brute_elapsed < 600
    print(
        f"\nACCEPTANCE 8: PASS - class-count intervals finite, non-decreasing, frozen, and "
        f"brute-force cross-checked (census {total:.0f}s + cross-check {brute_elapsed:.0f}s < 10min)"
    )


def test_criterion_9_resumability(tmp_path):
    base = CensusConfig(n=1, d=2, coeff_bound=1, B=8, budget=CENSUS_BUDGET, output_prefix=str(tmp_path / "full"))
    total = len(stream_records(base))
    reference = base.records_path.read_bytes()

    interrupted = CensusConfig(
        n=1, d=2, coeff_bound=1, B=8, budget=CENSUS_BUDGET, output_prefix=str(tmp_path / "interrupted")
    )
    stream_records(interrupted, limit=total // 2)
    with open(interrupted.records_path, "ab") as fh:
        fh.write(b'{"key": "1|2|killed-mid-')  # torn tail, as a hard kill would leave
    stream_records(interrupted)
    assert interrupted.records_path.read_bytes() == reference
    print(f"\nACCEPTANCE 9: PASS - census interrupted at 50% resumes to a byte-identical record file ({total} records)")
