import json
import math
import random
from fractions import Fraction

import pytest

from conftest import binary, bq, random_morphism, search_moves, twist, z_squared
from dynres import (
    InvalidArgumentError,
    LinearMap,
    LocalExponent,
    MorphismModel,
    NotAMorphismError,
    SearchBudget,
    conjugate,
    default_budget,
    local_exponent,
    macaulay_resultant,
    minimize_exponent,
    normalize_primitive,
    reduction_report,
    s_b_primes,
    sigma_invariants,
    valuation,
)
from dynres import reduction_theory
from dynres.reduction_theory import conjugated_exponent, exponent_step

ZERO_BUDGET = SearchBudget(a_max=0, translation_depth=0, matrix_bound=0)  # the tree walk off


def test_local_exponent_examples():
    assert local_exponent(twist(2), 2) == 1
    for p in (2, 3, 5, 7, 11):
        assert local_exponent(z_squared(), p) == 0
    scaled = bq(2, 0, 4, 0, 6, 0)
    assert valuation(macaulay_resultant(scaled).value, 2) == 5
    assert local_exponent(scaled, 2) == 1
    assert local_exponent(bq(1, 0, 2, 0, 3, 0), 2) == 1


def test_local_exponent_rejects_degenerate():
    with pytest.raises(NotAMorphismError):
        local_exponent(bq(0, 1, 0, 0, 0, 1), 2)


def test_local_exponent_model_independent(rng):
    for _ in range(60):
        m = random_morphism(rng, 1, rng.choice([2, 3]))
        lam = Fraction(rng.choice([2, -2, 3, 5, 7]), rng.choice([1, 2, 3]))
        p = rng.choice([2, 3, 5])
        assert local_exponent(m.scale(lam), p) == local_exponent(m, p)


def test_local_exponent_unimodular_invariance(rng):
    checked = 0
    while checked < 40:
        m = random_morphism(rng, 1, rng.choice([2, 3]))
        rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        if det not in (1, -1):
            continue
        p = rng.choice([2, 3, 5])
        f = LinearMap.from_rows(rows)
        assert local_exponent(conjugate(m, f), p) == local_exponent(m, p)
        checked += 1


def test_local_exponent_support(rng):
    for _ in range(20):
        m = normalize_primitive(random_morphism(rng, 1, 2))
        res = abs(int(macaulay_resultant(m).value))
        for p in (2, 3, 5, 7, 11, 13):
            if res % p:
                assert local_exponent(m, p) == 0


def test_conjugated_exponent_matches_direct_route(rng):
    # the covariance identity used by the search, against the from-scratch path
    checked = 0
    while checked < 40:
        m = normalize_primitive(random_morphism(rng, 1, rng.choice([2, 3]), bound=6))
        p = rng.choice([2, 3, 5])
        rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] == 0:
            continue
        v_res = valuation(macaulay_resultant(m).value, p)
        fast = conjugated_exponent(m, p, v_res, tuple(tuple(r) for r in rows))
        slow = local_exponent(conjugate(m, LinearMap.from_rows(rows)), p)
        assert fast == slow
        checked += 1


def test_conjugated_exponent_matches_direct_route_n2(rng):
    checked = 0
    while checked < 6:
        m = normalize_primitive(random_morphism(rng, 2, 2, bound=2))
        p = rng.choice([2, 3])
        rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        try:
            f = LinearMap.from_rows(rows)
        except InvalidArgumentError:
            continue
        v_res = valuation(macaulay_resultant(m).value, p)
        fast = conjugated_exponent(m, p, v_res, tuple(tuple(r) for r in rows))
        slow = local_exponent(conjugate(m, f), p)
        assert fast == slow
        checked += 1


def test_exponent_step_values():
    assert exponent_step(1, 2) == 2
    assert exponent_step(1, 3) == 6
    assert exponent_step(2, 2) == 4


def test_minimize_examples():
    budget = default_budget(2)
    four = binary(2, [4, 0, 0], [0, 0, 1])
    entry = minimize_exponent(four, 2, budget)
    assert entry == LocalExponent(p=2, e_model=4, eps_estimate=0, certified=True)
    entry = minimize_exponent(twist(2), 2, budget)
    assert entry == LocalExponent(p=2, e_model=1, eps_estimate=1, certified=False)
    entry = minimize_exponent(z_squared(), 5, budget)
    assert entry == LocalExponent(p=5, e_model=0, eps_estimate=0, certified=True)


def test_minimize_zero_budget():
    four = binary(2, [4, 0, 0], [0, 0, 1])
    entry = minimize_exponent(four, 2, ZERO_BUDGET)
    assert entry.eps_estimate == 4 and not entry.certified
    entry = minimize_exponent(z_squared(), 2, ZERO_BUDGET)
    assert entry.eps_estimate == 0 and entry.certified


def test_minimize_monotone_in_budget(rng):
    budgets = [ZERO_BUDGET, SearchBudget(1, 1, 0), SearchBudget(2, 1, 0), default_budget(2)]
    for _ in range(15):
        m = random_morphism(rng, 1, 2, bound=4)
        p = rng.choice([2, 3])
        estimates = [minimize_exponent(m, p, b).eps_estimate for b in budgets]
        assert estimates == sorted(estimates, reverse=True)


def test_search_moves_monotone_sets():
    small = {m for m in search_moves(1, 2, SearchBudget(1, 1, 0))}
    big = {m for m in search_moves(1, 2, SearchBudget(2, 2, 0))}
    assert small <= big
    assert not list(search_moves(1, 2, ZERO_BUDGET))


def test_reduction_report_examples():
    budget = default_budget(2)
    rep = reduction_report(z_squared(), budget)
    assert rep.minimal_resultant == {}
    assert rep.norm == 1 and rep.fully_certified

    rep = reduction_report(binary(2, [4, 0, 0], [0, 0, 1]), budget)
    assert rep.minimal_resultant == {}
    assert rep.norm == 1 and rep.fully_certified

    # z + 8/z is conjugate to z + 2/z by z -> 2z, so the searched minimum at 2 is 1
    rep = reduction_report(twist(8), budget)
    assert rep.res == 8
    assert rep.minimal_resultant == {2: 1}
    assert rep.norm == 2
    assert rep.bad_primes() == (2,)
    assert not rep.fully_certified
    assert rep.certified_norm_lower_bound() == 1


def test_reduction_report_local_entries():
    rep = reduction_report(bq(1, 0, 6, 0, 1, 0), default_budget(2))  # Res = 6
    assert [e.p for e in rep.local] == [2, 3]
    assert all(e.e_model == 1 and e.eps_estimate == 1 and not e.certified for e in rep.local)
    assert rep.norm == 6


def test_norm_and_bad_primes_match_the_minimal_resultant_ideal(rng):
    budget = default_budget(2)
    models = [z_squared(), twist(8), bq(1, 0, 6, 0, 1, 0)] + [random_morphism(rng, 1, 2) for _ in range(40)]
    reports = [reduction_report(m, budget) for m in models]
    for rep in reports:
        assert rep.norm == math.prod(p**e for p, e in rep.minimal_resultant.items())
        assert rep.bad_primes() == tuple(rep.minimal_resultant) == tuple(sorted(rep.minimal_resultant))
    assert sum(len(rep.bad_primes()) >= 2 for rep in reports) >= 3


def test_has_good_reduction():
    # good reduction is a certified zero minimum; a positive one is only an upper bound
    budget = default_budget(2)
    assert minimize_exponent(z_squared(), 3, budget).certified
    assert not minimize_exponent(twist(2), 2, budget).certified
    assert minimize_exponent(binary(2, [4, 0, 0], [0, 0, 1]), 2, budget).certified


def test_reduction_refuses_other_n():
    budget = default_budget(2)
    point = MorphismModel.from_coeff_lists(0, 2, [[3]])  # Res = 3, so a prime to minimize
    unit = MorphismModel.from_coeff_lists(2, 2, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]])
    # Res = 0: the shape is refused before any resultant is computed
    degenerate = MorphismModel.from_coeff_lists(2, 2, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    for model in (point, unit, degenerate):
        for call in (
            lambda: reduction_report(model, budget),
            lambda: minimize_exponent(model, 3, budget),
        ):
            with pytest.raises(InvalidArgumentError) as excinfo:
                call()
            assert excinfo.value.code == "invalid-argument"


def test_s_b_primes():
    assert s_b_primes(8) == [2, 3, 5, 7]
    assert s_b_primes(1) == []
    assert s_b_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    with pytest.raises(InvalidArgumentError):
        s_b_primes(Fraction(1, 2))


def test_local_exponent_type_invariants():
    with pytest.raises(InvalidArgumentError):
        LocalExponent(2, 1, 2, False)  # estimate above the model exponent
    with pytest.raises(InvalidArgumentError):
        LocalExponent(2, 3, 1, True)  # only zero certifies
    with pytest.raises(InvalidArgumentError):
        LocalExponent(2, 3, 0, False)  # and a zero minimum is always certified


def test_minimize_certifies_only_zero(rng):
    for _ in range(20):
        m = random_morphism(rng, 1, 2, bound=3)
        entry = minimize_exponent(m, 2, default_budget(2))
        assert entry.certified == (entry.eps_estimate == 0)
        assert 0 <= entry.eps_estimate <= entry.e_model


def test_search_moves_n2_list_pinned():
    # diag(1, 2^a, 2^b) for |a|, |b| <= 2, shifted to a primitive integer matrix
    expected = [
        (2, 1, 1), (2, 1, 2), (2, 1, 4), (2, 2, 1), (1, 1, 2), (2, 4, 1), (1, 2, 1), (1, 2, 2),
        (4, 1, 1), (4, 1, 2), (4, 1, 4), (4, 1, 8), (4, 1, 16), (4, 2, 1), (2, 1, 8), (4, 4, 1),
        (1, 1, 4), (4, 8, 1), (1, 2, 4), (4, 16, 1), (2, 8, 1), (1, 4, 1), (1, 4, 2), (1, 4, 4),
    ]
    moves = list(search_moves(2, 2, SearchBudget(1, 0, 0)))
    assert moves == [tuple(tuple(v if i == j else 0 for j in range(3)) for i, v in enumerate(diag)) for diag in expected]


def _translation_grid(p, budget):
    """The n = 1 move grid searched before the tree walk, as integer matrices.

    Diagonal scalings diag(1, p^a), then the triangular moves
    [[1, beta p^b], [0, p^a]] for 0 < beta < p^depth and |b| <= depth.
    """
    amp = 2 * budget.a_max
    exps = sorted(range(-amp, amp + 1), key=lambda x: (abs(x), x))
    depth = budget.translation_depth
    offsets = [Fraction(0)] + [beta * Fraction(p) ** b for beta in range(1, p**depth) for b in range(-depth, depth + 1)]
    for off in offsets:
        for a in exps:
            if off == 0 and a == 0:
                continue
            rows = [[Fraction(1), off], [Fraction(0), Fraction(p) ** a]]
            lcm = math.lcm(*(x.denominator for row in rows for x in row))
            yield tuple(tuple(int(x * lcm) for x in row) for row in rows)


def _grid_minimum(model, p, budget):
    prim = normalize_primitive(model)
    v_res = valuation(macaulay_resultant(prim).value, p)
    floor = v_res % exponent_step(1, prim.d)
    best = v_res
    for fmat in _translation_grid(p, budget):
        if best <= floor:
            break
        best = min(best, conjugated_exponent(prim, p, v_res, fmat))
    return best


def test_tree_walk_never_above_translation_grid(rng):
    lowered = 0
    for _ in range(24):
        d = rng.choice([2, 3])
        p = rng.choice([2, 3, 5])
        m = random_morphism(rng, 1, d, bound=4)
        # move the model away from its minimal vertex so that the search has work to do
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        rows = [[p**i, rng.randint(0, p * p)], [0, p**j]] if rng.random() < 0.5 else [[p**i, 0], [rng.randint(0, p * p), p**j]]
        m = conjugate(m, LinearMap.from_rows(rows))
        budget = default_budget(d)
        walked = minimize_exponent(m, p, budget)
        grid = _grid_minimum(m, p, budget)
        assert walked.eps_estimate <= grid
        lowered += grid < walked.e_model
    assert lowered >= 8  # the oracle comparison is not vacuous


def test_tree_walk_reaches_translation_only_minimum():
    # z^2 moved two steps along the ((p, a), (0, 1)) edges: no diagonal
    # scaling lowers e_p, and walking those edges back gives good reduction
    for p, a in ((2, 1), (3, 2), (5, 3)):
        back = LinearMap.from_rows([[1, -a], [0, p]])  # inverse of ((p, a), (0, 1)) up to scalars
        m = normalize_primitive(conjugate(conjugate(z_squared(), back), back))
        v_res = valuation(macaulay_resultant(m).value, p)
        assert v_res > 0
        assert min(conjugated_exponent(m, p, v_res, f) for f in search_moves(1, p, default_budget(2))) >= v_res
        assert minimize_exponent(m, p, default_budget(2)) == LocalExponent(p, v_res, 0, True)


def _cliff_model(rng, p):
    """A model with |Res| = p^2 and p in a sigma denominator, coefficients in [-4, 4]."""
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(2)]
        if not any(any(row) for row in rows):
            continue
        model = normalize_primitive(bq(*rows[0], *rows[1]))
        if abs(macaulay_resultant(model).value) == p * p and any(
            s.denominator % p == 0 for s in sigma_invariants(model)
        ):
            return model


def test_cliff_p17_scores_one_vertex(monkeypatch):
    # 17 in a sigma denominator rules out good reduction at 17, so e_17 = 2 is
    # already the minimum: the walk scores the 18 neighbours once and stops
    model = _cliff_model(random.Random(17), 17)
    calls = []
    inner = reduction_theory.conjugated_exponent

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(reduction_theory, "conjugated_exponent", counted)
    rep = reduction_report(model, default_budget(2))
    assert [(e.p, e.e_model, e.eps_estimate) for e in rep.local] == [(17, 2, 2)]
    assert 0 < len(calls) <= 17 + 1


def test_local_exponent_json_shape():
    entry = LocalExponent(3, 4, 2, False)
    assert json.dumps(entry.to_json()) == '{"p": "3", "e": 4, "eps": 2, "certified": false}'
    assert LocalExponent.from_json(entry.to_json()) == entry
    assert LocalExponent.from_json(LocalExponent(7, 2, 0, True).to_json()) == LocalExponent(7, 2, 0, True)
