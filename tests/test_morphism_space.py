import json
import math
from fractions import Fraction

import pytest

from conftest import binary, bq, proj_eq, random_model, random_morphism, twist, z_squared
from dynres import (
    HomogeneousForm,
    IndeterminatePointError,
    InvalidArgumentError,
    LinearMap,
    MorphismModel,
    SchemaError,
    coefficient_height,
    conjugate,
    evaluate,
    min_coeff_valuation,
    monomials,
    normalize_primitive,
)
from dynres import morphism_space


def test_monomials_lex_descending():
    assert monomials(1, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials(2, 2) == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert len(monomials(2, 3)) == 10  # C(2+3, 3)


def test_zero_model_rejected():
    with pytest.raises(InvalidArgumentError):
        MorphismModel.from_coeff_lists(1, 2, [[0, 0, 0], [0, 0, 0]])


def test_normalize_primitive_examples():
    assert normalize_primitive(bq(2, 0, 4, 0, 6, 0)) == bq(1, 0, 2, 0, 3, 0)
    assert normalize_primitive(z_squared()) == z_squared()
    half = MorphismModel.from_coeff_lists(1, 2, [[Fraction(1, 2), 0, 0], [0, 0, Fraction(3, 4)]])
    assert normalize_primitive(half) == bq(2, 0, 0, 0, 0, 3)


def test_normalize_primitive_properties(rng):
    for _ in range(50):
        m = random_model(rng, rng.choice([1, 2]), rng.choice([1, 2]))
        lam = Fraction(rng.choice([1, 2, -3, 5]), rng.choice([1, 2, 7]))
        prim = normalize_primitive(m.scale(lam))
        assert prim == normalize_primitive(m)  # scaling-invariant
        assert normalize_primitive(prim) == prim  # idempotent
        ints = [int(c) for c in prim.all_coeffs()]
        assert math.gcd(*ints) == 1
        assert next(v for v in ints if v) > 0


def test_min_coeff_valuation_examples():
    assert min_coeff_valuation(bq(2, 0, 4, 0, 6, 0), 2) == 1
    assert min_coeff_valuation(bq(1, 0, 2, 0, 3, 0), 5) == 0
    assert min_coeff_valuation(binary(2, [4, 0, 0], [0, 0, 8]), 2) == 2


def test_conjugate_twist_example():
    f = LinearMap.from_rows([[2, 0], [0, 1]])
    assert conjugate(twist(8), f).projectively_equal(twist(2))


def test_conjugate_identity():
    m = bq(1, 2, 3, 0, 1, -1)
    assert conjugate(m, LinearMap.identity(1)).projectively_equal(m)


def test_conjugate_scaling_example():
    m = binary(2, [4, 0, 0], [0, 0, 1])
    f = LinearMap.from_rows([[1, 0], [0, 4]])
    assert conjugate(m, f).projectively_equal(z_squared())


def test_singular_linear_map_rejected():
    with pytest.raises(InvalidArgumentError):
        LinearMap.from_rows([[1, 2], [2, 4]])


def test_conjugate_inverse_round_trip(rng):
    for _ in range(25):
        m = random_model(rng, 1, 2)
        f = _random_invertible(rng, 1)
        back = conjugate(conjugate(m, f), f.inverse())
        assert back.projectively_equal(m)


def test_conjugate_scalar_invariance(rng):
    for _ in range(25):
        m = random_model(rng, 1, 2)
        f = _random_invertible(rng, 1)
        lam = Fraction(rng.choice([2, -2, 3]), rng.choice([1, 2]))
        scaled = LinearMap.from_rows([[x * lam for x in row] for row in f.matrix])
        assert conjugate(m, f).projectively_equal(conjugate(m, scaled))


def test_conjugate_right_action(rng):
    for _ in range(25):
        m = random_model(rng, 1, 2)
        f = _random_invertible(rng, 1)
        g = _random_invertible(rng, 1)
        lhs = conjugate(conjugate(m, f), g)
        rhs = conjugate(m, f.compose(g))
        assert lhs.projectively_equal(rhs)


def test_evaluate_commutes_with_conjugation(rng):
    for _ in range(25):
        m = random_morphism(rng, 1, 2)
        f = _random_invertible(rng, 1)
        point = (Fraction(rng.randint(-5, 5)), Fraction(1))
        conj = conjugate(m, f)
        lhs = evaluate(conj, point)
        rhs = f.inverse().apply(evaluate(m, f.apply(point)))
        assert proj_eq(lhs, rhs)


def _random_invertible(rng, n) -> LinearMap:
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(n + 1)] for _ in range(n + 1)]
        try:
            return LinearMap.from_rows(rows)
        except InvalidArgumentError:
            continue


def test_evaluate_examples():
    assert evaluate(z_squared(), (2, 1)) == (4, 1)
    assert evaluate(twist(2), (1, 1)) == (3, 1)
    with pytest.raises(IndeterminatePointError):
        evaluate(bq(0, 1, 0, 0, 0, 1), (1, 0))  # [XY : Y^2] at [1:0]
    with pytest.raises(InvalidArgumentError):
        evaluate(z_squared(), (0, 0))


def test_coefficient_height_examples():
    assert coefficient_height(z_squared()) == 0
    assert coefficient_height(bq(1, 0, 2, 0, 3, 0)) == math.log(3)
    assert coefficient_height(bq(2, 0, 4, 0, 6, 0)) == math.log(3)


def test_json_round_trip_bit_exact(rng):
    for _ in range(20):
        m = random_model(rng, rng.choice([1, 2]), rng.choice([1, 2]))
        payload = m.to_json()
        again = MorphismModel.from_json(payload)
        assert again.projectively_equal(m)
        assert json.dumps(again.to_json(), sort_keys=True) == json.dumps(payload, sort_keys=True)


def test_json_schema_golden():
    assert twist(2).to_json() == {
        "n": 1,
        "d": 2,
        "forms": [
            [["2,0", "1"], ["1,1", "0"], ["0,2", "2"]],
            [["2,0", "0"], ["1,1", "1"], ["0,2", "0"]],
        ],
    }


def test_json_schema_violations():
    good = twist(2).to_json()
    for corrupt in (
        {},
        {"n": 1, "d": 2, "forms": []},
        {"n": 1, "d": 2, "forms": [[["3,0", "1"]], [["2,0", "1"]]]},
        {"n": 1, "d": 2, "forms": [[["2,0", "x"]], [["2,0", "1"]]]},
        {"n": 1, "d": 2, "forms": [[["2,0", "1"], ["2,0", "2"]], [["0,2", "1"]]]},
        "not an object",
        {**good, "n": 1.9, "d": 2.4},
        {**good, "n": 1.0},
        {**good, "d": True},
        {**good, "n": True},
        {**good, "n": "1"},
        {"n": 1, "d": 2},
        {"n": 1, "d": -1, "forms": [[["0,0", "1"]], []]},
        # only "a" or "a/b" in ASCII digits: no exponent, point, underscore or other digit
        {"n": 1, "d": 2, "forms": [[["2,0", "1e5"]], [["1,1", "1"]]]},
        {"n": 1, "d": 2, "forms": [[["2,0", "1.5"]], [["1,1", "1"]]]},
        {"n": 1, "d": 2, "forms": [[["2,0", "1_000"]], [["1,1", "1"]]]},
        {"n": 1, "d": 2, "forms": [[["2,0", "\u0661"]], [["1,1", "1"]]]},
        # multi-indices and coefficients are JSON strings, not numbers
        {"n": 1, "d": 2, "forms": [[["2,0", 1]], [["1,1", "1"]]]},
        {"n": 0, "d": 2, "forms": [[[2, "1"]]]},
    ):
        with pytest.raises(SchemaError):
            MorphismModel.from_json(corrupt)
    # a multi-index is ASCII digits joined by commas: no space, sign, underscore or other digit
    assert MorphismModel.from_json({"n": 1, "d": 2, "forms": [[["2,0", "1"]], [["0,2", "1"]]]}) == z_squared()
    for key in (" 2,0", "\u0662,0", "0_2,0", "+2,0", "2,-0", "2, 0"):
        with pytest.raises(SchemaError) as excinfo:
            MorphismModel.from_json({"n": 1, "d": 2, "forms": [[[key, "1"]], [["0,2", "1"]]]})
        assert excinfo.value.code == "schema-violation"
    # a negative degree with no entries to check reaches the monomial table
    with pytest.raises(InvalidArgumentError) as excinfo:
        MorphismModel.from_json({"n": 1, "d": -1, "forms": [[], []]})
    assert excinfo.value.code == "invalid-argument"
    # sparse payloads (zero terms omitted) are accepted
    sparse = {"n": 1, "d": 2, "forms": [[["2,0", "1"], ["0,2", "2"]], [["1,1", "1"]]]}
    assert MorphismModel.from_json(sparse).projectively_equal(twist(2))
    assert MorphismModel.from_json(good) == MorphismModel.from_json(good)


def test_conjugate_pinned_integer_matrix():
    # exact outputs of the adjugate route, recorded before conjugate() moved
    # onto conjugate_integer_rows: for an integer matrix nothing is rescaled
    m = MorphismModel.from_coeff_lists(1, 2, [[1, 2, -3], [0, 4, Fraction(5, 2)]])
    c = conjugate(m, LinearMap.from_rows([[2, 1], [-1, 3]]))
    assert c == MorphismModel.from_coeff_lists(
        1, 2, [[Fraction(-7, 2), 91, Fraction(-189, 2)], [-14, 42, 49]]
    )
    assert all(type(x) is Fraction for x in c.all_coeffs())
    m2 = MorphismModel.from_coeff_lists(2, 2, [[1, 0, 2, 0, -1, 0], [0, 1, 0, 3, 0, 0], [1, 0, 0, 0, 0, 1]])
    c2 = conjugate(m2, LinearMap.from_rows([[1, 1, 0], [0, 2, 1], [1, 0, 1]]))
    assert c2 == MorphismModel.from_coeff_lists(
        2, 2, [[8, 4, 3, -11, -13, -4], [1, 2, 0, 14, 13, 1], [-2, 2, 3, 14, 13, 7]]
    )


def _unshared(n, d, lists) -> MorphismModel:
    # the model from_coeff_lists built before it shared small coefficients
    return MorphismModel(n, d, tuple(HomogeneousForm(n, d, tuple(Fraction(c) for c in row)) for row in lists))


def test_small_coefficients_are_shared(rng):
    a = MorphismModel.from_coeff_lists(1, 2, [[3, 0, -1], [0, 3, Fraction(6, 2)]])
    b = MorphismModel.from_coeff_lists(2, 1, [[Fraction(-1), 3, 0], [0, 0, 0], ["3", 1, 1024]])
    threes = [c for m in (a, b) for c in m.all_coeffs() if c == 3]
    assert len(threes) == 5 and all(c is threes[0] for c in threes)
    assert a.forms[0].coeffs[2] is b.forms[0].coeffs[0]
    assert a.forms[0].coeffs[1] is b.forms[1].coeffs[0]
    assert b.forms[2].coeffs[2] is MorphismModel.from_coeff_lists(1, 1, [[1024, 0], [0, 1]]).forms[0].coeffs[0]
    # small integers, large integers (beyond the table) and fractions
    draws = (
        lambda: rng.randint(-9, 9),
        lambda: 2**70 + rng.randint(0, 9),
        lambda: -1025,
        lambda: Fraction(rng.randint(-9, 9), 7),
    )
    for n, d in ((1, 2), (2, 2), (1, 3)):
        per_form = len(monomials(n, d))
        for _ in range(20):
            lists = [[rng.choice(draws)() for _ in range(per_form)] for _ in range(n + 1)]
            if not any(any(row) for row in lists):
                continue
            shared, fresh = MorphismModel.from_coeff_lists(n, d, lists), _unshared(n, d, lists)
            assert all(type(c) is Fraction for c in shared.all_coeffs())
            assert shared == fresh and hash(shared) == hash(fresh)
            assert shared.all_coeffs() == fresh.all_coeffs()
            assert shared.to_json() == fresh.to_json()
            assert shared.canonical_key() == fresh.canonical_key()
            lam = Fraction(rng.choice([-3, 2, 5]), rng.choice([1, 4]))
            assert shared.scale(lam) == fresh.scale(lam)
            # unipotent upper triangular, so invertible
            rows = [[int(i == j) or (i < j) * rng.randint(0, 2) for j in range(n + 1)] for i in range(n + 1)]
            f = LinearMap.from_rows(rows)
            assert conjugate(shared, f) == conjugate(fresh, f)
            # only integers of size at most 1024 come from the table
            again = MorphismModel.from_coeff_lists(n, d, lists)
            for c, c_again in zip(shared.all_coeffs(), again.all_coeffs()):
                assert (c is c_again) == (c.denominator == 1 and abs(c) <= 1024)
    assert len(morphism_space._SHARED) <= 2 * 1024 + 1
