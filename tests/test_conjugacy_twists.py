from fractions import Fraction

import pytest

from conftest import bq, random_morphism, twist, z_squared
from dynres import (
    InvalidArgumentError,
    LinearMap,
    MorphismModel,
    NotAMorphismError,
    SearchBudget,
    bucket_twists,
    conjugacy_test,
    conjugate,
    default_budget,
    factor_integer,
    quadratic_twist_model,
    twist_family_test,
)

BUDGET = default_budget(2)


def test_twist_family_model():
    assert quadratic_twist_model(2) == twist(2)
    with pytest.raises(InvalidArgumentError):
        quadratic_twist_model(0)


def test_twist_family_test_examples():
    assert twist_family_test(8, 2) is True
    assert twist_family_test(2, 3) is False
    for b in (1, -2, Fraction(3, 7)):
        assert twist_family_test(b, b) is True
    with pytest.raises(InvalidArgumentError):
        twist_family_test(0, 2)


def test_twist_family_test_signs():
    assert twist_family_test(-1, 1) is False
    assert twist_family_test(-8, -2) is True
    assert twist_family_test(Fraction(9, 4), 1) is True


def _squarefree_class(q: Fraction) -> tuple:
    # independent oracle: signed squarefree kernel from a full factorization
    sign = -1 if q < 0 else 1
    n = abs(q.numerator) * q.denominator
    kernel = 1
    for p, e in factor_integer(n).items():
        if e % 2:
            kernel *= p
    return (sign, kernel)


def test_twist_family_test_matches_square_classes(rng):
    values = [1, -1, 2, -2, 3, -3, 4, 8, 18]
    for b in values:
        for c in values:
            expected = _squarefree_class(Fraction(b)) == _squarefree_class(Fraction(c))
            assert twist_family_test(b, c) is expected


def test_conjugacy_example_8_2():
    verdict = conjugacy_test(twist(8), twist(2), BUDGET)
    assert verdict.status == "conjugate"
    assert conjugate(twist(2), verdict.witness).projectively_equal(twist(8))
    # the witness is the diagonal 2-scaling
    a, b = verdict.witness.matrix[0]
    c, d = verdict.witness.matrix[1]
    assert b == c == 0 and abs(Fraction(d) / Fraction(a)) in (Fraction(2), Fraction(1, 2))


def test_conjugacy_unknown_pair():
    verdict = conjugacy_test(twist(2), twist(3), SearchBudget(a_max=4, translation_depth=2, matrix_bound=2))
    assert verdict.status == "unknown"
    assert twist_family_test(2, 3) is False


def test_conjugacy_self():
    m = twist(5)
    verdict = conjugacy_test(m, m, BUDGET)
    assert verdict.status == "conjugate"
    assert verdict.witness.matrix == LinearMap.identity(1).matrix


def test_conjugacy_sigma_separation():
    verdict = conjugacy_test(z_squared(), bq(1, -2, 0, 0, 0, 1), BUDGET)
    assert verdict.status == "not_conjugate"
    assert verdict.separating_invariant == "sigma_invariants"


def test_conjugacy_validates_inputs():
    with pytest.raises(NotAMorphismError):
        conjugacy_test(bq(0, 1, 0, 0, 0, 1), z_squared(), BUDGET)
    cubic = MorphismModel.from_coeff_lists(1, 3, [[1, 0, 0, 0], [0, 0, 0, 1]])
    with pytest.raises(InvalidArgumentError):
        conjugacy_test(cubic, cubic, BUDGET)
    with pytest.raises(NotAMorphismError):
        conjugacy_test(z_squared(), bq(0, 1, 0, 0, 0, 1), BUDGET)
    # phi is checked in full before psi's shape
    with pytest.raises(NotAMorphismError):
        conjugacy_test(bq(0, 1, 0, 0, 0, 1), cubic, BUDGET)


def test_conjugacy_symmetry(rng):
    pairs = [(twist(8), twist(2)), (twist(2), twist(3)), (z_squared(), bq(1, -2, 0, 0, 0, 1))]
    for _ in range(5):
        pairs.append((random_morphism(rng, 1, 2, bound=2), random_morphism(rng, 1, 2, bound=2)))
    definite = {"conjugate", "not_conjugate"}
    for phi, psi in pairs:
        a = conjugacy_test(phi, psi, BUDGET).status
        b = conjugacy_test(psi, phi, BUDGET).status
        if a in definite and b in definite:
            assert a == b


def test_conjugacy_agrees_with_twist_criterion(rng):
    values = [1, -1, 2, -2, 3, -3, 4, 8, 18]
    for b in values:
        for c in values:
            verdict = conjugacy_test(twist(b), twist(c), BUDGET)
            if verdict.status == "conjugate":
                assert twist_family_test(b, c) is True
            if verdict.status == "not_conjugate":
                assert twist_family_test(b, c) is False


def test_bucket_twists_family():
    buckets = bucket_twists([twist(1), twist(2), twist(4)], BUDGET)
    assert len(buckets) == 1
    bucket = buckets[0]
    assert bucket.qbar_class_key == (3, 3)
    classes = {frozenset(m.canonical_key() for m in cls) for cls in bucket.classes}
    assert classes == {
        frozenset({twist(1).canonical_key(), twist(4).canonical_key()}),
        frozenset({twist(2).canonical_key()}),
    }
    assert bucket.unknown_pairs == ((0, 1),)


def test_bucket_twists_distinct_sigma():
    buckets = bucket_twists([z_squared(), bq(1, -2, 0, 0, 0, 1)], BUDGET)
    assert len(buckets) == 2
    assert all(len(b.classes) == 1 and not b.unknown_pairs for b in buckets)
    keys = [b.qbar_class_key for b in buckets]
    assert keys == sorted(keys)


def test_bucket_twists_empty():
    assert bucket_twists([], BUDGET) == []


def test_bucket_keys_constant_across_members(rng):
    models = [random_morphism(rng, 1, 2, bound=2) for _ in range(8)]
    from dynres import sigma_invariants

    for bucket in bucket_twists(models, SearchBudget(4, 2, 2)):
        for cls in bucket.classes:
            for member in cls:
                assert sigma_invariants(member) == bucket.qbar_class_key
