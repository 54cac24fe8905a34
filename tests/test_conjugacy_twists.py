import random
from fractions import Fraction
from functools import lru_cache

import pytest

from conftest import bq, random_morphism, retired_bucket_twists, twist, z_squared
from dynres import (
    CensusConfig,
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
    sigma_invariants,
    twist_family_test,
)
from dynres import census, conjugacy_twists
from dynres.exact_arithmetic import primitive_integers

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
    assert len(bucket.classes) == 2  # one unresolved pair


def test_bucket_twists_distinct_sigma():
    buckets = bucket_twists([z_squared(), bq(1, -2, 0, 0, 0, 1)], BUDGET)
    assert len(buckets) == 2
    assert all(len(b.classes) == 1 for b in buckets)
    keys = [b.qbar_class_key for b in buckets]
    assert keys == sorted(keys)


def test_bucket_twists_empty():
    assert bucket_twists([], BUDGET) == []


def test_bucket_keys_constant_across_members(rng):
    models = [random_morphism(rng, 1, 2, bound=2) for _ in range(8)]
    for bucket in bucket_twists(models, SearchBudget(4, 2, 2)):
        for cls in bucket.classes:
            for member in cls:
                assert sigma_invariants(member) == bucket.qbar_class_key


def test_bucket_twists_rejects_sigmas_of_another_length():
    models = [twist(1), twist(2)]
    for sigmas in ([(3, 3)], [(3, 3)] * 3):
        with pytest.raises(InvalidArgumentError) as exc:
            bucket_twists(models, BUDGET, sigmas)
        assert exc.value.code == "invalid-argument"


# --- the three-point bucketing against the retired pairwise loop ---------------


@lru_cache(maxsize=None)
def _h1_b8_members() -> tuple:
    """(model, sigma) of every record of the (H=1, B=8) census inside Gamma_8."""
    config = CensusConfig(n=1, d=2, coeff_bound=1, B=8, budget=SearchBudget(4, 2, 2), output_prefix="unused")
    records = [census.compute_record(config, m, census.record_key(m)) for m in census.enumerate_models(1, 2, 1)]
    return tuple((r.model, r.sigma) for r in records if r.in_gamma)


def _conjugated_models(seed: int) -> list[MorphismModel]:
    """Seeded quadratic morphisms, each with conjugates by integer matrices with entries up to 3."""
    rng = random.Random(seed)
    models = []
    for _ in range(10):
        phi = random_morphism(rng, 1, 2, bound=2)
        models.append(phi)
        for _ in range(3):
            while True:
                rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
                if rows[0][0] * rows[1][1] != rows[0][1] * rows[1][0]:
                    break
            models.append(conjugate(phi, LinearMap.from_rows(rows)))
    return models


def _twist_family() -> list[MorphismModel]:
    # square ratios (8/2, 18/2, 9/1, 1/4 ...) and non-square ones, both signs
    values = [1, -1, 2, -2, 3, 4, 8, -8, 9, 18, Fraction(1, 4), Fraction(9, 2), Fraction(2, 9)]
    return [twist(b) for b in values]


def _scaled(model: MorphismModel, s) -> MorphismModel:
    return MorphismModel.from_coeff_lists(1, 2, [[c * s for c in f] for f in model.forms])


def _scaled_duplicates() -> list[MorphismModel]:
    phi = bq(1, 1, 0, 0, -1, 1)
    psi = conjugate(phi, LinearMap.from_rows([[2, 1], [1, 1]]))
    scaled = [_scaled(m, s) for m in (phi, psi) for s in (1, -1, 3, Fraction(2, 7), Fraction(-5, 3))]
    return scaled + [phi, psi, twist(Fraction(1, 3)), twist(3), twist(Fraction(4, 3))]


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_bucket_twists_matches_retired_loop_on_h1_census(bound):
    models, sigmas = zip(*_h1_b8_members())
    budget = SearchBudget(4, 2, bound)
    buckets = bucket_twists(models, budget, sigmas)
    assert buckets == retired_bucket_twists(models, budget, sigmas)
    assert sum(len(b.classes) for b in buckets) == 21


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("family", ["conjugates", "twists", "scaled"])
def test_bucket_twists_matches_retired_loop(family, bound):
    models = {"conjugates": _conjugated_models(14), "twists": _twist_family(), "scaled": _scaled_duplicates()}[family]
    budget = SearchBudget(4, 2, bound)
    buckets = bucket_twists(models, budget)
    assert buckets == retired_bucket_twists(models, budget)
    assert sum(len(cls) for b in buckets for cls in b.classes) == len(models)


def test_seeded_conjugates_split_at_bound_2_and_merge_at_bound_3():
    # a conjugate by a matrix with an entry 3 is out of reach at bound 2
    models = _conjugated_models(14)
    split = [len(b.classes) for b in bucket_twists(models, SearchBudget(4, 2, 2))]
    merged = [len(b.classes) for b in bucket_twists(models, SearchBudget(4, 2, 3))]
    assert max(split) > 1
    assert sum(merged) < sum(split)


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_witness_candidates_closed_under_adjugate(bound):
    candidates = conjugacy_twists._witness_candidates(bound)
    assert len(set(candidates)) == len(candidates)
    for (a, b), (c, d) in candidates:
        e = primitive_integers((d, -b, -c, a))
        assert ((e[0], e[1]), (e[2], e[3])) in candidates


@pytest.fixture
def conjugation_counter(monkeypatch):
    """Counts conjugations made by conjugacy_twists, and the classes bucket_twists creates."""
    counts = {"conjugations": 0, "classes": 0}
    kernel = conjugacy_twists.conjugate_integer_rows

    def counted_kernel(*args):
        counts["conjugations"] += 1
        return kernel(*args)

    class CountedClass(conjugacy_twists._TwistClass):
        __slots__ = ()

        def __init__(self, *args):
            counts["classes"] += 1
            super().__init__(*args)

    monkeypatch.setattr(conjugacy_twists, "conjugate_integer_rows", counted_kernel)
    monkeypatch.setattr(conjugacy_twists, "_TwistClass", CountedClass)
    return counts


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_bucket_twists_conjugates_each_class_at_most_once_per_candidate(conjugation_counter, bound):
    models, sigmas = zip(*_h1_b8_members())
    models = list(models) + _conjugated_models(14) + _twist_family()
    sigmas = list(sigmas) + [sigma_invariants(m) for m in models[len(sigmas) :]]
    bucket_twists(models, SearchBudget(4, 2, bound), sigmas)
    per_class = len(conjugacy_twists._witness_candidates(bound))
    assert 0 < conjugation_counter["conjugations"] <= conjugation_counter["classes"] * per_class


def test_bucket_twists_needs_no_conjugation_for_scalar_multiples(conjugation_counter):
    m = bq(1, 1, 0, 0, -1, 1)
    multiples = [_scaled(m, s) for s in (1, 2, -3, Fraction(1, 5))]
    for models in ([m, m], multiples):
        buckets = bucket_twists(models, BUDGET)
        assert [len(b.classes) for b in buckets] == [1]
    assert conjugation_counter == {"conjugations": 0, "classes": 2}


def _primitive_rows(model: MorphismModel) -> list[tuple]:
    key = primitive_integers(model.all_coeffs())
    return [key[:3], key[3:]]


def _kernel_key(rows, fmat) -> tuple:
    conj = conjugacy_twists.conjugate_integer_rows(rows, 1, 2, fmat)
    return primitive_integers(conj[0] + conj[1])


def test_three_point_check_accepts_every_witness():
    rng = random.Random(7)
    candidates = conjugacy_twists._witness_candidates(2)
    for _ in range(30):
        rows = _primitive_rows(random_morphism(rng, 1, 2, bound=2))
        for fmat in candidates:
            assert conjugacy_twists._three_point_check(fmat, rows, _kernel_key(rows, fmat))


def test_three_point_check_agrees_with_the_kernel():
    # keys: a conjugate by a matrix with entries up to 3, conjugates by three candidates, an unrelated model
    rng = random.Random(81)
    candidates = conjugacy_twists._witness_candidates(2)
    models = _conjugated_models(23)
    accepted = rejected = 0
    for phi, psi in zip(models[::4], models[1::4]):
        rows = _primitive_rows(phi)
        images = [_kernel_key(rows, fmat) for fmat in candidates]
        keys = [primitive_integers(psi.all_coeffs()), *rng.sample(images, 3)]
        keys.append(primitive_integers(random_morphism(rng, 1, 2, bound=2).all_coeffs()))
        for key in keys:
            for fmat, image in zip(candidates, images):
                passes = conjugacy_twists._three_point_check(fmat, rows, key)
                assert passes == (image == key)
                accepted, rejected = accepted + passes, rejected + (not passes)
    assert accepted >= 30 and rejected > 0


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("family", ["h1", "conjugates", "twists", "scaled"])
def test_bucket_twists_conjugates_once_per_hit(conjugation_counter, family, bound):
    if family == "h1":
        models, sigmas = zip(*_h1_b8_members())
    else:
        models = {"conjugates": _conjugated_models(14), "twists": _twist_family(), "scaled": _scaled_duplicates()}[family]
        sigmas = None
    buckets = bucket_twists(models, SearchBudget(4, 2, bound), sigmas)
    # a conjugation proves a hit, and each hit either adds a model to a class or merges two classes
    classes = sum(len(b.classes) for b in buckets)
    assert conjugation_counter["conjugations"] <= len(models) - classes
