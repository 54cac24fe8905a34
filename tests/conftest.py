import itertools
import random
from fractions import Fraction

import pytest

from dynres import MorphismModel, SearchBudget, TwistBucket, exact_determinant, macaulay_matrix, macaulay_resultant, sigma_invariants
from dynres.conjugacy_twists import _search_witness
from dynres.morphism_space import monomials


def binary(d, c0, c1) -> MorphismModel:
    """Binary model from two coefficient lists in descending x-power order."""
    return MorphismModel.from_coeff_lists(1, d, [c0, c1])


def bq(a, b, c, e, f, g) -> MorphismModel:
    """Quadratic model [a X^2 + b XY + c Y^2 : e X^2 + f XY + g Y^2]."""
    return binary(2, [a, b, c], [e, f, g])


def twist(b) -> MorphismModel:
    """z + b/z."""
    return bq(1, 0, Fraction(b), 0, 1, 0)


def z_squared() -> MorphismModel:
    return bq(1, 0, 0, 0, 0, 1)


def random_model(rng: random.Random, n: int, d: int, bound: int = 5) -> MorphismModel:
    per_form = len(monomials(n, d))
    while True:
        lists = [[rng.randint(-bound, bound) for _ in range(per_form)] for _ in range(n + 1)]
        if any(any(row) for row in lists):
            return MorphismModel.from_coeff_lists(n, d, lists)


def random_morphism(rng: random.Random, n: int, d: int, bound: int = 5) -> MorphismModel:
    while True:
        m = random_model(rng, n, d, bound)
        if macaulay_resultant(m).value != 0:
            return m


def proj_eq(a, b) -> bool:
    """Projective equality of coordinate tuples."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    if len(a) != len(b) or all(x == 0 for x in a) or all(x == 0 for x in b):
        return False
    for i in range(len(a)):
        for j in range(len(a)):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return True


def _macaulay_quotient(model: MorphismModel, backend: str) -> Fraction | None:
    """Retired quotient route, kept as an oracle: det(M)/det(M'), or None when det(M') vanishes."""
    mac = macaulay_matrix(model)
    det_minor = exact_determinant(mac.minor_rows(), backend)
    if det_minor == 0:
        return None
    return exact_determinant(mac.rows(), backend) / det_minor


def _perturbation_resultant(model: MorphismModel, backend: str) -> Fraction:
    """Retired perturbation route, kept as an oracle: Res of (phi_i + t X_i^d) interpolated
    in t from size + 1 nodes, evaluated at t = 0."""
    mac = macaulay_matrix(model)
    size = mac.size()
    minor_rows = mac.minor_rows()
    full_rows = mac.rows()
    needed = size + 1
    nodes: list[tuple[int, Fraction]] = []
    t = 1
    while len(nodes) < needed:
        shifted_minor = [
            [minor_rows[i][j] + (t if i == j else 0) for j in range(len(minor_rows))] for i in range(len(minor_rows))
        ]
        dm = exact_determinant(shifted_minor, backend)
        if dm != 0:
            shifted_full = [[full_rows[i][j] + (t if i == j else 0) for j in range(size)] for i in range(size)]
            df = exact_determinant(shifted_full, backend)
            nodes.append((t, df / dm))
        t += 1
    # Lagrange evaluation of the interpolant at t = 0
    total = Fraction(0)
    for j, (tj, yj) in enumerate(nodes):
        weight = Fraction(1)
        for k, (tk, _) in enumerate(nodes):
            if k != j:
                weight *= Fraction(tk, tk - tj)
        total += yj * weight
    return total


def retired_bucket_twists(models, budget, sigmas=None) -> list[TwistBucket]:
    """Retired pairwise twist bucketing, kept as an oracle: every new model runs a
    witness search towards the first member of every class in its sigma fiber."""
    models = list(models)
    if sigmas is None:
        sigmas = [sigma_invariants(model) for model in models]
    groups = {}
    for model, key in sorted(zip(models, sigmas, strict=True), key=lambda pair: pair[0].canonical_key()):
        classes = groups.setdefault(key, [])
        hits = []
        for i, cls in enumerate(classes):
            if model.projectively_equal(cls[0]) or _search_witness(cls[0], model, budget) is not None:
                hits.append(i)
        if not hits:
            classes.append([model])
        else:
            merged = classes[hits[0]]
            merged.append(model)
            for i in reversed(hits[1:]):
                merged.extend(classes.pop(i))
    return [TwistBucket(key, tuple(tuple(cls) for cls in groups[key])) for key in sorted(groups)]


# retired n >= 2 reduction search, moved verbatim from reduction_theory and
# kept as an oracle: the tree walk must never be beaten by a diagonal move
def search_moves(n: int, p: int, budget: SearchBudget):
    """Diagonal p-power scalings diag(1, p^a_1, ..., p^a_n) with |a_i| <= 2 a_max.

    Each is yielded as a primitive integer matrix (exponents shifted to be
    non-negative with one of them 0), smallest max |a_i| first.
    """
    amp = 2 * budget.a_max
    tails = itertools.product(range(-amp, amp + 1), repeat=n)
    for tail in sorted(tails, key=lambda t: (max(abs(a) for a in t), t)):
        if all(a == 0 for a in tail):
            continue
        diag = [a - min(0, *tail) for a in (0,) + tail]
        yield tuple(tuple(p**a if i == j else 0 for j in range(n + 1)) for i, a in enumerate(diag))


@pytest.fixture
def rng():
    return random.Random(20140508)
