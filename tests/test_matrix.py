from fractions import Fraction

import pytest

from dynres import InvalidArgumentError
from dynres._matrix import det_bareiss_int, det_exact, identity, mat_adjugate, mat_adjugate_int, mat_inverse


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _random_matrices(rng, n, count, fractions):
    """Seeded n x n matrices of ints in [-9, 9], or of Fractions with denominators up to 6."""
    if fractions:
        return [[[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)] for _ in range(count)]
    return [[[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)] for _ in range(count)]


def _scalar(n, c):
    return [[c if i == j else 0 for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjugates_times_matrix_is_det_identity(rng, n):
    for m in _random_matrices(rng, n, 25, fractions=False):
        det = det_bareiss_int(m)
        adj = mat_adjugate_int(m)
        assert all(type(x) is int for row in adj for x in row)
        assert mat_mul(adj, m) == mat_mul(m, adj) == _scalar(n, det)
        assert mat_adjugate(m) == adj
    for m in _random_matrices(rng, n, 25, fractions=True):
        det = det_exact(m)
        adj = mat_adjugate(m)
        assert mat_mul(adj, m) == mat_mul(m, adj) == _scalar(n, det)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_times_matrix_is_identity(rng, n):
    inverted = 0
    for fractions in (False, True):
        for m in _random_matrices(rng, n, 25, fractions):
            if det_exact(m) == 0:
                with pytest.raises(InvalidArgumentError):
                    mat_inverse(m)
                continue
            inv = mat_inverse(m)
            assert all(type(x) is Fraction for row in inv for x in row)
            assert mat_mul(inv, m) == mat_mul(m, inv) == identity(n)
            inverted += 1
    assert inverted >= 40


def test_inverse_pinned():
    # the Gauss-Jordan inverse this adj/det route replaced, recorded on this matrix
    F = Fraction
    m = [[F(2, 3), F(-1), F(5, 2)], [F(0), F(7, 4), F(-3)], [F(1, 5), F(2), F(1, 2)]]
    assert mat_inverse(m) == [
        [F(75, 47), F(60, 47), F(-15, 47)],
        [F(-72, 517), F(-20, 517), F(240, 517)],
        [F(-42, 517), F(-184, 517), F(140, 517)],
    ]


def test_refusals():
    singular = ([[0]], [[1, 2], [2, 4]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[Fraction(1, 2), 1], [1, 2]])
    for m in singular:
        with pytest.raises(InvalidArgumentError) as excinfo:
            mat_inverse(m)
        assert excinfo.value.code == "invalid-argument"
    for m in ([], [[1, 2]], [[1, 2], [3]], [[1], [2]]):
        for routine in (mat_adjugate, mat_adjugate_int, mat_inverse):
            with pytest.raises(InvalidArgumentError) as excinfo:
                routine(m)
            assert excinfo.value.code == "invalid-argument"
