from fractions import Fraction

import pytest

from conftest import random_model
from dynres import (
    INFINITY,
    FactoredIdeal,
    InvalidArgumentError,
    UnfactoredResidueError,
    factor_integer,
    is_prime,
    normalize_primitive,
    primes_up_to,
    rational_from_string,
    rational_to_string,
    valuation,
)
from dynres.exact_arithmetic import MR_DETERMINISTIC_BELOW, is_perfect_square, primitive_integers


def test_valuation_examples():
    assert valuation(48, 2) == 4
    assert valuation(0, 7) is INFINITY
    assert valuation(Fraction(3, 8), 2) == -3


def test_valuation_rejects_non_prime():
    with pytest.raises(InvalidArgumentError):
        valuation(10, 6)
    with pytest.raises(InvalidArgumentError):
        valuation(10, 1)


def test_valuation_multiplicative(rng):
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11])
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        y = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        if x == 0 or y == 0:
            continue
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


def _ideal(factors: dict) -> FactoredIdeal:
    """The ideal prod p^e, zero exponents dropped."""
    return FactoredIdeal(tuple(sorted((p, e) for p, e in factors.items() if e)))


def test_ideal_norm_examples():
    assert FactoredIdeal(()).norm() == 1
    assert _ideal({2: 3}).norm() == 8
    assert _ideal({2: 1, 3: 2}).norm() == 18


def test_ideal_norm_multiplicative(rng):
    for _ in range(50):
        a = {p: rng.randint(0, 3) for p in (2, 3, 5, 7)}
        b = {p: rng.randint(0, 3) for p in (3, 5, 11)}
        product = {p: a.get(p, 0) + b.get(p, 0) for p in a.keys() | b.keys()}
        assert _ideal(product).norm() == _ideal(a).norm() * _ideal(b).norm()


def test_factored_ideal_validation():
    with pytest.raises(InvalidArgumentError):
        FactoredIdeal(((4, 1),))
    with pytest.raises(InvalidArgumentError):
        FactoredIdeal(((2, 0),))
    with pytest.raises(InvalidArgumentError):
        FactoredIdeal(((3, 1), (2, 1)))  # must be ascending


def test_factored_ideal_json_round_trip():
    ideal = _ideal({2: 3, 11: 1})
    assert ideal.to_json() == {"2": 3, "11": 1}


def test_primes_up_to_examples():
    assert primes_up_to(8) == [2, 3, 5, 7]
    assert primes_up_to(1) == []
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(Fraction(19, 2)) == [2, 3, 5, 7]


def test_primes_up_to_against_trial_division():
    def trial_prime(n):
        if n < 2:
            return False
        f = 2
        while f * f <= n:
            if n % f == 0:
                return False
            f += 1
        return True

    expected = [n for n in range(2, 10**4 + 1) if trial_prime(n)]
    assert primes_up_to(10**4) == expected


def test_factor_integer_round_trip(rng):
    for _ in range(100):
        n = rng.randint(1, 10**9)
        factors = factor_integer(n)
        prod = 1
        for p, e in factors.items():
            assert is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n


def test_factor_integer_large_prime_cofactor():
    p = 1000003
    factors = factor_integer(4 * p)
    assert factors == {2: 2, p: 1}


def test_factor_integer_loud_failure():
    # two primes beyond the trial bound and rho disabled: must refuse, not lie
    n = (10**9 + 7) * (10**9 + 9)
    with pytest.raises(UnfactoredResidueError) as info:
        factor_integer(n, rho_rounds=0)
    assert info.value.cofactor == n


# the least strong pseudoprimes to the first 12 and 13 prime bases (Sorenson and Webster)
PSI_12 = (399165290221, 798330580441)
PSI_13 = (1287836182261, 2575672364521)


def test_strong_pseudoprime_to_twelve_bases_is_factored():
    n = PSI_12[0] * PSI_12[1]
    assert n == 318665857834031151167461
    assert not is_prime(n)
    assert all(is_prime(p) for p in PSI_12)
    assert factor_integer(n) == {PSI_12[0]: 1, PSI_12[1]: 1}
    assert factor_integer(6 * n) == {2: 1, 3: 1, PSI_12[0]: 1, PSI_12[1]: 1}


def test_probable_prime_beyond_the_deterministic_range_is_refused():
    n = PSI_13[0] * PSI_13[1]
    assert n == MR_DETERMINISTIC_BELOW == 3317044064679887385961981
    # a strong pseudoprime to every base: Miller-Rabin alone cannot tell
    assert is_prime(n)
    for m in (n, 4 * n):
        with pytest.raises(UnfactoredResidueError) as info:
            factor_integer(m)
        assert info.value.cofactor == n


def test_is_perfect_square():
    squares = {k * k for k in range(100)}
    for n in range(-5, 5000):
        assert is_perfect_square(n) == (n in squares)


def test_rational_strings():
    assert rational_to_string(Fraction(3, 8)) == "3/8"
    assert rational_to_string(Fraction(-4, 2)) == "-2"
    assert rational_from_string("3/8") == Fraction(3, 8)
    assert rational_from_string("-2") == -2
    with pytest.raises(InvalidArgumentError):
        rational_from_string("x+1")


def test_primitive_integers_examples():
    # Fraction input: denominators cleared, then the gcd divided out
    assert primitive_integers((Fraction(1, 2), 0, Fraction(3, 4))) == (2, 0, 3)
    assert primitive_integers((Fraction(2, 3), Fraction(4, 3))) == (1, 2)
    # a negative first nonzero entry flips the sign of every entry
    assert primitive_integers((0, -4, 6, -2)) == (0, 2, -3, 1)
    # an already primitive vector is returned unchanged, as ints
    assert primitive_integers((3, -5, 0, 7)) == (3, -5, 0, 7)
    assert primitive_integers([Fraction(1), Fraction(-1)]) == (1, -1)
    assert all(type(v) is int for v in primitive_integers((Fraction(6), Fraction(-9, 2))))
    with pytest.raises(InvalidArgumentError):
        primitive_integers((0, Fraction(0), 0))


def test_primitive_integers_matches_normalize_primitive(rng):
    for _ in range(50):
        m = random_model(rng, rng.choice([1, 2]), rng.choice([1, 2]))
        lam = Fraction(rng.choice([1, -2, 3, -5]), rng.choice([1, 2, 7]))
        scaled = m.scale(lam)
        prim = normalize_primitive(scaled)
        assert primitive_integers(scaled.all_coeffs()) == tuple(int(c) for c in prim.all_coeffs())
        assert primitive_integers(scaled.all_coeffs()) == primitive_integers(m.all_coeffs())
