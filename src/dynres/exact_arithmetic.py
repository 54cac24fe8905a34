"""Exact arithmetic over Q: p-adic valuations, primes, factored integer ideals.

Rationals are ``fractions.Fraction`` throughout (already canonical: reduced,
positive denominator).  A "place" is a prime integer; an ideal of Z is kept
in factored form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgumentError, UnfactoredResidueError

TRIAL_BOUND = 10**6
_RATIONAL_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # what rational_to_string writes, or "+a"


class _InfiniteValuation:
    """Sentinel for the valuation of zero.  Never mixes into integer arithmetic."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _InfiniteValuation()

# The first 13 primes as Miller-Rabin bases decide primality for every
# n < psi_13, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 2017); the 12 bases up to 37 stop at psi_12 ~ 3.19e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_DETERMINISTIC_BELOW = 3317044064679887385961981  # psi_13 = 1287836182261 * 2575672364521


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41: exact below MR_DETERMINISTIC_BELOW.

    At or above it, False is still a proof of compositeness, but True only
    says n is a strong probable prime.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _ord_int(n: int, p: int) -> int:
    # n != 0
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def valuation(x, p: int):
    """ord_p of a rational; INFINITY for x = 0.  p must be prime."""
    if not is_prime(p):
        raise InvalidArgumentError(f"valuation requires a prime, got {p}")
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return _ord_int(x.numerator, p) - _ord_int(x.denominator, p)


def primes_up_to(B) -> list[int]:
    """All primes p <= B, ascending.  Accepts any rational bound B >= 0."""
    limit = math.floor(Fraction(B))
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, limit + 1) if sieve[i]]


@dataclass(frozen=True, slots=True)
class FactoredIdeal:
    """A nonzero ideal of Z as a finite multiset of (prime, exponent >= 1) pairs.

    The empty factor tuple is the unit ideal.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e in self.factors:
            if not is_prime(p):
                raise InvalidArgumentError(f"non-prime factor {p}")
            if e < 1:
                raise InvalidArgumentError(f"exponent {e} < 1 for prime {p}")
            if p <= last:
                raise InvalidArgumentError("factors must be strictly ascending")
            last = p

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def norm(self) -> int:
        """Product of p**e over the factors; 1 for the unit ideal."""
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    def to_json(self) -> dict[str, int]:
        return {str(p): e for p, e in self.factors}


def _pollard_rho(n: int, seed: int) -> int:
    # Brent's cycle variant; returns a nontrivial factor or n on failure.
    if n % 2 == 0:
        return 2
    y, c, m = (seed % (n - 1)) + 1, (seed % (n - 3)) + 1, 128
    g = r = q = 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g


def factor_integer(n: int, rho_rounds: int = 40) -> dict[int, int]:
    """Factor |n| >= 1 into primes.

    Trial division up to ``TRIAL_BOUND``, then Pollard rho on what remains.
    If rho stalls, or a cofactor passes Miller-Rabin at or above
    ``MR_DETERMINISTIC_BELOW`` where the test certifies nothing, raises
    UnfactoredResidueError naming the cofactor rather than returning a wrong
    answer.
    """
    n = abs(int(n))
    if n == 0:
        raise InvalidArgumentError("cannot factor 0")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # wheel over 30 avoids multiples of 2, 3, 5
    q, inc = 7, (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while q * q <= n and q <= TRIAL_BOUND:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += inc[i]
        i = (i + 1) % 8
    if n == 1:
        return dict(sorted(out.items()))
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            if m >= MR_DETERMINISTIC_BELOW:
                raise UnfactoredResidueError(f"cofactor {m} is only a probable prime", m)
            out[m] = out.get(m, 0) + 1
            continue
        d = m
        for seed in range(1, rho_rounds + 1):
            d = _pollard_rho(m, seed)
            if 1 < d < m:
                break
        else:
            raise UnfactoredResidueError(f"composite cofactor {m} resisted factoring", m)
        if not 1 < d < m:
            raise UnfactoredResidueError(f"composite cofactor {m} resisted factoring", m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def primitive_integers(values) -> tuple[int, ...]:
    """The coprime integer vector on the line through a nonzero vector over Q.

    ``values`` is a sequence of ints and Fractions.  Denominators are cleared,
    the entries divided by their gcd, and the sign chosen so that the first
    nonzero entry is positive.
    """
    ints = [v.numerator for v in values]
    if any(v.denominator != 1 for v in values):
        lcm = math.lcm(*[v.denominator for v in values])
        ints = [v.numerator * (lcm // v.denominator) for v in values]
    first = next((v for v in ints if v), 0)
    if first == 0:
        raise InvalidArgumentError("the zero vector has no primitive representative")
    g = math.gcd(*ints)
    if first < 0:
        g = -g
    return tuple([v // g for v in ints])


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def rational_to_string(x) -> str:
    """Serialize exactly: "a/b", or "a" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rational_from_string(s: str) -> Fraction:
    """Parse "a" or "a/b" (ASCII digits, optional sign); refuse "1e9999999" and every other spelling."""
    if _RATIONAL_LITERAL.fullmatch(s) is None:
        raise InvalidArgumentError(f"bad rational literal {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgumentError(f"bad rational literal {s!r}") from exc
