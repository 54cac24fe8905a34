"""Internal exact linear algebra on small dense matrices.

Matrices are lists of lists (rows) of ints or Fractions.  Two determinant
kernels eliminate integer matrices: fraction-free Bareiss elimination, and a
multimodular route: one elimination modulo a product of word-sized primes
that exceeds twice the Hadamard bound, then a balanced sign lift.  When a
pivot is not a unit modulo that product, each prime is eliminated on its own
and the residues are CRT-combined.  det_int picks the kernel by backend name,
the one place that reads it.  The Macaulay resultant hands det_int integer
matrices, its forms scaled to integers once.  det_exact, behind the rational
API (exact_determinant, sylvester_resultant, LinearMap, mat_adjugate and
mat_inverse), row-scales each matrix to integers first (_integer_scaled).

One cofactor loop gives the adjugate over Z (Bareiss minors) and over Q
(det_exact minors), and the exact inverse is adj(M) / det(M).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidArgumentError


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _require_square(m, allow_empty: bool = False):
    n = len(m)
    if n == 0 and not allow_empty:
        raise InvalidArgumentError("matrix must be non-empty")
    if any(len(row) != n for row in m):
        raise InvalidArgumentError("matrix must be square")
    return n


def det_bareiss_int(matrix: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; exact over Z."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        # pivot search down column k
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mi, mk = m[i], m[k]
            lead = mi[k]
            for j in range(k + 1, n):
                mi[j] = (pivot * mi[j] - lead * mk[j]) // prev
            mi[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _integer_scaled(matrix):
    """Scale each row of an int/Fraction matrix by the lcm of its denominators; returns (int_rows, scale).

    scale is the product of those lcms, so det(original) = det(int_rows) / scale.
    """
    rows = []
    scale = 1
    for row in matrix:
        lcm = math.lcm(*[x.denominator for x in row])
        rows.append([x.numerator * (lcm // x.denominator) for x in row])
        scale *= lcm
    return rows, scale


def hadamard_bound(matrix: list[list[int]]) -> int:
    """An integer H with |det| <= H (row-norm Hadamard product)."""
    bound_sq = 1
    for row in matrix:
        s = sum(x * x for x in row)
        if s == 0:
            return 0
        bound_sq *= s
    return math.isqrt(bound_sq) + 1


_CRT_PRIMES: list[int] = []


def _crt_primes(need_product: int) -> list[int]:
    """Enough primes just below 2**62 so their product exceeds need_product."""
    from .exact_arithmetic import is_prime

    primes = _CRT_PRIMES
    prod = 1
    for p in primes:
        prod *= p
    candidate = primes[-1] - 1 if primes else (1 << 62) - 1
    while prod <= need_product:
        while not is_prime(candidate):
            candidate -= 1
        primes.append(candidate)
        prod *= candidate
        candidate -= 1
    out = []
    prod = 1
    for p in primes:
        out.append(p)
        prod *= p
        if prod > need_product:
            break
    return out


def det_mod_p(matrix: list[list[int]], p: int) -> int:
    """det(matrix) mod p for any modulus p >= 2, by Gaussian elimination.

    Each column pivots on its first entry that is nonzero mod p; raises
    ValueError when that pivot is not a unit mod p, which a prime p never meets.
    """
    m = [[x % p for x in row] for row in matrix]
    n = len(m)
    det = 1
    for k in range(n):
        pivot_row = None
        for i in range(k, n):
            if m[i][k]:
                pivot_row = i
                break
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        pivot = m[k][k]
        det = det * pivot % p
        inv = pow(pivot, -1, p)
        for i in range(k + 1, n):
            lead = m[i][k]
            if lead == 0:
                continue
            factor = lead * inv % p
            mi, mk = m[i], m[k]
            for j in range(k, n):
                mi[j] = (mi[j] - factor * mk[j]) % p
    return det % p


def det_modular_crt_int(matrix: list[list[int]]) -> int:
    """Exact integer determinant modulo a product N of word-sized primes.

    The prime set is sized by the Hadamard bound, N > 2 |det|, so the balanced
    lift is guaranteed correct with no probabilistic assumption.  One
    elimination modulo N does the work; only when a pivot is not a unit mod N
    does the determinant come from one elimination per prime, CRT-combined.
    """
    n = len(matrix)
    if n == 0:
        return 1
    bound = hadamard_bound(matrix)
    if bound == 0:
        return 0
    primes = _crt_primes(2 * bound)
    modulus = math.prod(primes)
    try:
        residue = det_mod_p(matrix, modulus)
    except ValueError:
        residue = 0
        modulus = 1
        for p in primes:
            r = det_mod_p(matrix, p)
            # incremental CRT
            t = (r - residue) * pow(modulus, -1, p) % p
            residue += modulus * t
            modulus *= p
    if residue > modulus // 2:
        residue -= modulus
    return residue


def det_int(matrix: list[list[int]], backend: str = "bareiss") -> int:
    """det of a nonempty square integer matrix by the backend's kernel."""
    if backend == "bareiss":
        return det_bareiss_int(matrix)
    if backend == "modular_crt":
        return det_modular_crt_int(matrix)
    raise InvalidArgumentError(f"unknown determinant backend {backend!r}")


def det_exact(matrix, backend: str = "bareiss") -> Fraction:
    """Exact determinant of an int/Fraction matrix; the empty matrix has det 1."""
    _require_square(matrix, allow_empty=True)
    if not matrix:
        return Fraction(1)
    scaled, scale = _integer_scaled(matrix)
    return Fraction(det_int(scaled, backend), scale)


def mat_minor(matrix, i: int, j: int):
    return [[row[c] for c in range(len(row)) if c != j] for r, row in enumerate(matrix) if r != i]


def _adjugate(matrix, det):
    """Transposed cofactor matrix, each cofactor a det of a minor; adj(M) * M = det(M) * I."""
    n = _require_square(matrix)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = det(mat_minor(matrix, i, j))
            adj[j][i] = -cof if (i + j) % 2 else cof
    return adj


def mat_adjugate(matrix):
    """Adjugate of an int/Fraction matrix, with Fraction entries."""
    return _adjugate(matrix, det_exact)


def mat_adjugate_int(matrix: list[list[int]]) -> list[list[int]]:
    """Adjugate of an integer matrix, staying in Z."""
    return _adjugate(matrix, det_bareiss_int)


def mat_inverse(matrix):
    """Exact inverse over Q as adj(M) / det(M); raises on a singular input."""
    det = det_exact(matrix)
    if det == 0:
        raise InvalidArgumentError("matrix is singular")
    return [[x / det for x in row] for row in mat_adjugate(matrix)]
