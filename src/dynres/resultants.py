"""Exact resultants of n+1 degree-d forms in n+1 variables, by one formula.

M is the Macaulay matrix at critical degree D = (n+1)(d-1)+1 and M' its
reduced minor.  Perturbing phi_i by t X_i^d adds t to their diagonals, so
R(t) = det(M + tI) / det(M' + tI) is the resultant of (phi_i + t X_i^d)
(Macaulay; the perturbation is Canny's, J. Symb. Comput. 1990).  R has exact
degree delta = (n+1) d^n in t: Res has degree d^n in each form's
coefficients, and R's leading coefficient is Res(X_0^d, ..., X_n^d) = 1.
Res is R(0): the quotient at t = 0 when det(M') != 0, else interpolated from
delta + 1 nodes t = 1, 2, ...  For n = 1, M is the Sylvester matrix and M' is
empty.

Every determinant of the resultant is of an integer matrix.  Res is
homogeneous of degree d^n in each form's coefficients, so with c_i the lcm of
phi_i's denominators, Res(phi) = Res(c_0 phi_0, ..., c_n phi_n) / prod c_i^(d^n):
the forms are scaled once, and M, M' and each M + tI are integer matrices.
Only the public rational API (exact_determinant, sylvester_resultant) scales
each matrix's rows, in _matrix.det_exact.

M is 80-90 % zeros for n >= 2, so the resultant fills it with rows and
columns in one fill-reducing order of the degree-D monomials, computed once
per (n, d).  A permutation applied to both rows and columns keeps det M, the
principal minor M' and the diagonal that t perturbs; the public matrices
keep the natural monomial order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _matrix
from .errors import InvalidArgumentError, NotAMorphismError
from .morphism_space import MorphismModel, monomial_index, monomials

SYLVESTER = "sylvester"
MACAULAY_QUOTIENT = "macaulay_quotient"
PERTURBATION = "perturbation"


@dataclass(frozen=True, slots=True)
class ResultantValue:
    value: Fraction
    method: str

    def vanishes(self) -> bool:
        return self.value == 0


@lru_cache(maxsize=None)
def _placement(n: int, d: int) -> tuple[tuple, tuple[int, ...]]:
    """Where the degree-D Macaulay rows take their entries, and the rows of M'.

    Rows and columns are both indexed by the degree-D monomials.  Column X^I is
    assigned to the least i with I_i >= d and its row holds X^(I - d e_i) * phi_i,
    recorded as (i, the column of each monomial of phi_i).  M' lives on the
    monomials divisible by X_i^d for at least two i.
    """
    D = (n + 1) * (d - 1) + 1
    col_index = monomial_index(n, D)
    rows = []
    minor = []
    for r, I in enumerate(monomials(n, D)):
        heavy = [i for i, e in enumerate(I) if e >= d]
        # degree D forces at least one exponent >= d
        i = heavy[0]
        if len(heavy) >= 2:
            minor.append(r)
        shift = tuple(e - d if k == i else e for k, e in enumerate(I))
        rows.append((i, tuple(col_index[tuple(a + b for a, b in zip(J, shift))] for J in monomials(n, d))))
    return tuple(rows), tuple(minor)


@lru_cache(maxsize=None)
def _elimination_order(n: int, d: int) -> tuple[int, ...]:
    """The rows of _placement (equally its columns) in a fill-reducing elimination order.

    Each step takes the diagonal pivot of least Markowitz cost (r - 1)(c - 1)
    on the nonzero pattern of the placement, grown by the fill of the steps
    before it; ties go to the first monomial.
    """
    rows = {r: set(targets) for r, (_, targets) in enumerate(_placement(n, d)[0])}
    cols = {c: set() for c in rows}
    for r, row in rows.items():
        for c in row:
            cols[c].add(r)
    order = []
    while rows:
        k = min(rows, key=lambda r: ((len(rows[r]) - 1) * (len(cols[r]) - 1), r))
        pivot_row, pivot_col = rows.pop(k) - {k}, cols.pop(k) - {k}
        for i in pivot_col:
            rows[i].discard(k)
            rows[i] |= pivot_row
        for j in pivot_row:
            cols[j].discard(k)
            cols[j] |= pivot_col
        order.append(k)
    return tuple(order)


@lru_cache(maxsize=None)
def _elimination_placement(n: int, d: int) -> tuple[tuple, tuple[int, ...]]:
    """_placement with rows and columns both in _elimination_order; M' keeps that order."""
    placement, minor = _placement(n, d)
    order = _elimination_order(n, d)
    position = {r: k for k, r in enumerate(order)}
    rows = tuple((placement[r][0], tuple(position[c] for c in placement[r][1])) for r in order)
    return rows, tuple(sorted(position[r] for r in minor))


def _fill(placement, coeffs, zero) -> list[list]:
    """The Macaulay matrix with coeffs[i] as the coefficients of phi_i, placed as given."""
    size = len(placement)
    rows = []
    for i, targets in placement:
        row = [zero] * size
        for col, c in zip(targets, coeffs[i]):
            row[col] = c
        rows.append(row)
    return rows


def sylvester_matrix(f, g) -> list[list[Fraction]]:
    """2d x 2d Sylvester matrix: d shifted rows of f, then of g, each its d + 1 coefficients X^d ... Y^d."""
    if len(f) != len(g) or len(f) < 2:
        raise InvalidArgumentError("binary forms must have equal degree >= 1")
    return _fill(_placement(1, len(f) - 1)[0], [[Fraction(c) for c in h] for h in (f, g)], Fraction(0))


def sylvester_resultant(f, g, backend: str = "bareiss") -> Fraction:
    """Res(f, g) of two binary forms of equal degree d >= 1, each given by its d + 1 coefficients X^d ... Y^d."""
    return _matrix.det_exact(sylvester_matrix(f, g), backend)


def exact_determinant(matrix, backend: str = "bareiss") -> Fraction:
    """Exact determinant of a square rational matrix; backends agree exactly."""
    return _matrix.det_exact([list(row) for row in matrix], backend)


@dataclass(frozen=True, slots=True)
class MacaulayMatrix:
    """The degree-D Macaulay matrix M of a model, plus the index set of its minor M'."""

    n: int
    d: int
    critical_degree: int
    entries: tuple[tuple[Fraction, ...], ...]
    reduced_minor_index: tuple[int, ...]

    def size(self) -> int:
        return len(self.entries)

    def rows(self) -> list[list[Fraction]]:
        return [list(r) for r in self.entries]

    def minor_rows(self) -> list[list[Fraction]]:
        idx = self.reduced_minor_index
        return [[self.entries[i][j] for j in idx] for i in idx]


def macaulay_matrix(model: MorphismModel) -> MacaulayMatrix:
    n, d = model.n, model.d
    placement, minor = _placement(n, d)
    rows = _fill(placement, [[Fraction(c) for c in f] for f in model.forms], Fraction(0))
    return MacaulayMatrix(n, d, (n + 1) * (d - 1) + 1, tuple(map(tuple, rows)), minor)


def macaulay_resultant(model: MorphismModel, backend: str = "bareiss") -> ResultantValue:
    """Res of the model, R(0); nonzero exactly when the forms have no common zero."""
    n, d = model.n, model.d
    placement, minor = _elimination_placement(n, d)
    # M holds the integral forms c_i phi_i, whose resultant is scale * Res: each value is divided by scale
    coeffs, lcm = _matrix._integer_scaled(model.forms)
    scale = lcm ** (d**n)
    full = _fill(placement, coeffs, 0)
    nodes: list[tuple[int, Fraction]] = []
    t = 0
    while len(nodes) <= (n + 1) * d**n:
        # full is M + tI here, and M' + tI is its principal minor on the rows of M'
        det_sub = _matrix.det_int([[full[i][j] for j in minor] for i in minor], backend) if minor else 1
        if det_sub != 0:
            value = Fraction(_matrix.det_int(full, backend), det_sub * scale)
            if t == 0:
                return ResultantValue(value, SYLVESTER if n == 1 else MACAULAY_QUOTIENT)
            nodes.append((t, value))
        t += 1
        for r, row in enumerate(full):
            row[r] += 1
    # Lagrange evaluation at t = 0 of R through the delta + 1 nodes
    total = Fraction(0)
    for tj, yj in nodes:
        total += yj * math.prod(Fraction(tk, tk - tj) for tk, _ in nodes if tk != tj)
    return ResultantValue(total, PERTURBATION)


def nonzero_resultant(model: MorphismModel) -> Fraction:
    """Res of a morphism; raises NotAMorphismError when it vanishes."""
    res = macaulay_resultant(model).value
    if res == 0:
        raise NotAMorphismError("resultant vanishes; not a morphism")
    return res
