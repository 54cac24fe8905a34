"""Moduli-point invariants of quadratic maps of P^1.

For (n, d) = (1, 2) the pair (sigma_1, sigma_2) of elementary symmetric
functions of the three fixed-point multipliers pins the conjugacy class and
identifies M_2 with A^2 (Milnor, "Geometry and dynamics of quadratic rational
maps", Exp. Math. 1993), and the moduli height is the height of
[sigma_1 : sigma_2 : 1] = [P1 : P2 : Res], read in integers: the point is
(P1, P2, Res) divided by its gcd, signed so that the last entry is positive.
The sigma invariants, the multiplier power sums and moduli_height refuse
every other shape with InvalidArgumentError.

Quadratic sigma.  sigma_i = P_i / Res, where P_i is a fixed integer form of
degree 4 in the coefficients (a0, a1, a2; b0, b1, b2) of phi0 and phi1
(_sigma_numerators) and Res is the resultant.  Both are evaluated on the
primitive integer model; sigma is homogeneous of degree 0, so the scaling
does not matter.  With f = p0 - z*p1 and lambda_j = 1 + f'/p1 at the fixed
points,

    prod_j (t - lambda_j) = Res_z(f, (t - 1)*p1 - f') / Res_z(f, p1),
    Res_z(f, p1) = b0 * Res,

and the numerator is b0 * (Res t^3 - P1 t^2 + P2 t - P3).  Both sides are
regular on Rat_2, so the identity proven where b0 != 0 holds for every
morphism; the test suite expands it in sympy.  sigma_3 comes from its own P3,
so sigma_3 = sigma_1 - 2 stays a check.  A vanishing resultant raises
NotAMorphismError.

The test suite keeps, in tests/conftest.py, Y*phi0 - X*phi1 and a multiplier
route for every degree d >= 2 that never forms sigma: the formula's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgumentError
from .morphism_space import MorphismModel, normalize_primitive
from .resultants import nonzero_resultant


@dataclass(frozen=True, slots=True)
class ModuliPoint:
    """The class point [sigma_1 : sigma_2 : 1] of a quadratic map of P^1, with its height.

    point is (x, y, z), coprime integers with z > 0; mult_height is
    max(|x|, |y|, z), the multiplicative height, and height = log(mult_height).
    """

    sigma: tuple[Fraction, Fraction]
    point: tuple[int, int, int]
    mult_height: int
    height: float


def elementary_to_power_sums(elem, k: int) -> list[Fraction]:
    """Newton's identities in reverse; e_j = 0 past the end of the list."""
    elem = [Fraction(e) for e in elem]

    def e(j):
        return elem[j - 1] if 1 <= j <= len(elem) else Fraction(0)

    psums: list[Fraction] = []
    for j in range(1, k + 1):
        acc = (-1) ** (j - 1) * j * e(j)
        for i in range(1, j):
            acc += (-1) ** (i - 1) * e(i) * psums[j - i - 1]
        psums.append(acc)
    return psums


def multiplier_power_sums(model: MorphismModel, k: int) -> list[Fraction]:
    """p_1..p_k, the power sums of the three fixed-point multipliers of a quadratic map, from sigma."""
    if k < 0:
        raise InvalidArgumentError("need k >= 0")
    return elementary_to_power_sums(sigma_invariants_full(model), k)


def sigma_invariants(model: MorphismModel) -> tuple[Fraction, Fraction]:
    """(sigma_1, sigma_2) of the three fixed-point multipliers of a quadratic map."""
    s1, s2, _ = sigma_invariants_full(model)
    return (s1, s2)


def _sigma_numerators(a0, a1, a2, b0, b1, b2):
    """(P1, P2, P3) of the module docstring for phi0 = (a0, a1, a2) and phi1 = (b0, b1, b2) at (X^2, XY, Y^2).

    Plain ring arithmetic: the census runs it on ints, and the test suite on sympy symbols.
    """
    p1 = (
        4 * a0**2 * a2 * b1 + 2 * a0**2 * b2**2 - a0 * a1**2 * b1 - 4 * a0 * a1 * a2 * b0 + 4 * a0 * a2 * b0 * b2
        - 2 * a0 * a2 * b1**2 + a1**3 * b0 - 2 * a1**2 * b0 * b2 + 4 * a1 * a2 * b0 * b1 + 4 * a1 * b0 * b2**2
        - a1 * b1**2 * b2 - 6 * a2**2 * b0**2 - 4 * a2 * b0 * b1 * b2 + a2 * b1**3
    )
    p2 = (
        4 * a0**3 * a2 - a0**2 * a1**2 + 2 * a0**2 * a1 * b2 - 4 * a0**2 * a2 * b1 + 10 * a0 * a1 * a2 * b0
        - a0 * a1 * b1 * b2 - 4 * a0 * a2 * b0 * b2 + 5 * a0 * a2 * b1**2 + 2 * a0 * b1 * b2**2 - 2 * a1**3 * b0
        + 5 * a1**2 * b0 * b2 - a1**2 * b1**2 - 7 * a1 * a2 * b0 * b1 - 4 * a1 * b0 * b2**2 + 12 * a2**2 * b0**2
        + 10 * a2 * b0 * b1 * b2 - 2 * a2 * b1**3 + 4 * b0 * b2**3 - b1**2 * b2**2
    )
    p3 = (
        4 * a0**2 * a2 * b1 - a0 * a1**2 * b1 - 4 * a0 * a1 * a2 * b0 + 2 * a0 * a1 * b1 * b2 + 8 * a0 * a2 * b0 * b2
        - 4 * a0 * a2 * b1**2 + a1**3 * b0 - 4 * a1**2 * b0 * b2 + 6 * a1 * a2 * b0 * b1 + 4 * a1 * b0 * b2**2
        - a1 * b1**2 * b2 - 8 * a2**2 * b0**2 - 4 * a2 * b0 * b1 * b2 + a2 * b1**3
    )
    return p1, p2, p3


def _primitive_quadratic(model: MorphismModel) -> tuple[MorphismModel, Fraction]:
    """The primitive model of a quadratic map of P^1 and its nonzero resultant."""
    if model.n != 1 or model.d != 2:
        raise InvalidArgumentError("sigma invariants are implemented for n = 1, d = 2")
    prim = normalize_primitive(model)
    return prim, nonzero_resultant(prim)


def sigma_invariants_full(model: MorphismModel) -> tuple[Fraction, Fraction, Fraction]:
    """(sigma_1, sigma_2, sigma_3) = (P1, P2, P3) / Res on the primitive model."""
    prim, res = _primitive_quadratic(model)
    # integers, not the model's Fractions: the forms evaluate about 40 times faster
    return tuple(p / res for p in _sigma_numerators(*[c.numerator for c in prim.all_coeffs()]))


def _primitive_moduli_height(prim: MorphismModel, res: Fraction) -> ModuliPoint:
    """moduli_height of a primitive quadratic model on P^1 whose resultant res is already known."""
    p1, p2, _ = _sigma_numerators(*[c.numerator for c in prim.all_coeffs()])
    r = res.numerator
    g = math.gcd(p1, p2, r)
    if r < 0:
        g = -g
    x, y, z = p1 // g, p2 // g, r // g
    h = max(abs(x), abs(y), z)
    return ModuliPoint((Fraction(p1, r), Fraction(p2, r)), (x, y, z), h, math.log(h))


def moduli_height(model: MorphismModel) -> ModuliPoint:
    """The class point of a quadratic map of P^1 and its exact height."""
    return _primitive_moduli_height(*_primitive_quadratic(model))
