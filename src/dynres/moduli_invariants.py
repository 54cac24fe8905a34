"""Moduli-point invariants of quadratic maps of P^1, and multiplier spectra.

For (n, d) = (1, 2) the pair (sigma_1, sigma_2) of elementary symmetric
functions of the three fixed-point multipliers pins the conjugacy class and
identifies M_2 with A^2 (Milnor, "Geometry and dynamics of quadratic rational
maps", Exp. Math. 1993), and the moduli height is the height of
[sigma_1 : sigma_2 : 1].  The sigma invariants and moduli_height refuse
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

Any degree.  Multiplier power sums start from the fixed-point form
Fix = Y*phi0 - X*phi1, read off by shifting coefficients, and its affine part
f = p0 - z*p1 for phi = p0/p1.  At a fixed point p0 = z*p1, so
phi' = (p0' - z*p1')/p1 = 1 + f'/p1, and q = 1 + f' * p1^-1 mod f (an
extended Euclid) takes the multiplier's value at every affine fixed point.
Multipliers are never computed one by one: the sum of the j-th powers of the
affine multipliers is sum_t (q^j mod f)_t * P_t, where P_t is the t-th power
sum of the roots of f (Newton's identities on its coefficients).  A fixed
point at infinity contributes its multiplier, read off in the w = 1/z chart,
once per multiplicity.  This route takes every d >= 2; it is the test
oracle of the quadratic formula, and no answer is read from it.

The same data decide whether phi is a morphism, so it computes no resultant.
For d >= 2, Res(phi) = 0 exactly when phi0 and phi1 share a zero P, and then
Fix(P) = 0, so P is fixed or Fix vanishes identically.  That leaves three
cases: (a) Fix = 0, i.e. phi = (X*L, Y*L) with deg L = d - 1 >= 1; (b) [1:0]
is fixed and phi0(1, 0) = 0; (c) an affine fixed point is a root of p1, i.e.
p1 has no inverse mod f.  None of them can happen for a morphism, and each
raises NotAMorphismError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateInputError, InvalidArgumentError, NotAMorphismError
from .exact_arithmetic import primitive_integers
from .morphism_space import HomogeneousForm, MorphismModel
from .resultants import nonzero_resultant


@dataclass(frozen=True, slots=True)
class MultiplierSpectrum:
    """Power sums of the fixed-point multipliers.

    The elementary symmetric functions follow from them by Newton's identities.
    """

    power_sums: tuple[Fraction, ...]

    @property
    def elementary_symmetric(self) -> tuple[Fraction, ...]:
        return tuple(power_sums_to_elementary(self.power_sums))


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


def _fixed_point_coeffs(model: MorphismModel) -> list:
    """Y*phi0 - X*phi1 by shifting: (0, a_0, ..., a_d) - (b_0, ..., b_d, 0), lex-desc order."""
    a, b = model.forms[0].coeffs, model.forms[1].coeffs
    return [x - y for x, y in zip((0, *a), (*b, 0))]


def fixed_point_form(model: MorphismModel) -> HomogeneousForm:
    """Y*phi0 - X*phi1: the degree d+1 binary form cutting out the fixed points."""
    if model.n != 1:
        raise InvalidArgumentError("fixed points as a binary form need n = 1")
    f = HomogeneousForm(1, model.d + 1, tuple(_fixed_point_coeffs(model)))
    if f.is_zero():
        raise DegenerateInputError("every point is fixed; no fixed-point form")
    return f


# --- univariate polynomial helpers (ascending coefficient lists over Q) -------


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_deriv(a):
    return _poly_trim([i * c for i, c in enumerate(a)][1:])


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _poly_trim(out)


def _poly_divmod(a, m):
    """(quotient, remainder) of a by the nonzero polynomial m."""
    a = [Fraction(c) for c in a]
    dm = len(m) - 1
    lead = m[-1]
    quot = [Fraction(0)] * max(len(a) - dm, 0)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        q = a[-1] / lead
        quot[shift] = q
        for i in range(dm + 1):
            a[shift + i] -= q * m[i]
        _poly_trim(a)
    return _poly_trim(quot), a


def _poly_mod(a, m):
    return _poly_divmod(a, m)[1]


def _poly_inverse_mod(s, f):
    """s^-1 mod f by the extended Euclidean algorithm; None when gcd(s, f) is not constant."""
    r0, r1 = list(f), _poly_mod(s, f)
    t0, t1 = [], [Fraction(1)]
    # invariant: t_i * s = r_i mod f
    while len(r1) > 1:
        quot, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        t0, t1 = t1, _poly_sub(t0, _poly_mul(quot, t1))
    if not r1:
        return None
    return _poly_mod([c / r1[0] for c in t1], f)


def power_sums_to_elementary(psums) -> list[Fraction]:
    """Newton's identities: (p_1..p_k) -> (e_1..e_k)."""
    psums = [Fraction(p) for p in psums]
    elem = [Fraction(1)]
    for k in range(1, len(psums) + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * elem[k - i] * psums[i - 1]
        elem.append(acc / k)
    return elem[1:]


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


def _affine_fixed_polynomial(model: MorphismModel) -> list[Fraction]:
    """f(z) = Fix(z, 1) = p0 - z*p1, ascending in z, trailing zeros dropped."""
    return _poly_trim([Fraction(c) for c in reversed(_fixed_point_coeffs(model))])


def _affine_multiplier(model: MorphismModel, monic):
    """q = 1 + f' * p1^-1 mod f, for f = p0 - z*p1 and monic = f / lc(f).

    q takes the value of the multiplier at every affine fixed point.  f' is
    the derivative of f itself, not of monic, which is off by the factor lc(f).
    """
    p1 = _poly_trim([Fraction(c) for c in model.forms[1].dehomogenized()])
    p1_inv = _poly_inverse_mod(p1, monic)
    if p1_inv is None:
        # case (c): a fixed point where p1 vanishes is a common root of p0 and p1
        raise NotAMorphismError("resultant vanishes; not a morphism")
    f_prime = _poly_deriv(_affine_fixed_polynomial(model))
    # 1 + f' * p1^-1, reduced mod f
    return _poly_mod(_poly_sub(_poly_mul(f_prime, p1_inv), [Fraction(-1)]), monic)


def multiplier_power_sums(model: MorphismModel, k: int) -> list[Fraction]:
    """p_j = sum of j-th powers of the d+1 fixed-point multipliers, j = 1..k.

    Multiple fixed points keep their multiplicity; the fixed point at infinity
    (when present) is handled in the w = 1/z chart.  A model whose resultant
    vanishes raises NotAMorphismError, decided by the three fixed-point cases
    of the module docstring.
    """
    if model.n != 1 or model.d < 2:
        raise InvalidArgumentError("multiplier spectrum needs n = 1 and d >= 2")
    if k < 0:
        raise InvalidArgumentError("need k >= 0")
    d = model.d
    fixpoly = _affine_fixed_polynomial(model)
    if not fixpoly:
        # case (a): phi = (X*L, Y*L)
        raise NotAMorphismError("resultant vanishes; not a morphism")
    m = len(fixpoly) - 1
    inf_mult = (d + 1) - m

    lam_inf = Fraction(0)
    if inf_mult > 0:
        # phi fixes [1:0]; multiplier in the w = 1/z chart is psi'(0) for
        # psi(w) = phi1(1, w)/phi0(1, w)
        lead0 = model.forms[0].coefficient((d, 0))
        if lead0 == 0:
            # case (b): phi0 and phi1 both vanish at [1:0]
            raise NotAMorphismError("resultant vanishes; not a morphism")
        lam_inf = Fraction(model.forms[1].coefficient((d - 1, 1))) / Fraction(lead0)

    q = None
    if m > 0:
        monic = [c / fixpoly[-1] for c in fixpoly]
        q = _affine_multiplier(model, monic)
        # power sums P_0..P_(m-1) of the roots of monic, the affine fixed points
        elem = [(-1) ** i * monic[m - i] for i in range(1, m + 1)]
        root_sums = [Fraction(m)] + elementary_to_power_sums(elem, m - 1)

    psums = []
    power = q
    for j in range(1, k + 1):
        total = inf_mult * lam_inf**j
        if q is not None:
            total += sum(c * root_sums[t] for t, c in enumerate(power))
            if j < k:
                power = _poly_mod(_poly_mul(power, q), monic)
        psums.append(total)
    return psums


def multiplier_spectrum(model: MorphismModel) -> MultiplierSpectrum:
    """Power sums of all d+1 fixed-point multipliers."""
    return MultiplierSpectrum(tuple(multiplier_power_sums(model, model.d + 1)))


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


def sigma_invariants_full(model: MorphismModel) -> tuple[Fraction, Fraction, Fraction]:
    """(sigma_1, sigma_2, sigma_3) = (P1, P2, P3) / Res on the primitive model."""
    if model.n != 1 or model.d != 2:
        raise InvalidArgumentError("sigma invariants are implemented for n = 1, d = 2")
    # integers, not the model's Fractions: the forms evaluate about 40 times faster
    v = primitive_integers(model.all_coeffs())
    res = nonzero_resultant(MorphismModel.from_coeff_lists(1, 2, [v[:3], v[3:]]))
    return tuple(p / res for p in _sigma_numerators(*v))


def _sigma_point(s1: Fraction, s2: Fraction) -> ModuliPoint:
    """The point [sigma_1 : sigma_2 : 1] as coprime integers (x, y, z), z > 0, with its height."""
    z, x, y = primitive_integers((1, s1, s2))
    h = max(abs(x), abs(y), z)
    return ModuliPoint((s1, s2), (x, y, z), h, math.log(h))


def _primitive_moduli_height(model: MorphismModel, res) -> ModuliPoint:
    """moduli_height of a primitive quadratic model on P^1 whose resultant res is already known."""
    if model.n != 1 or model.d != 2:
        raise InvalidArgumentError("sigma invariants are implemented for n = 1, d = 2")
    p1, p2, _ = _sigma_numerators(*primitive_integers(model.all_coeffs()))
    return _sigma_point(p1 / res, p2 / res)


def moduli_height(model: MorphismModel) -> ModuliPoint:
    """The class point of a quadratic map of P^1 and its exact height."""
    return _sigma_point(*sigma_invariants(model))
