import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from dynres import (
    InvalidArgumentError,
    MorphismModel,
    NotAMorphismError,
    SearchBudget,
    TwistBucket,
    exact_determinant,
    macaulay_matrix,
    macaulay_resultant,
    sigma_invariants,
)
from dynres.conjugacy_twists import _search_witness
from dynres.moduli_invariants import _fixed_point_coeffs, elementary_to_power_sums
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


# --- the any-degree multiplier route, moved from dynres.moduli_invariants -----
# and kept as the oracle of quadratic sigma: it never forms sigma.
#
# Multiplier power sums start from the fixed-point form Fix = Y*phi0 - X*phi1,
# read off by shifting coefficients, and its affine part f = p0 - z*p1 for
# phi = p0/p1.  At a fixed point p0 = z*p1, so phi' = (p0' - z*p1')/p1 =
# 1 + f'/p1, and q = 1 + f' * p1^-1 mod f (an extended Euclid) takes the
# multiplier's value at every affine fixed point.  Multipliers are never
# computed one by one: the sum of the j-th powers of the affine multipliers is
# sum_t (q^j mod f)_t * P_t, where P_t is the t-th power sum of the roots of f
# (Newton's identities on its coefficients).  A fixed point at infinity
# contributes its multiplier, read off in the w = 1/z chart, once per
# multiplicity.  This route takes every d >= 2.
#
# The same data decide whether phi is a morphism, so it computes no resultant.
# For d >= 2, Res(phi) = 0 exactly when phi0 and phi1 share a zero P, and then
# Fix(P) = 0, so P is fixed or Fix vanishes identically.  That leaves three
# cases: (a) Fix = 0, i.e. phi = (X*L, Y*L) with deg L = d - 1 >= 1; (b) [1:0]
# is fixed and phi0(1, 0) = 0; (c) an affine fixed point is a root of p1, i.e.
# p1 has no inverse mod f.  None of them can happen for a morphism, and each
# raises NotAMorphismError.


@dataclass(frozen=True, slots=True)
class MultiplierSpectrum:
    """Power sums of the fixed-point multipliers.

    The elementary symmetric functions follow from them by Newton's identities.
    """

    power_sums: tuple[Fraction, ...]

    @property
    def elementary_symmetric(self) -> tuple[Fraction, ...]:
        return tuple(power_sums_to_elementary(self.power_sums))


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


def oracle_multiplier_power_sums(model: MorphismModel, k: int) -> list[Fraction]:
    """p_j = sum of j-th powers of the d+1 fixed-point multipliers, j = 1..k.

    Multiple fixed points keep their multiplicity; the fixed point at infinity
    (when present) is handled in the w = 1/z chart.  A model whose resultant
    vanishes raises NotAMorphismError, decided by the three fixed-point cases
    of the comment above.
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


def oracle_multiplier_spectrum(model: MorphismModel) -> MultiplierSpectrum:
    """Power sums of all d+1 fixed-point multipliers."""
    return MultiplierSpectrum(tuple(oracle_multiplier_power_sums(model, model.d + 1)))


@pytest.fixture
def rng():
    return random.Random(20140508)
