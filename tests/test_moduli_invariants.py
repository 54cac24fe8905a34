import itertools
import math
from fractions import Fraction

import pytest
import sympy

from conftest import (
    MultiplierSpectrum,
    _affine_multiplier,
    _poly_deriv,
    _poly_mul,
    _poly_sub,
    _poly_trim,
    binary,
    bq,
    oracle_multiplier_power_sums,
    oracle_multiplier_spectrum,
    power_sums_to_elementary,
    random_model,
    random_morphism,
    twist,
    z_squared,
)
from dynres import (
    DegenerateInputError,
    InvalidArgumentError,
    LinearMap,
    MorphismModel,
    NotAMorphismError,
    conjugate,
    enumerate_models,
    fixed_point_form,
    macaulay_resultant,
    moduli_height,
    multiplier_power_sums,
    sigma_invariants,
    sigma_invariants_full,
)
from dynres._matrix import identity, mat_inverse, mat_mul
from dynres.moduli_invariants import _sigma_numerators, elementary_to_power_sums


def test_fixed_point_form_examples():
    # z^2: Y X^2 - X Y^2 = XY(X - Y)
    assert fixed_point_form(z_squared()).coeffs == (0, 1, -1, 0)
    # z + 2/z: 2 Y^3
    assert fixed_point_form(twist(2)).coeffs == (0, 0, 0, 2)
    # [X^2 + XY : Y^2]: X^2 Y
    assert fixed_point_form(bq(1, 1, 0, 0, 0, 1)).coeffs == (0, 1, 0, 0)


def test_fixed_point_form_degenerate():
    ident = MorphismModel.from_coeff_lists(1, 1, [[1, 0], [0, 1]])
    with pytest.raises(DegenerateInputError):
        fixed_point_form(ident)


def test_power_sums_z_squared():
    assert multiplier_power_sums(z_squared(), 3) == [2, 4, 8]


def test_power_sums_z2_minus_2z():
    m = bq(1, -2, 0, 0, 0, 1)
    assert multiplier_power_sums(m, 1) == [2]
    assert multiplier_power_sums(m, 3) == [2, 20, 56]  # multipliers {-2, 4, 0}


def test_power_sums_triple_fixed_point_at_infinity():
    assert multiplier_power_sums(twist(2), 3) == [3, 3, 3]
    assert multiplier_power_sums(twist(1), 3) == [3, 3, 3]


def test_power_sums_requires_morphism():
    with pytest.raises(NotAMorphismError):
        multiplier_power_sums(bq(0, 1, 0, 0, 0, 1), 2)
    # quadratic maps of P^1 only: z^3 and a map of P^2 are refused, as sigma refuses them
    cube = binary(3, [1, 0, 0, 0], [0, 0, 0, 1])
    plane = MorphismModel.from_coeff_lists(2, 2, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]])
    for m in (cube, plane):
        with pytest.raises(InvalidArgumentError):
            multiplier_power_sums(m, 2)
    with pytest.raises(InvalidArgumentError):
        multiplier_power_sums(z_squared(), -1)


def test_power_sums_numeric_cross_check(rng):
    # numeric fixed points + multipliers from an independent symbolic route
    z = sympy.Symbol("z")
    for _ in range(8):
        m = random_morphism(rng, 1, 2, bound=4)
        p0 = sum(int(c) * z ** (2 - i) for i, c in enumerate(m.forms[0].coeffs))
        p1 = sum(int(c) * z ** (2 - i) for i, c in enumerate(m.forms[1].coeffs))
        fix = sympy.expand(p0 - z * p1)
        phi_prime = sympy.diff(p0 / p1, z)
        total = Fraction(0)
        degree_drop = 3 - sympy.degree(fix, z)
        if degree_drop:
            # multiplier at infinity in the w = 1/z chart
            w = sympy.Symbol("w")
            psi = (p1 / p0).subs(z, 1 / w)
            lam_inf = sympy.simplify(sympy.diff(sympy.simplify(psi), w).subs(w, 0))
            total += Fraction(str(lam_inf)) * degree_drop
        expected_p1 = multiplier_power_sums(m, 1)[0]
        numeric = complex(total)
        for root in sympy.Poly(fix, z).all_roots():
            numeric += complex(phi_prime.subs(z, root).evalf(30))
        assert abs(numeric - complex(Fraction(expected_p1))) < 1e-12


def test_sigma_examples():
    assert sigma_invariants(z_squared()) == (2, 0)
    assert sigma_invariants(bq(1, -2, 0, 0, 0, 1)) == (2, -8)
    assert sigma_invariants(twist(2)) == sigma_invariants(twist(1)) == (3, 3)


def test_sigma_degree2_relation(rng):
    for model in (z_squared(), bq(1, -2, 0, 0, 0, 1), twist(2), twist(3)):
        s1, _, s3 = sigma_invariants_full(model)
        assert s3 == s1 - 2
    for _ in range(25):
        s1, _, s3 = sigma_invariants_full(random_morphism(rng, 1, 2))
        assert s3 == s1 - 2


def test_multiplier_spectrum_type(rng):
    spec = oracle_multiplier_spectrum(z_squared())
    assert spec.power_sums == (2, 4, 8)
    assert spec.elementary_symmetric == (2, 0, 0)
    # the elementary symmetric functions are derived: e1 = p1, e2 = (e1 p1 - p2) / 2
    assert MultiplierSpectrum((Fraction(1), Fraction(2))).elementary_symmetric == (1, Fraction(-1, 2))
    for _ in range(5):
        m = random_morphism(rng, 1, 2)
        spec = oracle_multiplier_spectrum(m)
        assert len(spec.power_sums) == 3
        assert spec.elementary_symmetric[:2] == sigma_invariants(m)


def test_newton_round_trip(rng):
    for _ in range(40):
        elem = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
        psums = elementary_to_power_sums(elem, 3)
        assert power_sums_to_elementary(psums) == elem


def test_sigma_conjugation_invariance(rng):
    for _ in range(20):
        m = random_morphism(rng, 1, 2)
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] != 0:
                break
        f = LinearMap.from_rows(rows)
        assert sigma_invariants(conjugate(m, f)) == sigma_invariants(m)
        assert sigma_invariants(conjugate(m, f.inverse())) == sigma_invariants(m)


def test_sigma_chart_independence(rng):
    for _ in range(10):
        m = random_morphism(rng, 1, 2)
        t = rng.randint(1, 5)
        shifted = conjugate(m, LinearMap.from_rows([[1, t], [0, 1]]))
        assert sigma_invariants(shifted) == sigma_invariants(m)


def test_moduli_height_z_squared():
    mp = moduli_height(z_squared())
    assert mp.point == (2, 0, 1)
    assert mp.mult_height == 2
    assert mp.height == math.log(2)


def test_moduli_height_common_across_twists():
    heights = {moduli_height(twist(b)).mult_height for b in (1, 2, 3)}
    assert heights == {3}  # sigma = (3, 3) -> [3 : 3 : 1]


def test_moduli_height_refuses_other_shapes():
    m = MorphismModel.from_coeff_lists(2, 2, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]])
    with pytest.raises(InvalidArgumentError):
        moduli_height(m)


def test_moduli_height_rejects_degenerate():
    with pytest.raises(NotAMorphismError):
        moduli_height(bq(0, 1, 0, 0, 0, 1))


def test_sigma_rational_denominators(rng):
    # maps with non-trivial denominators exercise the exact point clearing
    m = bq(2, 1, -1, 1, 3, 1)
    s1, s2 = sigma_invariants(m)
    mp = moduli_height(m)
    x, y, z = mp.point
    assert Fraction(x, z) == s1 and Fraction(y, z) == s2
    assert math.gcd(math.gcd(abs(x), abs(y)), z) == 1


# --- the retired companion-matrix route, kept as an oracle --------------------
# p_j was the trace of M^j for M = r(C) * s(C)^-1, C the companion matrix of
# the monic affine fixed-point polynomial; when gcd(s, f) was not constant it
# retried in the chart shifted by z -> z + t.


def _oracle_poly_mod(a, m):
    a = [Fraction(c) for c in a]
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        q = a[-1] / m[-1]
        for i in range(dm + 1):
            a[shift + i] -= q * m[i]
        _poly_trim(a)
    return a


def _oracle_poly_gcd(a, b):
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b:
        a, b = b, _oracle_poly_mod(a, b)
    return a


def _oracle_eval_matrix(p, C):
    n = len(C)
    acc = [[Fraction(0)] * n for _ in range(n)]
    power = identity(n)
    for c in p:
        acc = [[acc[r][s] + c * power[r][s] for s in range(n)] for r in range(n)]
        power = mat_mul(power, C)
    return acc


def _oracle_companion(monic):
    m = len(monic) - 1
    C = [[Fraction(0)] * m for _ in range(m)]
    for i in range(1, m):
        C[i][i - 1] = Fraction(1)
    for i in range(m):
        C[i][m - 1] = -monic[i]
    return C


def companion_power_sums(model, k, retries=8, shifts=None):
    """The multiplier power sums p_1..p_k by the retired matrix route."""
    d = model.d
    fixpoly = _poly_trim([Fraction(c) for c in fixed_point_form(model).dehomogenized()])
    m = len(fixpoly) - 1
    inf_mult = (d + 1) - m
    lam_inf = Fraction(0)
    if inf_mult > 0:
        lam_inf = Fraction(model.forms[1].coefficient((d - 1, 1))) / Fraction(model.forms[0].coefficient((d, 0)))
    operator = None
    if m > 0:
        monic = [c / fixpoly[-1] for c in fixpoly]
        p0 = [Fraction(c) for c in model.forms[0].dehomogenized()]
        p1 = [Fraction(c) for c in model.forms[1].dehomogenized()]
        r = _poly_sub(_poly_mul(_poly_deriv(p0), p1), _poly_mul(p0, _poly_deriv(p1)))
        s = _poly_mul(p1, p1)
        if len(_oracle_poly_gcd(s, monic)) > 1:
            if retries == 0:
                raise DegenerateInputError("no chart separated fixed points from poles")
            if shifts is not None:
                shifts.append(9 - retries)
            shifted = conjugate(model, LinearMap.from_rows([[1, 9 - retries], [0, 1]]))
            return companion_power_sums(shifted, k, retries - 1, shifts)
        C = _oracle_companion(monic)
        S = _oracle_eval_matrix(_oracle_poly_mod(s, monic), C)
        R = _oracle_eval_matrix(_oracle_poly_mod(r, monic), C)
        operator = mat_mul(R, mat_inverse(S))
    psums = []
    power = operator
    for j in range(1, k + 1):
        total = inf_mult * lam_inf**j
        if operator is not None:
            total += sum(power[i][i] for i in range(len(power)))
            power = mat_mul(power, operator)
        psums.append(total)
    return psums


def test_power_sums_match_companion_matrix_oracle(rng):
    models = []
    for d in (2, 3, 4):
        models += [random_morphism(rng, 1, d, bound=4) for _ in range(6)]
        # [1:0] is fixed when the second form has no X^d term
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(d + 1)] for _ in range(2)]
            rows[1][0] = 0
            m = binary(d, *rows)
            if macaulay_resultant(m).value != 0:
                models.append(m)
                break
    models += [twist(2), twist(Fraction(1, 3)), bq(Fraction(1, 2), 3, 0, 0, 0, 1)]
    models += list(enumerate_models(1, 2, 1))
    at_infinity = 0
    for m in models:
        fixpoly = _poly_trim([Fraction(c) for c in fixed_point_form(m).dehomogenized()])
        at_infinity += len(fixpoly) < m.d + 2
        shifts = []
        assert oracle_multiplier_power_sums(m, m.d + 1) == companion_power_sums(m, m.d + 1, shifts=shifts)
        # gcd(p1^2, f) = gcd(p1^2, p0) for f = p0 - z p1: no morphism needs a shifted chart
        assert shifts == []
    assert at_infinity >= 6


def test_shared_fixed_root_is_not_a_morphism():
    # p0 = z(z - 1) and p1 = (z - 1)(z + 2) share the fixed point z = 1
    m = bq(1, -1, 0, 1, 1, -2)
    assert macaulay_resultant(m).value == 0
    with pytest.raises(NotAMorphismError):
        oracle_multiplier_power_sums(m, 3)
    monic = [Fraction(0), Fraction(-1), Fraction(0), Fraction(1)]  # -(fixed-point polynomial)
    assert _poly_trim([-c for c in fixed_point_form(m).dehomogenized()]) == monic
    with pytest.raises(NotAMorphismError):
        _affine_multiplier(m, monic)
    # the retired route's chart shifts could never help: conjugation keeps the common root
    shifts = []
    with pytest.raises(DegenerateInputError):
        companion_power_sums(m, 3, shifts=shifts)
    assert shifts == list(range(1, 9))


# --- the fixed-point morphism test against the resultant ----------------------


def _times_linear(g, r):
    """Lex-desc coefficients of (X - r Y) * G for G given by its coefficients."""
    return [a - r * b for a, b in zip(list(g) + [0], [0] + list(g))]


def test_fixed_point_morphism_test_matches_resultant(rng):
    # the oracle multiplier route decides "morphism" from the fixed points alone:
    # it must refuse exactly the models whose resultant vanishes
    models = [bq(*t) for t in itertools.product((-1, 0, 1), repeat=6) if any(t)]
    shaped = []
    for d in (3, 4):
        for _ in range(6):
            models.append(random_model(rng, 1, d, bound=3))
            L = [rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(d - 1)]
            shaped.append(binary(d, L + [0], [0] + L))  # (a) Fix = 0: phi = (X L, Y L)
            rows = [[rng.randint(-3, 3) for _ in range(d)] + [rng.randint(1, 3)] for _ in range(2)]
            rows[0][0] = rows[1][0] = 0
            shaped.append(binary(d, *rows))  # (b) both forms vanish at [1:0]
            g0, g1 = ([rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(d - 1)] for _ in range(2))
            r = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            shaped.append(binary(d, _times_linear(g0, r), _times_linear(g1, r)))  # (c) shared affine root
    assert all(macaulay_resultant(m).value == 0 for m in shaped)
    for m in models + shaped:
        zero = macaulay_resultant(m).value == 0
        for k in (0, m.d + 1):
            if zero:
                with pytest.raises(NotAMorphismError) as info:
                    oracle_multiplier_power_sums(m, k)
                assert str(info.value) == "resultant vanishes; not a morphism"
            else:
                assert len(oracle_multiplier_power_sums(m, k)) == k


# --- quadratic sigma as P_i / Res against the oracle multiplier route --------


def test_sigma_numerators_expand_the_multiplier_polynomial():
    # prod (t - lambda_j) = Res_z(f, (t - 1) p1 - f') / Res_z(f, p1) for f = p0 - z p1,
    # and Res_z(f, p1) = b0 Res: the numerators must make Res t^3 - P1 t^2 + P2 t - P3 that ratio
    v = sympy.symbols("a0 a1 a2 b0 b1 b2")
    a0, a1, a2, b0, b1, b2 = v
    z, t = sympy.symbols("z t")
    P1, P2, P3 = _sigma_numerators(*v)
    assert [len(sympy.Add.make_args(sympy.expand(P))) for P in (P1, P2, P3)] == [14, 19, 14]
    p0, p1 = a0 * z**2 + a1 * z + a2, b0 * z**2 + b1 * z + b2
    f = sympy.expand(p0 - z * p1)
    res = sympy.resultant(p0, p1, z)
    assert sympy.expand(sympy.resultant(f, p1, z) - b0 * res) == 0
    numerator = sympy.resultant(f, sympy.expand((t - 1) * p1 - sympy.diff(f, z)), z)
    assert sympy.expand(numerator - b0 * (res * t**3 - P1 * t**2 + P2 * t - P3)) == 0
    # the symbolic resultant is the one dynres computes, sign included
    for model in (z_squared(), bq(2, 1, -1, 1, 3, 1), twist(3)):
        values = dict(zip(v, (int(c) for c in model.all_coeffs())))
        assert res.subs(values) == macaulay_resultant(model).value


def _sigma_by_power_sums(model):
    return tuple(power_sums_to_elementary(oracle_multiplier_power_sums(model, 3)))


def test_quadratic_sigma_matches_power_sums(rng):
    box = [bq(*c) for c in itertools.product((-1, 0, 1), repeat=6) if any(c)]
    box = [m for m in box if macaulay_resultant(m).value != 0]
    rationals = []
    while len(rationals) < 60:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(6)]
        if len(rationals) % 3 == 0:
            coeffs[3] = Fraction(0)  # [1:0] is fixed
        m = bq(*coeffs)
        if any(coeffs) and macaulay_resultant(m).value != 0:
            rationals.append(m)
    # z^2 + 1/4 has the double fixed point 1/2 and fixes infinity; z + b/z fixes only
    # infinity, three times; the conjugates move the multiple fixed point off infinity
    multiple = [bq(1, 0, Fraction(1, 4), 0, 0, 1), twist(2), twist(Fraction(-1, 3))]
    multiple += [conjugate(m, LinearMap.from_rows([[1, 0], [1, 1]])) for m in multiple]
    assert sum(m.forms[1].coeffs[0] == 0 for m in box + rationals) >= 100
    for m in box + rationals + multiple:
        assert sigma_invariants_full(m) == _sigma_by_power_sums(m)
        assert sigma_invariants_full(m.scale(Fraction(-3, 7))) == sigma_invariants_full(m)
        # Newton's identities on sigma give the oracle's p_1..p_k, for k = 0..6
        expected = oracle_multiplier_power_sums(m, 6)
        for k in range(7):
            assert multiplier_power_sums(m, k) == expected[:k]
    assert sigma_invariants_full(multiple[0]) == (2, 1, 0)  # multipliers 1, 1, 0


def test_quadratic_sigma_refuses_what_power_sums_refuse(rng):
    # the d = 2 shapes of the three vanishing-resultant cases, and the whole H = 1 box
    models = [bq(*c) for c in itertools.product((-1, 0, 1), repeat=6) if any(c)]
    shaped = []
    for _ in range(6):
        L = [rng.randint(1, 3), rng.randint(-3, 3)]
        shaped.append(binary(2, L + [0], [0] + L))  # (a) Fix = 0: phi = (X L, Y L)
        rows = [[0, rng.randint(-3, 3), rng.randint(1, 3)] for _ in range(2)]
        shaped.append(binary(2, *rows))  # (b) both forms vanish at [1:0]
        g0, g1 = ([rng.randint(1, 3), rng.randint(-3, 3)] for _ in range(2))
        r = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        shaped.append(binary(2, _times_linear(g0, r), _times_linear(g1, r)))  # (c) shared affine root
    assert all(macaulay_resultant(m).value == 0 for m in shaped)
    refused = 0
    for m in models + shaped:
        if macaulay_resultant(m).value != 0:
            continue
        refused += 1
        for route in (sigma_invariants_full, _sigma_by_power_sums):
            with pytest.raises(NotAMorphismError) as info:
                route(m)
            assert str(info.value) == "resultant vanishes; not a morphism"
    assert refused > len(shaped)
