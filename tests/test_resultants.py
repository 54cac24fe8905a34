import random
from fractions import Fraction

import pytest
import sympy

from conftest import _macaulay_quotient, _perturbation_resultant, binary, bq, random_model, random_morphism, z_squared
from dynres import (
    InvalidArgumentError,
    MorphismModel,
    NotAMorphismError,
    exact_determinant,
    macaulay_matrix,
    macaulay_resultant,
    monomials,
    sylvester_matrix,
    sylvester_resultant,
)
from dynres import _matrix
from dynres import resultants
from dynres.resultants import ResultantValue, nonzero_resultant

X, Y, Z = sympy.symbols("x y z")


def _cofactor_det(m):
    # independent tiny determinant for oracle duty
    if len(m) == 1:
        return m[0][0]
    total = Fraction(0)
    for j, c in enumerate(m[0]):
        if c == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * c * _cofactor_det(minor)
    return total


def _to_sympy(model, i, varlist):
    expr = sympy.Integer(0)
    for exps, c in zip(monomials(model.n, model.d), model.forms[i]):
        term = sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
        for v, e in zip(varlist, exps):
            term *= v**e
        expr += term
    return expr


def test_sylvester_examples():
    f, g = z_squared().forms
    assert sylvester_resultant(f, g) == 1
    f, g = bq(1, 0, 2, 0, 1, 0).forms
    assert sylvester_resultant(f, g) == 2
    f, g = bq(1, 0, 8, 0, 1, 0).forms
    assert sylvester_resultant(f, g) == 8


def test_sylvester_matches_cofactor_oracle():
    for model in (bq(1, 0, 2, 0, 1, 0), bq(3, -1, 2, 1, 1, 1), z_squared()):
        mat = sylvester_matrix(*model.forms)
        assert sylvester_resultant(*model.forms) == _cofactor_det(mat)


def test_sylvester_degree_mismatch():
    f = binary(2, [1, 0, 0], [0, 0, 1]).forms[0]
    g = binary(3, [1, 0, 0, 0], [0, 0, 0, 1]).forms[1]
    with pytest.raises(InvalidArgumentError):
        sylvester_resultant(f, g)
    # a binary form of degree d is its d + 1 coefficients: equal lengths, degree >= 1
    for f, g in (((1, 0, 0), (0, 1)), ((1, 2), (1, 2, 3)), ((1,), (2,)), ((), ())):
        for build in (sylvester_matrix, sylvester_resultant):
            with pytest.raises(InvalidArgumentError) as excinfo:
                build(f, g)
            assert excinfo.value.code == "invalid-argument"
            assert str(excinfo.value) == "binary forms must have equal degree >= 1"


def test_sylvester_against_sympy(rng):
    for _ in range(40):
        d = rng.choice([1, 2, 3, 4])
        m = random_model(rng, 1, d, bound=9)
        if m.forms[0][0] == 0 or m.forms[1][0] == 0:
            continue  # sympy's univariate resultant drops degree there
        f = _to_sympy(m, 0, [X, Y]).subs(Y, 1)
        g = _to_sympy(m, 1, [X, Y]).subs(Y, 1)
        expected = Fraction(str(sympy.resultant(sympy.Poly(f, X), sympy.Poly(g, X))))
        assert sylvester_resultant(*m.forms) == expected


def _general_sylvester(fc, gc):
    # mixed-degree Sylvester for the oracle (descending coefficient lists)
    m, n = len(fc) - 1, len(gc) - 1
    size = m + n
    rows = []
    for shift in range(n):
        rows.append([Fraction(0)] * shift + [Fraction(c) for c in fc] + [Fraction(0)] * (size - m - 1 - shift))
    for shift in range(m):
        rows.append([Fraction(0)] * shift + [Fraction(c) for c in gc] + [Fraction(0)] * (size - n - 1 - shift))
    return rows


def test_sylvester_multiplicativity_small():
    # Res(f*u, g) = Res(f, g) * Res(u, g) with f = x-2y, u = x+3y, g = 2x^2+xy+5y^2
    fu = [1, 1, -6]
    g = [2, 1, 5]
    lhs = sylvester_resultant(*binary(2, fu, g).forms)
    rhs = _cofactor_det(_general_sylvester([1, -2], g)) * _cofactor_det(_general_sylvester([1, 3], g))
    assert lhs == rhs


def test_macaulay_linear_is_determinant(rng):
    for _ in range(20):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        if not any(any(r) for r in rows):
            continue
        m = MorphismModel.from_coeff_lists(2, 1, rows)
        det = exact_determinant(rows)
        assert macaulay_resultant(m).value == det


def test_macaulay_power_map_is_one():
    m = MorphismModel.from_coeff_lists(2, 2, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]])
    result = macaulay_resultant(m)
    assert result.value == 1
    assert result.method == "macaulay_quotient"


def test_macaulay_delegates_for_binary(rng):
    for _ in range(30):
        m = random_model(rng, 1, rng.choice([1, 2, 3]))
        rv = macaulay_resultant(m)
        assert rv.method == "sylvester"
        assert rv.value == sylvester_resultant(*m.forms)
        # the generic Macaulay machinery agrees with the Sylvester specialization
        generic = _macaulay_quotient(m, "bareiss")
        assert generic == rv.value


def test_macaulay_against_sympy_pipeline(rng):
    from sympy.polys.multivariate_resultants import MacaulayResultant

    checked = 0
    attempts = 0
    while checked < 6 and attempts < 200:
        attempts += 1
        m = random_model(rng, 2, 2, bound=5)
        polys = [_to_sympy(m, i, [X, Y, Z]) for i in range(3)]
        if any(p == 0 for p in polys):
            continue
        mac = MacaulayResultant(polys, [X, Y, Z])
        M = mac.get_matrix()
        try:
            minor_det = mac.get_submatrix(M).det()
        except Exception:
            continue  # sympy's submatrix extraction is shape-fragile
        if minor_det == 0:
            continue
        expected = Fraction(str(sympy.Rational(M.det(), minor_det)))
        assert macaulay_resultant(m).value == expected
        checked += 1
    assert checked == 6


def test_vanishing_characterization(rng):
    # constructed common zero at (1:0:0): all x^2 coefficients zero
    for _ in range(10):
        lists = [[0] + [rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
        if not any(any(r) for r in lists):
            continue
        m = MorphismModel.from_coeff_lists(2, 2, lists)
        assert macaulay_resultant(m).value == 0
    assert macaulay_resultant(bq(0, 1, 0, 0, 0, 1)).value == 0  # [XY : Y^2]
    # perturbing the degenerate pair restores a morphism
    for t in (1, -1, 2, 5):
        assert macaulay_resultant(binary(2, [t, 1, 0], [0, 0, 1])).value == t * t


def test_scaling_law(rng):
    for _ in range(30):
        n = rng.choice([1, 2])
        d = rng.choice([1, 2, 3])
        m = random_model(rng, n, d, bound=4)
        lam = Fraction(rng.choice([2, -2, 3, -3, 1]), rng.choice([1, 2]))
        assert macaulay_resultant(m.scale(lam)).value == lam ** ((n + 1) * d**n) * macaulay_resultant(m).value


def test_exact_determinant_examples():
    identity5 = [[int(i == j) for j in range(5)] for i in range(5)]
    assert exact_determinant(identity5) == 1
    assert exact_determinant([[0, 1], [1, 0]]) == -1


def test_determinant_backends_agree(rng):
    for _ in range(20):
        size = rng.randint(2, 20)
        mat = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        assert exact_determinant(mat, "bareiss") == exact_determinant(mat, "modular_crt")


def test_determinant_against_sympy(rng):
    for _ in range(5):
        size = rng.randint(2, 8)
        mat = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(size)] for _ in range(size)]
        expected = sympy.Matrix(size, size, [sympy.Rational(x.numerator, x.denominator) for row in mat for x in row]).det()
        assert exact_determinant(mat, "bareiss") == Fraction(str(expected))
        assert exact_determinant(mat, "modular_crt") == Fraction(str(expected))


def test_unknown_backend_rejected():
    with pytest.raises(InvalidArgumentError):
        exact_determinant([[1]], "gauss")
    # the resultant's integer determinants go through the same backend dispatch
    for model in (z_squared(), random_morphism(random.Random(7), 2, 2)):
        with pytest.raises(InvalidArgumentError) as excinfo:
            macaulay_resultant(model, "gauss")
        assert str(excinfo.value) == "unknown determinant backend 'gauss'"


def test_macaulay_matrix_shape():
    m = random_model(random.Random(5), 2, 2)
    mac = macaulay_matrix(m)
    assert mac.critical_degree == 4
    assert mac.size() == 15  # C(2+4, 2)
    assert len(mac.reduced_minor_index) == 3  # x^2y^2, x^2z^2, y^2z^2


# det(M') vanishes for these but the resultant is nonzero: exercises the fallback
FALLBACK_FIXTURES = [
    ([[0, -2, 3, 3, -3, -2], [1, 1, 0, -2, -2, -3], [3, -3, -2, 3, -2, -2]], Fraction(408121)),
    ([[0, 2, -1, -2, 0, 0], [2, -2, -3, -1, -3, 2], [-1, 3, 0, -3, 1, 3]], Fraction(-48515)),
]


def test_perturbation_fallback_fixtures():
    for lists, expected in FALLBACK_FIXTURES:
        m = MorphismModel.from_coeff_lists(2, 2, lists)
        assert _macaulay_quotient(m, "bareiss") is None
        rv = macaulay_resultant(m)
        assert rv.method == "perturbation"
        assert rv.value == expected


def test_perturbation_fixture_values_via_row_mixing(rng):
    # Res(B*F) = det(B)^(d^n) Res(F): mix a fallback case into quotient range
    for lists, expected in FALLBACK_FIXTURES:
        m = MorphismModel.from_coeff_lists(2, 2, lists)
        for _ in range(50):
            B = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            det_b = exact_determinant(B)
            if det_b == 0:
                continue
            mixed = []
            for i in range(3):
                acc = [Fraction(0)] * 6
                for j in range(3):
                    if B[i][j]:
                        for t, c in enumerate(m.forms[j]):
                            acc[t] += B[i][j] * c
                mixed.append(acc)
            q = _macaulay_quotient(MorphismModel.from_coeff_lists(2, 2, mixed), "bareiss")
            if q is None:
                continue
            assert q == det_b**4 * expected
            break
        else:
            pytest.fail("no invertible row mix reached the quotient path")


def test_perturbation_agrees_with_quotient(rng):
    for _ in range(6):
        m = random_morphism(rng, 2, 2, bound=3)
        q = _macaulay_quotient(m, "bareiss")
        if q is None:
            continue
        assert _perturbation_resultant(m, "bareiss") == q


def _retired_sylvester_rows(f, g):
    # the row loop sylvester_matrix had before it filled from the Macaulay placement
    d = len(f) - 1
    rows = []
    for coeffs in (f, g):
        for shift in range(d):
            row = [Fraction(0)] * (2 * d)
            for j, c in enumerate(coeffs):
                row[shift + j] = Fraction(c)
            rows.append(row)
    return rows


def test_sylvester_matrix_matches_retired_row_loop(rng):
    for d in (1, 2, 3):
        zero = (0,) * (d + 1)
        pairs = [(zero, zero), (zero, random_model(rng, 1, d).forms[1])]
        pairs += [random_model(rng, 1, d).forms for _ in range(10)]
        pairs.append((tuple(range(1, d + 2)), (Fraction(1, 2),) * (d + 1)))
        for f, g in pairs:
            mat = sylvester_matrix(f, g)
            assert mat == _retired_sylvester_rows(f, g)
            assert all(type(x) is Fraction for row in mat for x in row)
        assert sylvester_resultant(zero, zero) == 0


def test_nonzero_resultant():
    assert nonzero_resultant(bq(1, 0, 8, 0, 1, 0)) == 8
    with pytest.raises(NotAMorphismError, match="resultant vanishes"):
        nonzero_resultant(bq(0, 1, 0, 0, 0, 1))


def _singular_minor_draws(rng, n, d, count, vanishing, max_denominator=1):
    """Sparse models whose reduced minor is singular: morphisms, or models that all vanish at (1:0:...:0).

    With max_denominator > 1 each coefficient is a fraction over a denominator drawn up to it.
    """
    per_form = len(monomials(n, d))

    def coefficient():
        c = 0 if rng.random() < 0.6 else rng.randint(-3, 3)
        return Fraction(c, rng.randint(1, max_denominator)) if max_denominator > 1 else c

    out = []
    while len(out) < count:
        lists = [[coefficient() for _ in range(per_form)] for _ in range(n + 1)]
        if vanishing:
            for row in lists:
                row[0] = 0  # no X_0^d term anywhere
        if not any(any(row) for row in lists):
            continue
        m = MorphismModel.from_coeff_lists(n, d, lists)
        if _macaulay_quotient(m, "bareiss") is None and (vanishing or macaulay_resultant(m).value != 0):
            out.append(m)
    return out


def test_perturbation_matches_retired_interpolation():
    # delta + 1 nodes give the value that size + 1 nodes gave
    rng = random.Random(606)
    values = []
    for (n, d), count in (((2, 2), 4), ((2, 3), 2)):
        for m in _singular_minor_draws(rng, n, d, count, False) + _singular_minor_draws(rng, n, d, 1, True):
            for backend in ("bareiss", "modular_crt"):
                rv = macaulay_resultant(m, backend)
                assert rv.method == "perturbation"
                assert rv.value == _perturbation_resultant(m, backend)
                values.append(rv.value)
    assert values.count(0) == 4 and len(values) == 16


# det(M') vanishes for these; values recorded with the (size + 1)-node interpolation
PINNED_PERTURBATION = [
    (
        2,
        3,
        [[0, 3, 0, 0, -2, 3, 3, 0, 0, -1], [-2, 0, -1, 0, 0, -1, 0, 0, 0, -3], [0, 0, -3, -1, 0, 1, 3, 0, 0, 0]],
        Fraction(-443682164056140),
    ),
    (
        3,
        2,
        [
            [-2, 0, 0, -1, 0, 0, 0, -2, 2, 0],
            [0, 0, 0, -1, 0, 0, 1, 0, 2, 0],
            [0, 0, 0, 3, -2, 0, 1, 0, 0, 0],
            [0, 0, 3, -3, 0, 0, 0, 3, -3, 3],
        ],
        Fraction(5222450184192),
    ),
]


def test_perturbation_pinned_larger_shapes(monkeypatch):
    det_sizes = []
    det_bareiss_int = _matrix.det_bareiss_int

    # the resultant eliminates integer matrices, so count the integer kernel of the default backend
    def counting(matrix):
        det_sizes.append(len(matrix))
        return det_bareiss_int(matrix)

    monkeypatch.setattr(_matrix, "det_bareiss_int", counting)
    for n, d, lists, expected in PINNED_PERTURBATION:
        m = MorphismModel.from_coeff_lists(n, d, lists)
        det_sizes.clear()
        rv = macaulay_resultant(m)
        assert (rv.method, rv.value) == ("perturbation", expected)
        # R(t) has degree (n+1) d^n, so that many nodes plus one, each one det(M + tI)
        assert det_sizes.count(macaulay_matrix(m).size()) == (n + 1) * d**n + 1


SHAPES = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2))


def _symbolic_fill(pattern, order) -> int:
    # entries that diagonal elimination in this order turns from zero to nonzero
    position = {r: k for k, r in enumerate(order)}
    rows = [{position[c] for c in pattern[r]} for r in order]
    fill = 0
    for k, pivot in enumerate(rows):
        right = {j for j in pivot if j > k}
        for row in rows[k + 1 :]:
            if k in row:
                fill += len(right - row)
                row |= right
    return fill


def test_elimination_order_is_a_permutation():
    for n, d in SHAPES:
        size = len(monomials(n, (n + 1) * (d - 1) + 1))
        assert sorted(resultants._elimination_order(n, d)) == list(range(size))


def test_elimination_order_reduces_fill():
    for n, d in SHAPES:
        pattern = [set(targets) for _, targets in resultants._placement(n, d)[0]]
        fill = _symbolic_fill(pattern, resultants._elimination_order(n, d))
        natural = _symbolic_fill(pattern, range(len(pattern)))
        assert fill <= natural
        if n >= 2 and d >= 2:
            assert 2 * fill < natural


def test_elimination_placement_permutes_rows_and_columns(rng):
    for n, d in SHAPES:
        order = resultants._elimination_order(n, d)
        placement, minor = resultants._elimination_placement(n, d)
        for _ in range(3):
            model = random_model(rng, n, d)
            mac = macaulay_matrix(model)
            natural = mac.rows()
            permuted = resultants._fill(placement, model.forms, 0)
            assert permuted == [[natural[r][c] for c in order] for r in order]
            # so M' is the principal minor of the permuted M on the images of the rows of M'
            assert sorted(order[a] for a in minor) == list(mac.reduced_minor_index)
            assert [[permuted[a][b] for b in minor] for a in minor] == [
                [natural[order[a]][order[b]] for b in minor] for a in minor
            ]


def _natural_order_resultant(model, backend) -> ResultantValue:
    # the route through the natural monomial order, from the tests/conftest.py oracles
    quotient = _macaulay_quotient(model, backend)
    if quotient is not None:
        return ResultantValue(quotient, "sylvester" if model.n == 1 else "macaulay_quotient")
    return ResultantValue(_perturbation_resultant(model, backend), "perturbation")


def test_macaulay_resultant_matches_natural_order():
    rng = random.Random(1515)
    draws = []
    for n, d in ((2, 2), (2, 3), (3, 2)):
        draws += [random_model(rng, n, d) for _ in range(3 if (n, d) == (3, 2) else 5)]
        draws += _singular_minor_draws(rng, n, d, 1, False) + _singular_minor_draws(rng, n, d, 1, True)
    seen = set()
    for model in draws:
        for backend in ("bareiss", "modular_crt"):
            rv = macaulay_resultant(model, backend)
            assert rv == _natural_order_resultant(model, backend)
            seen.add((model.n, model.d, rv.method, rv.vanishes()))
    for n, d in ((2, 2), (2, 3), (3, 2)):
        assert {(n, d, "macaulay_quotient", False), (n, d, "perturbation", False), (n, d, "perturbation", True)} <= seen


def test_modular_determinant_falls_back_on_non_unit_pivots(monkeypatch):
    moduli = []
    det_mod_p = _matrix.det_mod_p

    def recording(matrix, p):
        moduli.append(p)
        return det_mod_p(matrix, p)

    monkeypatch.setattr(_matrix, "det_mod_p", recording)
    p1 = _matrix._crt_primes(1)[0]
    rng = random.Random(88)
    multiples_of_p1 = {
        "first column": lambda i, j: j == 0,
        "every entry": lambda i, j: True,
        "diagonal": lambda i, j: i == j,
        "random entries": lambda i, j: rng.random() < 0.4,
    }
    for size in range(1, 9):
        for kind, hit in multiples_of_p1.items():
            mat = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            mat[0][0] = rng.choice([-9, -1, 1, 9])
            mat = [[x * p1 if hit(i, j) else x for j, x in enumerate(row)] for i, row in enumerate(mat)]
            moduli.clear()
            assert exact_determinant(mat, "modular_crt") == exact_determinant(mat, "bareiss")
            if kind != "random entries":
                # the first pivot is a nonzero multiple of p1, so not a unit mod N: one elimination per prime
                assert moduli[1:] == _matrix._crt_primes(2 * _matrix.hadamard_bound(mat))


RATIONAL_SHAPES = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))


def _rational_model(rng, n, d) -> MorphismModel:
    # coefficients over denominators up to 7
    per_form = len(monomials(n, d))
    while True:
        lists = [[Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(per_form)] for _ in range(n + 1)]
        if any(any(row) for row in lists):
            return MorphismModel.from_coeff_lists(n, d, lists)


def test_rational_coefficients_match_the_fraction_matrix_route():
    # the resultant scales each form to integers once; the oracles eliminate the Fraction matrices
    rng = random.Random(24)
    seen = set()
    for n, d in RATIONAL_SHAPES:
        draws = [_rational_model(rng, n, d) for _ in range(1 if (n, d) == (3, 2) else 3)]
        if n >= 2:
            draws += _singular_minor_draws(rng, n, d, 1, False, max_denominator=7)
        for model in draws:
            assert any(c.denominator > 1 for c in model.all_coeffs())
            for backend in ("bareiss", "modular_crt"):
                rv = macaulay_resultant(model, backend)
                assert rv == _natural_order_resultant(model, backend)
                assert not rv.vanishes()
                seen.add((n, d, rv.method))
    for n, d in RATIONAL_SHAPES:
        methods = {"sylvester"} if n == 1 else {"macaulay_quotient", "perturbation"}
        assert {(n, d, method) for method in methods} <= seen


def test_rescaling_one_form_multiplies_by_lambda_to_the_d_n(rng):
    # Res is homogeneous of degree d^n in the coefficients of each form
    for n, d in RATIONAL_SHAPES[:4]:
        for _ in range(3):
            model = random_morphism(rng, n, d, bound=4)
            i = rng.randrange(n + 1)
            lam = Fraction(rng.choice([2, -3, 5, -7]), rng.randint(1, 7))
            lists = [[c * lam if k == i else c for c in f] for k, f in enumerate(model.forms)]
            rescaled = MorphismModel.from_coeff_lists(n, d, lists)
            for backend in ("bareiss", "modular_crt"):
                expected = lam ** (d**n) * macaulay_resultant(model, backend).value
                assert macaulay_resultant(rescaled, backend).value == expected
