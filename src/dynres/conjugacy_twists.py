"""PGL_2(Q)-conjugacy testing, twist bucketing, and the quadratic twist family.

Conjugacy over Q is a semidecision: a definite yes comes with a re-verified
witness matrix, a definite no comes from a separating conjugation invariant,
and an exhausted search stays honestly unknown.  The family z + b/z supplies
exactly solvable instances: two members are Q-isomorphic precisely when the
ratio of their parameters is a rational square.

Witnesses are searched among the candidates: the primitive, sign-normalized
invertible integer matrices with entries up to the budget's matrix bound.
conjugacy_test asks whether some candidate F sends psi to phi, i.e.
conj(psi, F) = adj(F) * psi(F X) is a multiple of phi.  Twist bucketing asks
the same question from the other side, and the answers agree:

- adj F has the entries of F up to sign, so its primitive sign-normalized
  form is again a candidate, and conjugating by -F gives the same point as F;
- conj(conj(psi, F), adj F) = det(F)^(d+1) * psi, since F * adj F = det(F) * I.

So some candidate sends psi to phi exactly when some candidate sends phi to
psi.  bucket_twists asks it from the first member R of each class towards a
new model's primitive key K.  As F * adj F = det(F) * I, conj(R, F) is a
multiple of K iff R(F x) = c * F * K(x) at x = (1, 0), (0, 1), (1, 1) for
one c: a pair of binary quadratics that vanishes at three points is zero.
That check comes first, and the conjugation kernel proves each F it passes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidArgumentError
from .exact_arithmetic import is_perfect_square, primitive_integers
from .moduli_invariants import sigma_invariants
from .morphism_space import LinearMap, MorphismModel, conjugate, conjugate_integer_rows
from .reduction_theory import SearchBudget

CONJUGATE = "conjugate"
NOT_CONJUGATE = "not_conjugate"
UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class ConjugacyVerdict:
    status: str
    witness: LinearMap | None = None
    separating_invariant: str | None = None


@dataclass(frozen=True, slots=True)
class TwistBucket:
    """One Qbar-class key with its discovered K-classes.

    classes holds proven-conjugate groups of models; every pair of distinct
    classes in a bucket is an unresolved (unknown) pair, since a definite
    conjugacy would have merged them and a definite refusal is impossible
    inside one sigma fiber.
    """

    qbar_class_key: tuple[Fraction, Fraction]
    classes: tuple[tuple[MorphismModel, ...], ...]


def quadratic_twist_model(b) -> MorphismModel:
    """The map z + b/z as the model [X^2 + b Y^2 : XY]."""
    b = Fraction(b)
    if b == 0:
        raise InvalidArgumentError("twist parameter must be nonzero")
    return MorphismModel.from_coeff_lists(1, 2, [[1, 0, b], [0, 1, 0]])


def twist_family_test(b, c) -> bool:
    """True iff z + b/z and z + c/z are Q-isomorphic, i.e. b/c is a square in Q."""
    b, c = Fraction(b), Fraction(c)
    if b == 0 or c == 0:
        raise InvalidArgumentError("twist parameters must be nonzero")
    ratio = b / c
    return ratio > 0 and is_perfect_square(ratio.numerator) and is_perfect_square(ratio.denominator)


@lru_cache(maxsize=None)
def _witness_candidates(bound: int) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
    """Primitive sign-canonical invertible integer 2x2 matrices, small first."""
    grid = itertools.product(range(-bound, bound + 1), repeat=4)
    prims = {primitive_integers(e) for e in grid if e[0] * e[3] - e[1] * e[2] != 0}
    out = sorted(prims, key=lambda t: (max(abs(v) for v in t), sum(1 for v in t if v < 0), t))
    return tuple(((t[0], t[1]), (t[2], t[3])) for t in out)


def _search_witness(phi: MorphismModel, psi: MorphismModel, budget: SearchBudget) -> LinearMap | None:
    """An integer matrix f with conjugate(psi, f) projectively equal to phi, if found."""
    phi_key = primitive_integers(phi.all_coeffs())
    psi_ints = primitive_integers(psi.all_coeffs())
    psi_rows = [psi_ints[:3], psi_ints[3:]]
    for fmat in _witness_candidates(budget.matrix_bound):
        conj = conjugate_integer_rows(psi_rows, 1, 2, fmat)
        if primitive_integers(conj[0] + conj[1]) == phi_key:
            return LinearMap.from_rows(fmat)
    return None


def conjugacy_test(phi: MorphismModel, psi: MorphismModel, budget: SearchBudget) -> ConjugacyVerdict:
    """Semidecide whether psi is a PGL_2(Q)-conjugate of phi (both quadratic on P^1)."""
    sigmas = []
    for m in (phi, psi):
        if (m.n, m.d) != (1, 2):
            raise InvalidArgumentError("conjugacy testing is implemented for n = 1, d = 2")
        # raises NotAMorphismError for a model whose resultant vanishes
        sigmas.append(sigma_invariants(m))
    if sigmas[0] != sigmas[1]:
        return ConjugacyVerdict(NOT_CONJUGATE, separating_invariant="sigma_invariants")
    if phi.projectively_equal(psi):
        return ConjugacyVerdict(CONJUGATE, witness=LinearMap.identity(1))
    witness = _search_witness(phi, psi, budget)
    if witness is not None:
        # soundness: the witness must re-verify; a failure is a kernel bug, so no DynresError
        if not conjugate(psi, witness).projectively_equal(phi):
            raise RuntimeError("witness failed re-verification")
        return ConjugacyVerdict(CONJUGATE, witness=witness)
    return ConjugacyVerdict(UNKNOWN)


def _three_point_check(fmat, rows, key: tuple[int, ...]) -> bool:
    """True iff conj(rows, fmat) is a multiple of key, read at three points (module docstring)."""
    (a, b), (c, d) = fmat
    (r0, r1, r2), (s0, s1, s2) = rows
    k0, k1, k2, k3, k4, k5 = key
    pairs = []  # (a coordinate of R(F x), the same coordinate of F * K(x))
    for x, y, u, v in ((a, c, k0, k3), (b, d, k2, k5), (a + b, c + d, k0 + k1 + k2, k3 + k4 + k5)):
        xx, xy, yy = x * x, x * y, y * y
        p, q, u, v = r0 * xx + r1 * xy + r2 * yy, s0 * xx + s1 * xy + s2 * yy, a * u + b * v, c * u + d * v
        if p * v != q * u:
            return False
        pairs += ((p, u), (q, v))
    p0, u0 = next(pair for pair in pairs if pair[1])
    return all(p * u0 == p0 * u for p, u in pairs)


class _TwistClass:
    """The members of one proven class, and its first member's primitive coefficient rows."""

    __slots__ = ("members", "rows")

    def __init__(self, model: MorphismModel, key: tuple[int, ...]):
        self.members = [model]
        self.rows = [key[:3], key[3:]]

    def reaches(self, key: tuple[int, ...], budget: SearchBudget) -> bool:
        """True iff key is the first member's, or a witness candidate sends the first member to it."""
        if [key[:3], key[3:]] == self.rows:
            return True
        for fmat in _witness_candidates(budget.matrix_bound):
            if _three_point_check(fmat, self.rows, key):
                conj = conjugate_integer_rows(self.rows, 1, 2, fmat)
                if primitive_integers(conj[0] + conj[1]) == key:
                    return True
        return False


def bucket_twists(models, budget: SearchBudget, sigmas=None) -> list[TwistBucket]:
    """Group by exact sigma key, then partition each group by proven conjugacy.

    ``sigmas``, when given, holds each model's sigma_invariants in the order
    of ``models`` (a census record stores it), so none is computed again.

    Models are taken in canonical order.  A new model joins every class of
    its group whose first member it is conjugate to by a witness candidate,
    and the classes it joins merge into the first of them.  Each class
    answers from its first member (module docstring): one check per
    candidate and one conjugation per candidate that passes, and none for a
    model equal to the first member up to scaling.
    """
    models = list(models)
    for model in models:
        if (model.n, model.d) != (1, 2):
            raise InvalidArgumentError("twist bucketing is implemented for n = 1, d = 2")
    sigmas = [sigma_invariants(model) for model in models] if sigmas is None else list(sigmas)
    if len(sigmas) != len(models):
        raise InvalidArgumentError(f"{len(sigmas)} sigma keys given for {len(models)} models")
    groups: dict[tuple[Fraction, Fraction], list[_TwistClass]] = {}
    for model, sigma in sorted(zip(models, sigmas), key=lambda pair: pair[0].canonical_key()):
        classes = groups.setdefault(sigma, [])
        key = primitive_integers(model.all_coeffs())
        hits = [i for i, cls in enumerate(classes) if cls.reaches(key, budget)]
        if not hits:
            classes.append(_TwistClass(model, key))
        else:
            # the new model links every hit class into one, which keeps the first one's first member
            merged = classes[hits[0]]
            merged.members.append(model)
            for i in reversed(hits[1:]):
                merged.members.extend(classes.pop(i).members)
    return [TwistBucket(sigma, tuple(tuple(cls.members) for cls in groups[sigma])) for sigma in sorted(groups)]
