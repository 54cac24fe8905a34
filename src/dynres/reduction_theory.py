"""Per-prime resultant exponents, conjugation search, minimal resultant ideals.

The resultant exponent of a model at p is

    e_p = ord_p(Res) - (n+1) d^n * (minimal coefficient valuation),

independent of the scaling of the model.  It is constant on GL_{n+1}(Z_p)
orbits, so for n = 1 it is a function on the vertices of the Bruhat-Tits tree
of PGL2(Q_p), convex along paths (Rumely, "The minimal resultant locus",
2015).  The search, for maps of P^1 only, walks that tree: from the current
model it moves to the first of the p + 1 neighbouring vertices with a smaller
exponent and stops where none is smaller, which is the minimum over PGL2(Q_p)
and hence over the Q-rational class (Bruin-Molnar 2012).  Only a minimum of 0
is certified exact; every positive minimum is reported as an upper bound.

The search scores a conjugate without recomputing its resultant: for an
integer matrix F,

    ord_p(Res(adj(F) * Phi(F X))) = d^n (n+d) ord_p(det F) + ord_p(Res(Phi)),

an exact covariance identity that is cross-checked against the direct
resultant route in the test suite.  It also forces every exponent in a class
to be congruent mod gcd(d^n (n+d), (n+1) d^n), which the search uses as a
stopping floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _matrix
from .errors import InvalidArgumentError
from .exact_arithmetic import FactoredIdeal, _ord_int, factor_integer, primes_up_to, rational_to_string, valuation
from .morphism_space import (
    MorphismModel,
    conjugate_integer_rows,
    min_coeff_valuation,
    normalize_primitive,
)
from .resultants import nonzero_resultant

GOOD_CERTIFIED = "good_certified"
BAD_UPPER_BOUND = "bad_upper_bound"


@dataclass(frozen=True, slots=True)
class SearchBudget:
    """Bounds for conjugator searches.

    a_max and translation_depth only switch the tree walk on (either > 0) or
    off; they bound nothing else and are kept because census summaries and
    the CLI's --budget carry them.  matrix_bound caps the entry height of
    conjugacy-witness matrices.
    """

    a_max: int
    translation_depth: int = 2
    matrix_bound: int = 3

    def __post_init__(self):
        if self.a_max < 0 or self.translation_depth < 0 or self.matrix_bound < 0:
            raise InvalidArgumentError("budget fields must be non-negative")


def default_budget(d: int) -> SearchBudget:
    return SearchBudget(a_max=d + 2, translation_depth=2, matrix_bound=3)


ZERO_BUDGET = SearchBudget(a_max=0, translation_depth=0, matrix_bound=0)


@dataclass(frozen=True, slots=True)
class LocalExponent:
    p: int
    e_model: int
    eps_estimate: int
    certified: bool

    def __post_init__(self):
        if not 0 <= self.eps_estimate <= self.e_model:
            raise InvalidArgumentError("need 0 <= eps_estimate <= e_model")
        if self.certified and self.eps_estimate != 0:
            raise InvalidArgumentError("only a zero minimum is certified")

    def to_json(self) -> dict:
        return {"p": str(self.p), "e": self.e_model, "eps": self.eps_estimate, "certified": self.certified}

    @classmethod
    def from_json(cls, data: dict) -> "LocalExponent":
        """Coerces each field, so re-emitting the entry shows any spelling ``to_json`` does not write."""
        return cls(int(data["p"]), int(data["e"]), int(data["eps"]), bool(data["certified"]))


@dataclass(frozen=True, slots=True)
class ReductionReport:
    """The primitive model, its resultant and one LocalExponent per prime dividing it.

    Everything else is read off ``local``: the minimal resultant ideal is the
    product of p^eps, and its norm is certified when every entry is.
    """

    morphism: MorphismModel
    res: Fraction
    local: tuple[LocalExponent, ...]

    @property
    def minimal_resultant(self) -> FactoredIdeal:
        return FactoredIdeal(tuple((e.p, e.eps_estimate) for e in self.local if e.eps_estimate))

    @property
    def norm(self) -> int:
        return self.minimal_resultant.norm()

    @property
    def fully_certified(self) -> bool:
        return all(entry.certified for entry in self.local)

    def bad_primes(self) -> tuple[int, ...]:
        return self.minimal_resultant.primes()

    def certified_norm_lower_bound(self) -> int:
        """Norm with every uncertified exponent dropped to 0."""
        n = 1
        for entry in self.local:
            if entry.certified:
                n *= entry.p**entry.eps_estimate
        return n

    def to_json(self) -> dict:
        """The ``reduce`` output."""
        return {
            "res": rational_to_string(self.res),
            "local": [e.to_json() for e in self.local],
            "minimal_resultant": self.minimal_resultant.to_json(),
            "norm": str(self.norm),
            "fully_certified": self.fully_certified,
        }


def local_exponent(model: MorphismModel, p: int) -> int:
    """ord_p(Res) - (n+1) d^n min_val; model-independent, >= 0 on primitive models."""
    return valuation(nonzero_resultant(model), p) - (model.n + 1) * model.d**model.n * min_coeff_valuation(model, p)


def exponent_step(n: int, d: int) -> int:
    """Conjugation changes e_p by multiples of this (see module docstring)."""
    return math.gcd(d**n * (n + d), (n + 1) * d**n)


def conjugated_exponent(prim: MorphismModel, p: int, v_res: int, fmat) -> int:
    """e_p of the conjugate by the integer matrix fmat, via the covariance identity."""
    n, d = prim.n, prim.d
    det = _matrix.det_bareiss_int([list(r) for r in fmat])
    if det == 0:
        raise InvalidArgumentError("conjugator must be invertible")
    coeff_rows = [[int(c) for c in f.coeffs] for f in prim.forms]
    conj = conjugate_integer_rows(coeff_rows, n, d, fmat)
    minval = min(_ord_int(c, p) for row in conj for c in row if c)
    return v_res + d**n * (n + d) * _ord_int(det, p) - (n + 1) * d**n * minval


def _descend(prim: MorphismModel, p: int, v_res: int, floor: int) -> int:
    """Walk the tree while some neighbour has a smaller e_p; return the last e_p.

    e_p is convex along paths of the tree (Rumely, "The minimal resultant
    locus", 2015), so the vertex where the walk stops minimizes e_p over
    PGL2(Q_p), as in Bruin-Molnar (2012).
    """
    # conjugators to the p + 1 neighbouring vertices: the index-p sublattices of Z_p^2
    neighbours = [((1, 0), (0, p))] + [((p, a), (0, 1)) for a in range(p)]
    best = v_res
    while best > floor:
        for fmat in neighbours:
            e = conjugated_exponent(prim, p, best, fmat)
            if e < best:
                rows = [[int(c) for c in f.coeffs] for f in prim.forms]
                conj = conjugate_integer_rows(rows, prim.n, prim.d, fmat)
                prim = normalize_primitive(MorphismModel.from_coeff_lists(prim.n, prim.d, conj))
                best = e
                break
        else:
            break
    return best


def _minimize(prim: MorphismModel, p: int, v_res: int, budget: SearchBudget) -> LocalExponent:
    e_model = v_res  # primitive model has minimal coefficient valuation 0
    if e_model == 0:
        return LocalExponent(p, 0, 0, True)
    best = e_model
    if budget.a_max > 0 or budget.translation_depth > 0:
        best = _descend(prim, p, v_res, e_model % exponent_step(prim.n, prim.d))
    return LocalExponent(p, e_model, best, best == 0)


def minimize_exponent(model: MorphismModel, p: int, budget: SearchBudget) -> LocalExponent:
    """Search the conjugacy class for a smaller exponent at p.

    Certified only when the minimum found is 0 (then it is exactly the class
    minimum, since exponents are never negative); a positive result is an
    upper bound for the class minimum.
    """
    if model.n != 1:
        raise InvalidArgumentError("reduction is implemented for maps of P^1 (n = 1)")
    prim = normalize_primitive(model)
    return _minimize(prim, p, valuation(nonzero_resultant(prim), p), budget)


def reduction_report(model: MorphismModel, budget: SearchBudget) -> ReductionReport:
    """Factor Res of the primitive model and minimize every positive exponent."""
    if model.n != 1:
        raise InvalidArgumentError("reduction is implemented for maps of P^1 (n = 1)")
    prim = normalize_primitive(model)
    res = nonzero_resultant(prim)
    factors = factor_integer(abs(int(res)))
    local = tuple(_minimize(prim, p, factors[p], budget) for p in sorted(factors))
    return ReductionReport(morphism=prim, res=res, local=local)


def has_good_reduction(model: MorphismModel, p: int, budget: SearchBudget) -> str:
    """good_certified when the class minimum at p is provably 0, else bad_upper_bound."""
    entry = minimize_exponent(model, p, budget)
    return GOOD_CERTIFIED if entry.certified else BAD_UPPER_BOUND


def s_b_primes(B) -> list[int]:
    """All primes of norm <= B; over Q the norm of (p) is p."""
    if Fraction(B) < 1:
        raise InvalidArgumentError("bound must be >= 1")
    return primes_up_to(B)
