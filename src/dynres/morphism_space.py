"""Degree-d endomorphisms of P^n as exact coefficient tuples.

A model is n+1 homogeneous degree-d forms over Q, and a form is the tuple of
its coefficients, dense over monomials(n, d): descending lexicographic order
of exponent tuples, so a binary quadratic reads (X^2, XY, Y^2).  All values
are immutable; operations are pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _matrix
from .errors import InvalidArgumentError, SchemaError
from .exact_arithmetic import primitive_integers, rational_from_string, rational_to_string, valuation

MultiIndex = tuple[int, ...]


@lru_cache(maxsize=None)
def monomials(n: int, d: int) -> tuple[MultiIndex, ...]:
    """All exponent tuples (i_0..i_n) with sum d, in descending lex order."""
    if n < 0 or d < 0:
        raise InvalidArgumentError("n and d must be non-negative")

    def gen(vars_left: int, degree: int):
        if vars_left == 1:
            yield (degree,)
            return
        for first in range(degree, -1, -1):
            for rest in gen(vars_left - 1, degree - first):
                yield (first,) + rest

    return tuple(gen(n + 1, d))


@lru_cache(maxsize=None)
def monomial_index(n: int, d: int) -> dict[MultiIndex, int]:
    return {m: i for i, m in enumerate(monomials(n, d))}


_MULTI_INDEX = re.compile(r"[0-9]+(,[0-9]+)*")  # what to_json writes: ASCII digits, no sign or space

_SHARED_LIMIT = 1 << 10
_SHARED: dict[int, Fraction] = {}


def _shared_fraction(c) -> Fraction:
    """Fraction(c); an integer value of size at most _SHARED_LIMIT gives one shared object."""
    f = _SHARED.get(c)
    if f is None:
        f = Fraction(c)
        if f.denominator == 1 and abs(f.numerator) <= _SHARED_LIMIT:
            f = _SHARED.setdefault(f.numerator, f)
    return f


def _json_terms(data) -> tuple[int, int, list[dict]]:
    """(n, d, one {exponents: coefficient} dict per form): every schema check that needs no expansion."""
    if not isinstance(data, dict):
        raise SchemaError("morphism payload must be an object")
    n, d = data.get("n"), data.get("d")
    # a JSON integer only: int() would truncate 1.9 and accept true
    if type(n) is not int or type(d) is not int or "forms" not in data:
        raise SchemaError("morphism payload needs integer 'n', 'd' and a 'forms' array")
    raw_forms = data["forms"]
    if not isinstance(raw_forms, list) or len(raw_forms) != n + 1:
        raise SchemaError(f"'forms' must list exactly {n + 1} forms")
    parsed = []
    for raw in raw_forms:
        if not isinstance(raw, list):
            raise SchemaError("each form must be an array of [multiindex, coefficient] pairs")
        terms = {}
        for entry in raw:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise SchemaError("form entries must be [\"i0,...,in\", \"a/b\"] pairs")
            key_s, val_s = entry
            # JSON strings only, as to_json writes them; a JSON number is neither spelling
            if not isinstance(key_s, str) or _MULTI_INDEX.fullmatch(key_s) is None:
                raise SchemaError(f"bad multi-index {key_s!r}")
            if not isinstance(val_s, str):
                raise SchemaError(f"coefficient {val_s!r} is not a string 'a' or 'a/b'")
            try:
                exps = tuple(map(int, key_s.split(",")))
            except ValueError as exc:  # more digits than int() converts
                raise SchemaError(f"bad multi-index {key_s!r}: too many digits") from exc
            if len(exps) != n + 1 or sum(exps) != d:
                raise SchemaError(f"multi-index {key_s!r} does not have weight {d} in {n + 1} variables")
            if exps in terms:
                raise SchemaError(f"duplicate multi-index {key_s!r}")
            try:
                terms[exps] = rational_from_string(val_s)
            except InvalidArgumentError as exc:
                raise SchemaError(str(exc)) from exc
        parsed.append(terms)
    return n, d, parsed


@dataclass(frozen=True, slots=True)
class MorphismModel:
    """A point of P^N: n+1 degree-d forms, not all zero; forms[i] is phi_i's coefficient tuple."""

    n: int
    d: int
    forms: tuple[tuple, ...]

    def __post_init__(self):
        if self.d < 1:
            raise InvalidArgumentError("degree must be >= 1")
        if len(self.forms) != self.n + 1:
            raise InvalidArgumentError(f"need {self.n + 1} forms, got {len(self.forms)}")
        for f in self.forms:
            if len(f) != len(monomials(self.n, self.d)):
                raise InvalidArgumentError(
                    f"form of degree {self.d} in {self.n + 1} variables needs "
                    f"{len(monomials(self.n, self.d))} coefficients, got {len(f)}"
                )
        if not any(map(any, self.forms)):  # no throwaway all_coeffs() tuple per model
            raise InvalidArgumentError("zero model does not define a point of P^N")

    @classmethod
    def from_coeff_lists(cls, n: int, d: int, lists) -> "MorphismModel":
        """The one constructor the package uses: small integer coefficients become shared Fractions."""
        return cls(n, d, tuple(tuple(_shared_fraction(c) for c in row) for row in lists))

    def all_coeffs(self) -> tuple:
        # from a list, so the tuple is allocated at its size: tuple() of an iterator allocates 10
        # slots and shrinks them, and the shrunk tuples pile up in CPython's free list for their length
        return tuple([c for f in self.forms for c in f])

    def scale(self, lam) -> "MorphismModel":
        lam = Fraction(lam)
        if lam == 0:
            raise InvalidArgumentError("scaling by zero")
        return MorphismModel.from_coeff_lists(self.n, self.d, [[c * lam for c in f] for f in self.forms])

    def canonical_key(self) -> tuple:
        return (self.n, self.d) + primitive_integers(self.all_coeffs())

    def projectively_equal(self, other: "MorphismModel") -> bool:
        return self.canonical_key() == other.canonical_key()

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "forms": [
                [[",".join(map(str, exps)), rational_to_string(c)] for exps, c in zip(monomials(self.n, self.d), f)]
                for f in self.forms
            ],
        }

    @classmethod
    def from_json(cls, data) -> "MorphismModel":
        return cls.from_terms(*_json_terms(data))

    @classmethod
    def from_terms(cls, n: int, d: int, terms) -> "MorphismModel":
        """The model of _json_terms' (n, d, terms): the one step that expands the forms."""
        lists = [[t.get(m, 0) for m in monomials(n, d)] for t in terms]
        try:
            return cls.from_coeff_lists(n, d, lists)
        except InvalidArgumentError as exc:
            raise SchemaError(str(exc)) from exc


@dataclass(frozen=True, slots=True)
class LinearMap:
    """An element of PGL_{n+1}(Q), represented by an invertible matrix."""

    n: int
    matrix: tuple[tuple, ...]

    def __post_init__(self):
        if len(self.matrix) != self.n + 1 or any(len(row) != self.n + 1 for row in self.matrix):
            raise InvalidArgumentError("matrix shape must be (n+1) x (n+1)")
        if _matrix.det_exact([list(r) for r in self.matrix]) == 0:
            raise InvalidArgumentError("linear map must be invertible")

    @classmethod
    def from_rows(cls, rows) -> "LinearMap":
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        return cls(len(rows) - 1, rows)

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls.from_rows(_matrix.identity(n + 1))

    def to_json(self) -> list[list[str]]:
        return [[rational_to_string(x) for x in row] for row in self.matrix]


def normalize_primitive(model: MorphismModel) -> MorphismModel:
    """Canonical integral representative: coefficient gcd 1, first nonzero > 0; a primitive model is returned as is."""
    coeffs = model.all_coeffs()
    ints = primitive_integers(coeffs)
    if ints == coeffs:
        return model
    k = len(model.forms[0])
    return MorphismModel.from_coeff_lists(model.n, model.d, [ints[i : i + k] for i in range(0, len(ints), k)])


def min_coeff_valuation(model: MorphismModel, p: int) -> int:
    """Minimum of ord_p over all coefficients of all forms (zeros skipped)."""
    best = None
    for c in model.all_coeffs():
        if c == 0:
            continue
        v = valuation(c, p)
        if best is None or v < best:
            best = v
    return best


# --- substitution machinery ---------------------------------------------------


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _linear_form_dict(row, nvars: int) -> dict:
    return {tuple(1 if j == k else 0 for j in range(nvars)): row[k] for k in range(nvars) if row[k] != 0}


def substitute_linear(coeffs, n: int, d: int, rows) -> list:
    """The coefficients of F(M x), F of degree d in n+1 variables, for a matrix M given as rows; exact expansion."""
    nvars = n + 1
    linear = [_linear_form_dict(rows[j], nvars) for j in range(nvars)]
    power_cache: list[dict[int, dict]] = [{0: {tuple([0] * nvars): 1}} for _ in range(nvars)]

    def power(j: int, e: int) -> dict:
        cache = power_cache[j]
        if e not in cache:
            cache[e] = _poly_mul(power(j, e - 1), linear[j])
        return cache[e]

    acc: dict = {}
    for exps, c in zip(monomials(n, d), coeffs):
        if c == 0:
            continue
        term = {tuple([0] * nvars): c}
        for j, e in enumerate(exps):
            if e:
                term = _poly_mul(term, power(j, e))
        for key, val in term.items():
            acc[key] = acc.get(key, 0) + val
    idx = monomial_index(n, d)
    out = [0] * len(idx)
    for key, val in acc.items():
        out[idx[key]] = val
    # stays in int when both form and matrix are integral
    return out


def conjugate_integer_rows(coeff_rows, n: int, d: int, fmat) -> list[list]:
    """The coefficient rows of adj(F) * Phi(F X) for an integer matrix F.

    The one conjugation kernel, behind conjugate() too.  Phi is given by raw
    coefficient rows of ints or Fractions; integer rows stay in Z, which keeps
    Fraction overhead out of search loops.  The result is the conjugate
    F^(-1) o Phi o F up to the scalar det(F), the same point of P^N.
    """
    subbed = [substitute_linear(rc, n, d, fmat) for rc in coeff_rows]
    adj = _matrix.mat_adjugate_int([list(r) for r in fmat])
    out = []
    for i in range(n + 1):
        acc = [0] * len(subbed[0])
        for j in range(n + 1):
            a = adj[i][j]
            if a == 0:
                continue
            for t, c in enumerate(subbed[j]):
                if c:
                    acc[t] += a * c
        out.append(acc)
    return out


def conjugate(model: MorphismModel, f: LinearMap) -> MorphismModel:
    """The conjugate f^(-1) o model o f as the polynomial map adj(F) * model(F X).

    F is the integer matrix lcm * f, lcm the common denominator of f's
    entries: a scalar multiple is the same element of PGL.  The work is done
    by conjugate_integer_rows, so for an integer f the coefficients are
    exactly those of adj(f) * model(f X).
    """
    if f.n != model.n:
        raise InvalidArgumentError("dimension mismatch between morphism and linear map")
    lcm = math.lcm(*[x.denominator for row in f.matrix for x in row])
    fmat = [[x.numerator * (lcm // x.denominator) for x in row] for row in f.matrix]
    rows = conjugate_integer_rows(model.forms, model.n, model.d, fmat)
    return MorphismModel.from_coeff_lists(model.n, model.d, rows)
