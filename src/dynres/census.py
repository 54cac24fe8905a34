"""Bounded-height census of quadratic maps of P^1: enumerate, reduce, bucket, and summarize.

The census runs for (n, d) = (1, 2) only: there the moduli height is a class
invariant, read from the multiplier invariants (sigma1, sigma2) that identify
M_2 with A^2.  For any other shape it would be a model-dependent proxy, and a
census would count models, not classes.

Streams every primitive canonical model with coefficients in [-H, H] and
nonzero resultant through the reduction and moduli pipelines, persisting one
JSON line per model (resumable byte-for-byte), then counts conjugacy classes
of the bounded set over a grid of bounds B.  An empty census has zero classes.

Membership convention: a record is in Gamma_B when its minimal-resultant norm
upper bound is <= B and its multiplicative moduli height (max |coordinate| of
the coprime integer sigma point) is <= B, i.e. log-height <= log B.  Class
counts are intervals [#sigma keys, #proven-distinct classes]; unknown pairs
never merge without a witness.
"""

from __future__ import annotations

import io
import itertools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .conjugacy_twists import bucket_twists
from .errors import (
    CensusAssertionError,
    CensusConfigMismatchError,
    DynresError,
    InvalidArgumentError,
    MalformedJsonError,
    SchemaError,
)
from .exact_arithmetic import factor_integer, primitive_integers, rational_to_string
from .moduli_invariants import ModuliPoint, _primitive_moduli_height
from .morphism_space import MorphismModel, _json_terms, monomials, normalize_primitive
from .reduction_theory import LocalExponent, ReductionReport, SearchBudget, reduction_report, s_b_primes
from .resultants import macaulay_resultant, nonzero_resultant

CONVENTIONS = (
    "Gamma membership: minimal-resultant norm upper bound <= B and "
    "multiplicative moduli height <= B (equivalently log-height <= log B); "
    "class counts are [distinct sigma keys, proven-distinct classes]."
)


@dataclass(frozen=True, slots=True)
class CensusConfig:
    n: int
    d: int
    coeff_bound: int
    B: int
    budget: SearchBudget
    output_prefix: str
    threads: int = 1

    def __post_init__(self):
        if (self.n, self.d) != (1, 2):
            raise InvalidArgumentError(f"the census runs for n = 1, d = 2 only, not n = {self.n}, d = {self.d}")
        if self.coeff_bound < 0:
            raise InvalidArgumentError("coefficient bound must be >= 0")
        if self.B < 1:
            raise InvalidArgumentError("need B >= 1")
        if self.threads < 1:
            raise InvalidArgumentError("need threads >= 1")

    def settings(self) -> dict:
        """Everything that decides the bytes of the records stream and its summary."""
        return {
            "n": self.n,
            "d": self.d,
            "coeff_bound": self.coeff_bound,
            "B": self.B,
            "budget": {
                "a_max": self.budget.a_max,
                "translation_depth": self.budget.translation_depth,
                "matrix_bound": self.budget.matrix_bound,
            },
        }

    @property
    def config_path(self) -> Path:
        return Path(f"{self.output_prefix}.config.json")

    @property
    def records_path(self) -> Path:
        return Path(f"{self.output_prefix}.records.jsonl")

    @property
    def summary_path(self) -> Path:
        return Path(f"{self.output_prefix}.summary.json")

    @property
    def report_path(self) -> Path:
        return Path(f"{self.output_prefix}.report.txt")


@dataclass(frozen=True, slots=True)
class CensusRecord:
    """One census line: a model's reduction report, its moduli point and its Gamma_B membership.

    Each fact is stored once.  The line also writes what follows from them
    (the norm and its certification, the moduli point and heights), and
    ``from_json`` reads back only a line that ``to_json`` would write.
    """

    key: str
    report: ReductionReport
    moduli: ModuliPoint
    in_gamma: bool

    @property
    def model(self) -> MorphismModel:
        return self.report.morphism

    @property
    def sigma(self) -> tuple[Fraction, Fraction]:
        return self.moduli.sigma

    @property
    def norm(self) -> int:
        return self.report.norm

    @property
    def mult_height(self) -> int:
        return self.moduli.mult_height

    def bad_primes(self) -> tuple[int, ...]:
        return self.report.bad_primes()

    def to_json(self) -> dict:
        return {
            **self.report.to_json(),
            "key": self.key,
            "model": self.model.to_json(),
            "norm_is_upper_bound": not self.report.fully_certified,
            "norm_lower_bound": str(self.report.certified_norm_lower_bound()),
            "sigma": [rational_to_string(s) for s in self.sigma],
            "moduli_point": [str(x) for x in self.moduli.point],
            "mult_height": str(self.mult_height),
            "moduli_height": float(f"{self.moduli.height:.12g}"),
            "in_gamma": self.in_gamma,
            "class_id": None,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CensusRecord":
        """The record rebuilt from the line's model, local and in_gamma.

        res and sigma are recomputed from the model, and local must be the
        prime factorization of res.  Raises SchemaError unless the census
        writes exactly this line for them: a res or sigma that is not the
        model's, a derived field that disagrees, a key it does not write or a
        value in another spelling or JSON type is refused.  A model of any
        shape but (1, 2) is refused on its sparse terms, before any form is
        expanded.
        """
        n, d, terms = _json_terms(data["model"])
        if (n, d) != (1, 2):
            raise SchemaError(f"model: a census record holds n = 1, d = 2, not n = {n}, d = {d}")
        model = normalize_primitive(MorphismModel.from_terms(n, d, terms))
        res = nonzero_resultant(model)
        local = tuple(LocalExponent.from_json(e) for e in data["local"])
        if [(e.p, e.e_model) for e in local] != sorted(factor_integer(res.numerator).items()):
            raise SchemaError(f"local: not the prime factorization of res = {rational_to_string(res)}")
        moduli = _primitive_moduli_height(model, res)
        record = cls(record_key(model), ReductionReport(model, res, local), moduli, bool(data["in_gamma"]))
        written = record.to_json()
        if _canonical(written) != _canonical(data):
            keys = sorted(written.keys() | data.keys())
            differ = [k for k in keys if _canonical(written.get(k)) != _canonical(data.get(k))]
            raise SchemaError(f"{', '.join(differ)}: not what the census writes for this model and local")
        return record


def record_key(model: MorphismModel) -> str:
    coeffs = ",".join(str(int(c)) for c in model.all_coeffs())
    return f"{model.n}|{model.d}|{coeffs}"


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _record_line(record: CensusRecord) -> str:
    return _canonical(record.to_json()) + "\n"


def enumerate_models(n: int, d: int, coeff_bound: int):
    """Every primitive canonical model with entries in [-H, H] and Res != 0, once.

    Deterministic order: first appearance in the ascending lexicographic scan
    of raw coefficient tuples.
    """
    if coeff_bound < 0:
        raise InvalidArgumentError("coefficient bound must be >= 0")
    per_form = len(monomials(n, d))
    total = per_form * (n + 1)
    seen = set()
    for raw in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=total):
        if not any(raw):
            continue
        key = primitive_integers(raw)
        if key in seen:
            continue
        seen.add(key)
        model = MorphismModel.from_coeff_lists(
            n, d, [key[i * per_form : (i + 1) * per_form] for i in range(n + 1)]
        )
        if macaulay_resultant(model).value != 0:
            yield model


def _in_gamma(norm: int, mult_height: int, B: int) -> bool:
    """Gamma_B membership: the norm upper bound and the multiplicative moduli height are both <= B."""
    return norm <= B and mult_height <= B


def compute_record(config: CensusConfig, model: MorphismModel, key: str) -> CensusRecord:
    report = reduction_report(model, config.budget)
    moduli = _primitive_moduli_height(report.morphism, report.res)
    record = CensusRecord(key, report, moduli, _in_gamma(report.norm, moduli.mult_height, config.B))
    # S_B is the primes up to B, and every bad prime is a prime
    if record.in_gamma and any(p > config.B for p in record.bad_primes()):
        raise CensusAssertionError(f"record {key} has a bad prime outside S_B", record)
    return record


def _recover_prefix(path: Path) -> list[CensusRecord]:
    """The records of the complete lines; then truncates a last line that has no newline.

    A kill mid-write can leave only that.  Every complete line, a blank one
    included, is read as ``load_records`` reads it and raises the same error,
    and a file with a bad complete line is left as it is.
    """
    if not path.exists():
        return []
    raw = path.read_bytes()
    complete = raw.rfind(b"\n") + 1
    records = _read_lines(path, io.BytesIO(raw[:complete]))
    if complete != len(raw):
        with open(path, "r+b") as fh:
            fh.truncate(complete)
    return records


def _bind_prefix(config: CensusConfig) -> None:
    """Record the settings next to a new records file; on resume, insist they match.

    A records file that is not empty must come with a config file holding the
    same settings, so a resume never appends records computed under others.
    """
    settings = config.settings()
    stored = None
    if config.config_path.exists():
        try:
            stored = json.loads(config.config_path.read_text(encoding="utf-8"))
        except ValueError:
            stored = "unreadable"
    if stored == settings:
        return
    records = config.records_path
    if records.exists() and records.stat().st_size > 0:
        found = "no config file" if stored is None else f"settings {stored}"
        raise CensusConfigMismatchError(
            f"{records} was written with {found}; refusing to resume it with settings {settings}"
        )
    config.config_path.write_text(json.dumps(settings, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def stream_records(config: CensusConfig, limit: int | None = None) -> list[CensusRecord]:
    """Compute and append records, skipping those already on disk.

    Enumeration order is deterministic, so an existing file must be a prefix
    of the full stream written under the same settings (checked against
    ``PREFIX.config.json``); a last line without its newline (from a kill
    mid-write) is truncated, any other line that ``load_records`` refuses is
    refused with its error, and every stored key is checked against the
    enumeration and every stored ``in_gamma`` against ``config.B`` before any
    new record is computed.  The rest is appended in batches of
    8 * threads records, each flushed before the next starts, so a
    kill loses at most the batch in flight.  Returns the records now
    persisted: the stored prefix, read once, then the new records as computed.
    ``limit`` bounds how many new records are written (test hook for
    interruption).
    """
    path = config.records_path
    path.parent.mkdir(parents=True, exist_ok=True)
    _bind_prefix(config)
    records = _recover_prefix(path)
    models = enumerate_models(config.n, config.d, config.coeff_bound)
    checked = 0
    for stored, model in zip(records, models):
        key = record_key(model)
        if stored.key != key:
            raise CensusAssertionError(
                f"records file mismatches the enumeration at index {checked}: {stored.key!r} != {key!r}"
            )
        if stored.in_gamma != _in_gamma(stored.norm, stored.mult_height, config.B):
            raise CensusAssertionError(
                f"{path} line {checked + 1} has in_gamma {json.dumps(stored.in_gamma)}, "
                f"but its norm {stored.norm} and mult_height {stored.mult_height} at B = {config.B} say otherwise",
                stored,
            )
        checked += 1
    if checked < len(records):
        raise CensusAssertionError(
            f"records file holds {len(records)} records but the enumeration yields {checked}"
        )
    rest = itertools.islice(models, limit)
    with open(path, "a", encoding="utf-8") as sink, ThreadPoolExecutor(config.threads) as pool:
        run = pool.map if config.threads > 1 else map
        while batch := list(itertools.islice(rest, 8 * config.threads)):
            for record in run(lambda model: compute_record(config, model, record_key(model)), batch):
                sink.write(_record_line(record))
                records.append(record)
            sink.flush()
    return records


def load_records(path) -> list[CensusRecord]:
    """Every record of a records file; a malformed file raises a SchemaError or MalformedJsonError."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    with fh:
        return _read_lines(path, fh)


def _read_lines(path, lines) -> list[CensusRecord]:
    """The record of each line, or the error naming the first line that is not one."""
    records = []
    for number, line in enumerate(lines, 1):
        try:
            data = json.loads(line)
        except ValueError as exc:
            raise MalformedJsonError(f"{path} line {number} is not valid JSON: {exc}") from exc
        try:
            records.append(CensusRecord.from_json(data))
        except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError, DynresError) as exc:
            raise SchemaError(f"{path} line {number} is not a census record: {exc!r}") from exc
    return records


def b_grid(B: int) -> list[int]:
    grid = {B}
    b = 1
    while b <= B:
        grid.add(b)
        b *= 2
    return sorted(grid)


@dataclass(frozen=True, slots=True)
class CensusSummary:
    meta: dict
    per_b: tuple[dict, ...]
    classes: tuple[dict, ...]
    monic: dict
    total_models: int

    def to_json(self) -> dict:
        return {
            "conventions": CONVENTIONS,
            "meta": self.meta,
            "total_models": self.total_models,
            "per_b": list(self.per_b),
            "classes": list(self.classes),
            "monic": self.monic,
        }


def summarize_records(records: list[CensusRecord], B: int, budget: SearchBudget, meta: dict) -> CensusSummary:
    """Class-count intervals over the B grid, plus the per-record hard checks."""
    members = [r for r in records if _in_gamma(r.norm, r.mult_height, B)]
    buckets = bucket_twists([r.model for r in members], budget, [r.sigma for r in members])
    classes = []
    key_to_class: dict[str, str] = {}
    for bucket in buckets:
        for cls in bucket.classes:
            class_id = f"C{len(classes):04d}"
            member_keys = sorted(record_key(m) for m in cls)
            classes.append(
                {
                    "class_id": class_id,
                    "sigma": [rational_to_string(s) for s in bucket.qbar_class_key],
                    "representative": member_keys[0],
                    "members": member_keys,
                }
            )
            for k in member_keys:
                key_to_class[k] = class_id

    per_b = []
    for b in b_grid(B):
        allowed = set(s_b_primes(b))
        members_b = [r for r in records if _in_gamma(r.norm, r.mult_height, b)]
        for r in members_b:
            if not set(r.bad_primes()).issubset(allowed):
                raise CensusAssertionError(f"record {r.key} has a bad prime outside S_{b}", r)
        entry = {
            "B": b,
            "gamma_definite": len(members_b),
            "gamma_possible_extra": sum(
                r.norm > b >= r.report.certified_norm_lower_bound() and r.mult_height <= b for r in records
            ),
            "sb_primes": s_b_primes(b),
            "sb_check": "pass",
            "class_count_lower": len({r.sigma for r in members_b}),
            "class_count_upper": len({key_to_class[r.key] for r in members_b}),
            "northcott_sigma_keys": len({r.sigma for r in records if r.mult_height <= b}),
        }
        counts = ("gamma_definite", "class_count_lower", "class_count_upper")
        if per_b and any(entry[k] < per_b[-1][k] for k in counts):
            raise CensusAssertionError(f"counts decreased from B={per_b[-1]['B']} to B={b}")
        per_b.append(entry)

    # the monic polynomial maps z^2 + bz + c: [X^2 + bXY + cY^2 : Y^2]
    monic = [r for r in records if r.model.forms[1] == (0, 0, 1) and r.model.forms[0][0] == 1]
    for r in monic:
        if r.norm != 1 or not r.report.fully_certified:
            raise CensusAssertionError(f"monic record {r.key} lacks unit minimal resultant", r)

    return CensusSummary(
        meta=meta,
        per_b=tuple(per_b),
        classes=tuple(classes),
        monic={"count": len(monic), "all_unit_ideal": True},
        total_models=len(records),
    )


def render_report(summary: CensusSummary) -> str:
    lines = []
    meta = summary.meta
    bound = meta.get("coeff_bound")
    lines.append(
        "census n=%s d=%s H=%s B=%s (%s models)"
        % (meta.get("n"), meta.get("d"), "?" if bound is None else bound, meta.get("B"), summary.total_models)
    )
    lines.append(summary.meta.get("conventions", CONVENTIONS))
    header = f"{'B':>6} {'gamma':>7} {'possible':>9} {'classes':>12} {'northcott':>11} {'S_B':>24}"
    lines.append(header)
    lines.append("-" * len(header))
    for entry in summary.per_b:
        classes = f"[{entry['class_count_lower']},{entry['class_count_upper']}]"
        sb = ",".join(str(p) for p in entry["sb_primes"]) or "-"
        lines.append(
            f"{entry['B']:>6} {entry['gamma_definite']:>7} {entry['gamma_possible_extra']:>9} "
            f"{classes:>12} {entry['northcott_sigma_keys']:>11} {sb:>24}"
        )
    lines.append(f"monic polynomial maps: {summary.monic['count']} (all with unit minimal resultant ideal)")
    return "\n".join(lines) + "\n"


def run_census(config: CensusConfig) -> CensusSummary:
    """Stream all records, then summarize the ones streamed, asserting the census contracts."""
    records = stream_records(config)
    meta = {**config.settings(), "conventions": CONVENTIONS}
    summary = summarize_records(records, config.B, config.budget, meta)
    config.summary_path.write_text(
        json.dumps(summary.to_json(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    config.report_path.write_text(render_report(summary), encoding="utf-8")
    return summary
