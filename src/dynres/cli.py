"""Batch command-line front end with bit-exact JSON input and output.

Exit codes: 0 success, 2 validation problems (with a machine-readable error
object on stdout), 1 internal failure.  All numeric payload fields are exact
strings except moduli_height, a float rounded to 12 significant digits and
always accompanied by its exact projective point.

``main(argv)`` returns the exit code and writes to stdout, so it can be
called repeatedly in-process.  The argument parser is built by the first
call, not at import, and reused by every later one.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .census import CensusConfig, load_records, render_report, run_census, summarize_records
from .conjugacy_twists import conjugacy_test
from .errors import DynresError, InvalidArgumentError, MalformedJsonError, SchemaError
from .exact_arithmetic import rational_to_string
from .moduli_invariants import moduli_height
from .morphism_space import MorphismModel, _json_terms
from .reduction_theory import SearchBudget, default_budget, reduction_report
from .resultants import macaulay_resultant

SCHEMAS = {
    "morphism": {
        "n": "int, dimension of the target projective space",
        "d": "int >= 1, common degree of the forms",
        "forms": 'n+1 arrays of ["i0,...,in", "a/b" or "a"] pairs, ASCII digits, multi-indices of weight d in lexicographic order',
    },
    "resultant": {"res": "string rational", "method": "sylvester | macaulay_quotient | perturbation", "vanishes": "bool"},
    "reduce": {
        "requires": "a morphism with n = 1, any d",
        "res": "string rational",
        "local": [{"p": "string prime", "e": "int", "eps": "int", "certified": "bool"}],
        "minimal_resultant": {"<p>": "int exponent"},
        "norm": "string integer",
        "fully_certified": "bool",
    },
    "invariants": {
        "requires": "a morphism with n = 1, d = 2",
        "sigma1": "string rational",
        "sigma2": "string rational",
        "moduli_point": "three coprime integer strings",
        "moduli_height": "float, 12 significant digits",
        "kind": "sigma_invariants",
    },
    "twist-test": {"status": "conjugate | not_conjugate | unknown", "witness": "matrix of string rationals or null"},
    "census": "flags --n 1 --d 2 (no other shape) --H --B [--budget AMAX[,DEPTH[,MBOUND]]] [--threads N] --out PREFIX;"
    " writes PREFIX.config.json, PREFIX.records.jsonl, PREFIX.summary.json, PREFIX.report.txt",
    "error": {"error": "code string", "message": "human-readable detail"},
}


class _CliArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliArgumentError(message)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _read_payload(path: str):
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            # bytes: json.loads decodes them, so a file that is not UTF-8 is malformed JSON
            with open(path, "rb") as handle:
                raw = handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw)
    except ValueError as exc:
        raise MalformedJsonError(f"input is not valid JSON: {exc}") from exc


def _read_morphism(path: str, shape=(None, None), refusal: str = "") -> MorphismModel:
    """The payload's model, parsed once.

    An (n, d) outside shape (None: any) is refused on the sparse terms, before
    any form is expanded; the model is built from those same terms.
    """
    n, d, terms = _json_terms(_read_payload(path))
    if shape[0] not in (None, n) or shape[1] not in (None, d):
        raise InvalidArgumentError(refusal)
    return MorphismModel.from_terms(n, d, terms)


def _parse_budget(text: str | None, d: int) -> SearchBudget:
    if text is None:
        return default_budget(d)
    parts = text.split(",")
    # ASCII integers only; a negative one reaches SearchBudget's refusal
    if not 1 <= len(parts) <= 3 or not all(re.fullmatch(r"-?[0-9]+", p) for p in parts):
        raise SchemaError(f"bad --budget value {text!r}; expected AMAX[,DEPTH[,MBOUND]]")
    try:
        nums = [int(p) for p in parts]
    except ValueError as exc:  # more digits than int() converts
        raise SchemaError(f"bad --budget value {text!r}: too many digits") from exc
    defaults = default_budget(d)
    depth = nums[1] if len(nums) > 1 else defaults.translation_depth
    mbound = nums[2] if len(nums) > 2 else defaults.matrix_bound
    return SearchBudget(a_max=nums[0], translation_depth=depth, matrix_bound=mbound)


def _cmd_resultant(args) -> int:
    model = _read_morphism(args.morphism)
    result = macaulay_resultant(model, args.backend)
    _emit({"res": rational_to_string(result.value), "method": result.method, "vanishes": result.vanishes()})
    return 0


def _cmd_reduce(args) -> int:
    model = _read_morphism(args.morphism, (1, None), "reduction is implemented for maps of P^1 (n = 1)")
    _emit(reduction_report(model, _parse_budget(args.budget, model.d)).to_json())
    return 0


def _cmd_invariants(args) -> int:
    model = _read_morphism(args.morphism, (1, 2), "sigma invariants are implemented for n = 1, d = 2")
    mp = moduli_height(model)
    _emit(
        {
            "sigma1": rational_to_string(mp.sigma[0]),
            "sigma2": rational_to_string(mp.sigma[1]),
            "moduli_point": [str(x) for x in mp.point],
            "moduli_height": float(f"{mp.height:.12g}"),
            "kind": "sigma_invariants",
        }
    )
    return 0


def _cmd_twist_test(args) -> int:
    if args.first == args.second == "-":
        raise InvalidArgumentError("stdin can be read only once: give at most one operand as -")
    refusal = "conjugacy testing is implemented for n = 1, d = 2"
    phi, psi = (_read_morphism(path, (1, 2), refusal) for path in (args.first, args.second))
    budget = _parse_budget(args.budget, phi.d)
    verdict = conjugacy_test(phi, psi, budget)
    _emit(
        {
            "status": verdict.status,
            "witness": None if verdict.witness is None else verdict.witness.to_json(),
        }
    )
    return 0


def _cmd_census(args) -> int:
    config = CensusConfig(
        n=args.n,
        d=args.d,
        coeff_bound=args.H,
        B=args.B,
        budget=_parse_budget(args.budget, args.d),
        output_prefix=args.out,
        threads=args.threads,
    )
    summary = run_census(config)
    _emit(summary.to_json())
    return 0


def _cmd_report(args) -> int:
    records = load_records(args.records)
    meta = {"n": 1, "d": 2, "coeff_bound": None, "B": args.B, "records": args.records}
    summary = summarize_records(records, args.B, _parse_budget(args.budget, 2), meta)
    if args.format == "json":
        _emit(summary.to_json())
    else:
        sys.stdout.write(render_report(summary))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="dynres", description="exact arithmetic of endomorphisms of P^n over Q")
    parser.add_argument("--schema", action="store_true", help="print the JSON schemas and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("resultant", help="Macaulay resultant of a morphism JSON")
    p.add_argument("morphism", help="path to morphism JSON, or - for stdin")
    p.add_argument("--backend", choices=["bareiss", "modular_crt"], default="bareiss")
    p.set_defaults(func=_cmd_resultant)

    p = sub.add_parser("reduce", help="local exponents, minimal resultant ideal, norm")
    p.add_argument("morphism")
    p.add_argument("--budget", default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("invariants", help="sigma invariants and moduli height")
    p.add_argument("morphism")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("twist-test", help="semidecide PGL_2(Q)-conjugacy of two quadratic maps")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--budget", default=None)
    p.set_defaults(func=_cmd_twist_test)

    p = sub.add_parser("census", help="bounded-coefficient census with class counting")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--budget", default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("report", help="recompute the summary from an existing records file")
    p.add_argument("--records", required=True)
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--budget", default=None)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_report)

    return parser


_PARSER: _Parser | None = None  # built by the first main call


def main(argv=None) -> int:
    global _PARSER
    argv = list(sys.argv[1:] if argv is None else argv)
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except _CliArgumentError as exc:
        _emit({"error": "usage-error", "message": str(exc)})
        return 2
    if args.schema:
        _emit(SCHEMAS)
        return 0
    if getattr(args, "func", None) is None:
        _emit({"error": "unknown-subcommand", "message": "expected one of: resultant, reduce, invariants, twist-test, census, report"})
        return 2
    try:
        return args.func(args)
    except DynresError as exc:
        _emit({"error": exc.code, "message": str(exc)})
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and fails
        sys.stderr.write(f"internal error: {exc!r}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
