"""Span tracing of dynres from outside the package.

Each layer is one module of ``src/dynres``.  ``Tracer.install`` replaces the
layer's public functions at every module attribute where a caller looks them
up (``from .x import f`` copies and ``_matrix.f`` lookups alike), so no
source file changes.  A span records (name, start, end, parent, query id);
spans live in flat arrays in memory and are written out once, at the end.

The site of a span is the module through which the call was looked up, so a
span can tell, for example, a conjugation made by the witness search
(site ``conjugacy_twists``) from one made by the reduction search.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

# layer (module of src/dynres) -> the public functions wrapped as its boundary.
# _search_witness is private but is the only place a witness hit is visible.
BOUNDARIES = {
    "cli": ("main",),
    "census": (
        "run_census",
        "stream_records",
        "enumerate_models",
        "compute_record",
        "load_records",
        "summarize_records",
    ),
    "conjugacy_twists": ("conjugacy_test", "bucket_twists", "_search_witness"),
    "reduction_theory": ("reduction_report", "minimize_exponent", "local_exponent", "conjugated_exponent"),
    "morphism_space": ("conjugate", "conjugate_integer_rows", "normalize_primitive"),
    "resultants": ("macaulay_resultant", "sylvester_resultant", "exact_determinant", "macaulay_matrix"),
    "_matrix": ("det_exact", "det_bareiss_int", "det_modular_crt_int", "mat_adjugate", "mat_adjugate_int", "mat_inverse"),
    "moduli_invariants": ("sigma_invariants", "sigma_invariants_full", "moduli_height", "multiplier_power_sums"),
    "exact_arithmetic": ("factor_integer", "valuation", "primes_up_to"),
}

LAYERS = tuple(m.lstrip("_") for m in BOUNDARIES)
DETS = ("det_exact", "det_bareiss_int", "det_modular_crt_int")
ADJUGATES = ("mat_adjugate", "mat_adjugate_int")
SIGMAS = ("sigma_invariants", "sigma_invariants_full")
SEARCHES = ("reduction_report", "minimize_exponent")


def _dynres_modules():
    """(short name, module) for the dynres package and its loaded submodules."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "dynres" or name.startswith("dynres.")):
            out.append((name.rpartition(".")[2], mod))
    return out


class Tracer:
    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.query = array("l")
        self.names: list[tuple[str, str, str]] = []  # id -> (layer, function, site)
        self.outcome: dict[int, object] = {}  # span -> result detail a metric needs
        self.query_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._keep = dict(_KEEP, conjugated_exponent=_Useful())

    # -- recording -------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.query.append(self.query_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, nid: int, keep):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # a generator does its work inside next(): one span per item
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if keep is not None:
                tracer.outcome[idx] = keep(args, result, tracer._stack[-1])
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every boundary function at each module attribute that holds it."""
        owners = {m: importlib.import_module(f"dynres.{m}") for m in BOUNDARIES}
        modules = _dynres_modules()
        for mod_name, funcs in BOUNDARIES.items():
            layer = mod_name.lstrip("_")
            owner = owners[mod_name]
            for func in funcs:
                original = getattr(owner, func)
                keep = self._keep.get(func)
                for site, mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            nid = len(self.names)
                            self.names.append((layer, func, site.lstrip("_")))
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, self._wrap(original, nid, keep))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """All spans as gzip'd TSV: query, span, parent, layer.function@site, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as out:
            out.write("query\tspan\tparent\tname\tstart_s\tend_s\n")
            labels = [f"{layer}.{func}@{site}" for layer, func, site in self.names]
            for i in range(len(self.start)):
                out.write(
                    f"{self.query[i]}\t{i}\t{self.parent[i]}\t{labels[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, computed from the spans after the run."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        names = self.names
        layer = [names[self.name[i]][0] for i in range(n)]
        func = [names[self.name[i]][1] for i in range(n)]
        site = [names[self.name[i]][2] for i in range(n)]
        parent = self.parent
        child = [0.0] * n
        child_not_move = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                if func[i] != "conjugated_exponent":
                    child_not_move[p] += dur[i]

        def parent_layer(i):
            p = parent[i]
            return layer[p] if p >= 0 else None

        def parent_func(i):
            p = parent[i]
            return func[p] if p >= 0 else None

        self_s = dict.fromkeys(LAYERS, 0.0)
        count = defaultdict(int)
        total = defaultdict(float)
        moves_per_query = defaultdict(int)
        for i in range(n):
            lay, f = layer[i], func[i]
            self_s[lay] += dur[i] - child[i]
            count[f] += 1
            total[f] += dur[i]
            entry = parent_layer(i) != lay
            if entry:
                count[lay + "@entry"] += 1
                total[lay + "@entry"] += dur[i]
            if f == "conjugated_exponent":
                moves_per_query[self.query[i]] += 1
            elif f in DETS and entry:
                count["dets"] += 1
                total["dets"] += dur[i]
                count["det_cells"] += self.outcome[i] ** 2
            elif f in ADJUGATES and entry:
                total["adjugates"] += dur[i]
            elif f in SIGMAS and parent_func(i) not in SIGMAS:
                count["sigmas"] += 1
                total["sigmas"] += dur[i]
            elif f in SEARCHES and parent_layer(i) != "reduction_theory":
                total["search"] += dur[i] - child_not_move[i]
            elif f == "conjugate_integer_rows" and site[i] == "conjugacy_twists":
                count["candidates"] += 1
            if f in ("macaulay_resultant", "conjugacy_test", "conjugated_exponent", "_search_witness"):
                count[f"{f}={self.outcome[i]}"] += 1

        moves = count["conjugated_exponent"]
        candidates = count["candidates"]
        m = {
            "reduction_theory.reports": count["reduction_report"],
            "reduction_theory.search_s": total["search"],
            "reduction_theory.moves_tried": moves,
            "reduction_theory.useful_move_ratio": count["conjugated_exponent=True"] / moves if moves else 0.0,
            "reduction_theory.max_moves_query": max(moves_per_query.values(), default=0),
            "morphism_space.conjugations": count["conjugate"] + count["conjugate_integer_rows"],
            "morphism_space.conjugate_s": total["conjugate"] + total["conjugate_integer_rows"],
            "resultants.calls": count["resultants@entry"],
            "resultants.s": total["resultants@entry"],
            "resultants.method.sylvester": count["macaulay_resultant=sylvester"],
            "resultants.method.macaulay_quotient": count["macaulay_resultant=macaulay_quotient"],
            "resultants.method.perturbation": count["macaulay_resultant=perturbation"],
            "matrix.dets": count["dets"],
            "matrix.det_s": total["dets"],
            "matrix.det_cells": count["det_cells"],
            "matrix.adjugate_s": total["adjugates"],
            "conjugacy_twists.tests": count["conjugacy_test"],
            "conjugacy_twists.verdict.conjugate": count["conjugacy_test=conjugate"],
            "conjugacy_twists.verdict.not_conjugate": count["conjugacy_test=not_conjugate"],
            "conjugacy_twists.verdict.unknown": count["conjugacy_test=unknown"],
            "conjugacy_twists.candidates_tried": candidates,
            "conjugacy_twists.witness_hit_ratio": count["_search_witness=True"] / candidates if candidates else 0.0,
            "conjugacy_twists.bucket_s": total["bucket_twists"],
            "moduli_invariants.sigma_calls": count["sigmas"],
            "moduli_invariants.sigma_s": total["sigmas"],
            "exact_arithmetic.factor_calls": count["factor_integer"],
            "exact_arithmetic.factor_s": total["factor_integer"],
            "census.enumerate_s": total["enumerate_models"],
            "census.stream_s": total["stream_records"],
            "census.summarize_s": total["summarize_records"],
            "census.load_s": total["load_records"],
        }
        for lay in LAYERS:
            m[f"{lay}.self_s"] = self_s[lay]
        m["trace.spans"] = n
        return m


class _Useful:
    """Best exponent per search, to tell moves that lowered it from the rest.

    A search is one prime inside one reduction_report / minimize_exponent
    span, which is the parent of its conjugated_exponent spans.
    """

    def __init__(self):
        self.best: dict[tuple[int, int], int] = {}

    def __call__(self, args, result, parent: int) -> bool:
        _, p, v_res, _ = args
        key = (parent, p)
        best = self.best.get(key, v_res)
        if result < best:
            self.best[key] = result
            return True
        return False


def _size(args, result, parent) -> int:
    return len(args[0])


# function -> what of (args, result, parent span) its spans keep for the metrics
_KEEP = {
    "macaulay_resultant": lambda args, result, parent: result.method,
    "conjugacy_test": lambda args, result, parent: result.status,
    "_search_witness": lambda args, result, parent: result is not None,
    "det_exact": _size,
    "det_bareiss_int": _size,
    "det_modular_crt_int": _size,
}
