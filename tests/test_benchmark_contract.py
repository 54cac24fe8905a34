"""The benchmark reaches dynres by name; every name it uses must exist.

perfbench/tracer.py wraps the functions its BOUNDARIES list, and the
workloads perfbench/wl_*.py call the package through attribute chains such as
``dynres.MorphismModel.from_coeff_lists``.  Both are looked up only while a
benchmark runs, so without these checks a renamed or deleted name would break
the benchmark unnoticed.  The files are parsed, not imported or run.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _boundaries() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["BOUNDARIES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no BOUNDARIES")


def test_tracer_boundaries_resolve():
    boundaries = _boundaries()
    assert "resultants" in boundaries
    for module, names in boundaries.items():
        mod = importlib.import_module(f"dynres.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"dynres.{module}.{name} is traced but missing"


def _chain_resolver(tree):
    """A function taking an expression to the dotted name it reaches through dynres, or None.

    A plain alias such as ``cli = state.dynres.cli`` is followed, so
    ``cli.main`` counts as ``dynres.cli.main``.
    """

    def dotted(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
        return parts[::-1]

    def rooted(parts, aliases):
        if "dynres" in parts:
            return parts[parts.index("dynres") :]
        if parts and parts[0] in aliases:
            return aliases[parts[0]] + parts[1:]
        return None

    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            chain = rooted(dotted(node.value), {})
            if chain is not None and len(chain) > 1:
                aliases[node.targets[0].id] = chain

    def resolve(node):
        chain = rooted(dotted(node), aliases)
        return ".".join(chain) if chain is not None and len(chain) > 1 else None

    return resolve


def _dynres_chains(tree) -> set[str]:
    """Every dotted name the code reaches through a name or attribute called dynres."""
    resolve = _chain_resolver(tree)
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    chains = {resolve(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute) and id(node) not in inner}
    return chains - {None}


def _dynres_calls(tree) -> list[tuple[str, int, tuple[str, ...], int]]:
    """(callee chain, positional count, keyword names, line) for each call of a dynres name.

    ``*NAME`` counts as the length of NAME when NAME is a module-level tuple
    literal; a call with any other starred argument, or with ``**``, is left out.
    """
    resolve = _chain_resolver(tree)
    tuples = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    tuples[target.id] = len(node.value.elts)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or (chain := resolve(node.func)) is None:
            continue
        if any(kw.arg is None for kw in node.keywords):
            continue
        positional = 0
        for arg in node.args:
            if not isinstance(arg, ast.Starred):
                positional += 1
            elif isinstance(arg.value, ast.Name) and arg.value.id in tuples:
                positional += tuples[arg.value.id]
            else:
                break
        else:
            calls.append((chain, positional, tuple(kw.arg for kw in node.keywords), node.lineno))
    return calls


def _workload_trees():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(PERFBENCH.glob("wl_*.py"))]


def _lookup(chain):
    import dynres
    import dynres.cli  # noqa: F401  (the harness imports it too)

    obj = dynres
    for part in chain.split(".")[1:]:
        assert hasattr(obj, part), f"perfbench uses {chain}, which dynres does not have"
        obj = getattr(obj, part)
    return obj


def test_workload_names_resolve():
    chains = set()
    for _, tree in _workload_trees():
        chains |= _dynres_chains(tree)
    assert {"dynres.MorphismModel.from_coeff_lists", "dynres.cli.main", "dynres.census"} <= chains
    for chain in sorted(chains):
        _lookup(chain)


def test_workload_calls_bind():
    calls = [(name, *call) for name, tree in _workload_trees() for call in _dynres_calls(tree)]
    seen = {(chain, positional, keywords) for _, chain, positional, keywords, _ in calls}
    # the census settings, the starred search budget and the interrupted stream
    assert ("dynres.CensusConfig", 0, ("n", "d", "coeff_bound", "B", "budget", "output_prefix", "threads")) in seen
    assert ("dynres.SearchBudget", 3, ()) in seen
    assert ("dynres.stream_records", 1, ("limit",)) in seen
    assert ("dynres.macaulay_resultant", 2, ()) in seen  # through ``resultant = state.dynres.macaulay_resultant``
    for name, chain, positional, keywords, line in calls:
        signature = inspect.signature(_lookup(chain))
        try:
            signature.bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(
                f"perfbench/{name}:{line} calls {chain}{signature} with {positional} positional "
                f"and keywords {keywords}: {exc}"
            ) from None


def _module_literals(path: Path) -> dict:
    """Module-level names bound to literals; ``N, D = 1, 2`` binds each name."""
    literals = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        try:
            value = ast.literal_eval(node.value)
        except ValueError:
            continue
        target = node.targets[0]
        if isinstance(target, ast.Name):
            literals[target.id] = value
        elif isinstance(target, ast.Tuple):
            literals.update(zip((name.id for name in target.elts), value, strict=True))
    return literals


def test_census_workload_shape_is_accepted():
    # a census shape the package refuses would surface only as a failed benchmark run
    from dynres import CensusConfig, SearchBudget

    wl = _module_literals(PERFBENCH / "wl_census.py")
    budget = SearchBudget(*wl["BUDGET"])
    config = CensusConfig(n=wl["N"], d=wl["D"], coeff_bound=wl["H"], B=wl["B"], budget=budget, output_prefix="census")
    assert (config.n, config.d) == (1, 2)


def test_census_record_attributes_resolve(tmp_path):
    # the census workload checks each loaded record by attribute, looked up only while it runs
    from dynres import CensusConfig, SearchBudget, load_records, stream_records

    tree = ast.parse((PERFBENCH / "wl_census.py").read_text(encoding="utf-8"))
    attrs = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "record"
    }
    assert {"key", "model", "sigma", "in_gamma", "bad_primes"} <= attrs
    config = CensusConfig(n=1, d=2, coeff_bound=1, B=8, budget=SearchBudget(4, 2, 2), output_prefix=str(tmp_path / "c"))
    stream_records(config, limit=2)
    record = load_records(config.records_path)[1]
    for attr in sorted(attrs):
        assert hasattr(record, attr), f"perfbench/wl_census.py reads record.{attr}, which a CensusRecord does not have"


def test_census_warm_up_does_no_witness_work(monkeypatch):
    # the census workload times its set-up, which ends with bucket_twists([model, model], budget):
    # a class needs witness candidates only when a model is not a multiple of its first member
    from dynres import SearchBudget, bucket_twists, census, conjugacy_twists

    tree = ast.parse((PERFBENCH / "wl_census.py").read_text(encoding="utf-8"))
    setup = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "setup")
    resolve = _chain_resolver(tree)
    calls = [node for node in ast.walk(setup) if isinstance(node, ast.Call)]
    (warm_up,) = [call for call in calls if resolve(call.func) == "dynres.bucket_twists"]
    assert ast.unparse(warm_up.args[0]) == "[model, model]"
    (first,) = [call for call in calls if resolve(call.func) == "dynres.census.enumerate_models"]
    assert [ast.unparse(arg) for arg in first.args] == ["N", "D", "H"]
    assert ast.unparse(warm_up.args[1]) == "state.budget"
    wl = _module_literals(PERFBENCH / "wl_census.py")
    model = next(census.enumerate_models(wl["N"], wl["D"], wl["H"]))

    conjugations = []
    kernel = conjugacy_twists.conjugate_integer_rows

    def counted_kernel(*args):
        conjugations.append(args)
        return kernel(*args)

    monkeypatch.setattr(conjugacy_twists, "conjugate_integer_rows", counted_kernel)
    conjugacy_twists._witness_candidates.cache_clear()
    bucket_twists([model, model], SearchBudget(*wl["BUDGET"]))
    assert conjugacy_twists._witness_candidates.cache_info().currsize == 0
    assert conjugations == []
