"""The benchmark reaches dynres by name; every name it uses must exist.

perfbench/tracer.py wraps the functions its BOUNDARIES list, and the
workloads perfbench/wl_*.py call the package through attribute chains such as
``dynres.MorphismModel.from_coeff_lists``.  Both are looked up only while a
benchmark runs, so without these checks a renamed or deleted name would break
the benchmark unnoticed.  The files are parsed, not imported or run.
"""

import ast
import importlib
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


def _dynres_chains(tree) -> set[str]:
    """Every dotted name the code reaches through a name or attribute called dynres.

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
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = rooted(dotted(node), aliases)
            if chain is not None and len(chain) > 1:
                chains.add(".".join(chain))
    return chains


def test_workload_names_resolve():
    import dynres
    import dynres.cli  # noqa: F401  (the harness imports it too)

    chains = set()
    for path in sorted(PERFBENCH.glob("wl_*.py")):
        chains |= _dynres_chains(ast.parse(path.read_text(encoding="utf-8")))
    assert {"dynres.MorphismModel.from_coeff_lists", "dynres.cli.main", "dynres.census"} <= chains
    for chain in sorted(chains):
        obj = dynres
        for part in chain.split(".")[1:]:
            assert hasattr(obj, part), f"perfbench uses {chain}, which dynres does not have"
            obj = getattr(obj, part)
