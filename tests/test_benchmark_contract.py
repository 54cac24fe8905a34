"""perfbench/tracer.py wraps dynres functions by name; every name it lists must exist.

The tracer looks each name up only when a traced run starts, so without this
check a renamed or deleted function would break the benchmark unnoticed.  The
file is parsed, not imported or run.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
