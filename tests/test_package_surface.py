"""Every public name has a caller outside the tests: a name that only the
tests use belongs in a test-side module such as plane_oracles."""
import ast
import importlib
from pathlib import Path

import focklab
from test_benchmark_tracing import _tracing_module

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "focklab"


def _loaded_names() -> set:
    """Names loaded as an ast.Name or ast.Attribute in the package's modules
    other than __init__.py, plus the benchmark workloads' fl.<name> uses."""
    loaded = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    workloads = ast.parse((ROOT / "benchmarks" / "workloads.py").read_text())
    loaded |= {node.attr for node in ast.walk(workloads)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "fl"}
    return loaded


def test_every_public_name_has_a_caller():
    traced = {name for names in _tracing_module().LAYER_FUNCTIONS.values() for name in names}
    used = _loaded_names() | traced
    modules = [focklab] + [importlib.import_module(f"focklab.{path.stem}")
                           for path in sorted(PACKAGE.glob("*.py"))
                           if path.stem not in ("__init__", "__main__")]
    unused = sorted(f"{module.__name__}.{name}" for module in modules
                    for name in getattr(module, "__all__", ()) if name not in used)
    assert unused == []
