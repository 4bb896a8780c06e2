"""Every public name has a caller outside the tests: a name that only the
tests use belongs in a test-side module such as plane_oracles. The same holds
for the public methods, properties and dataclass fields of every public
class."""
import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import focklab
from test_benchmark_tracing import _tracing_module

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "focklab"


def _modules() -> list:
    return [focklab] + [importlib.import_module(f"focklab.{path.stem}")
                        for path in sorted(PACKAGE.glob("*.py"))
                        if path.stem not in ("__init__", "__main__")]


def _traced() -> set:
    return {name for names in _tracing_module().LAYER_FUNCTIONS.values() for name in names}


def _attribute_loads(paths) -> set:
    return {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


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
    used = _loaded_names() | _traced()
    unused = sorted(f"{module.__name__}.{name}" for module in _modules()
                    for name in getattr(module, "__all__", ()) if name not in used)
    assert unused == []


def _public_members(cls) -> set:
    """The public methods, properties and dataclass fields of cls."""
    names = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    names |= {name for name, value in vars(cls).items()
              if inspect.isfunction(value) or isinstance(value, (property, classmethod,
                                                                  staticmethod))}
    return {name for name in names if not name.startswith("_")}


def test_every_public_member_has_a_caller():
    # an attribute load of the member's name in src/ or benchmarks/*.py, or
    # a traced Class.member
    used = _attribute_loads([*PACKAGE.glob("*.py"), *(ROOT / "benchmarks").glob("*.py")])
    traced = _traced()
    classes = {getattr(module, name) for module in _modules()
               for name in getattr(module, "__all__", ())
               if inspect.isclass(getattr(module, name))}
    assert classes
    unused = sorted(f"{cls.__name__}.{name}" for cls in classes for name in _public_members(cls)
                    if name not in used and f"{cls.__name__}.{name}" not in traced)
    assert unused == []
