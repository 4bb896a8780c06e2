"""The traced benchmark run wraps focklab functions by name: every name it
lists must still resolve, or the traced run fails only when it is run."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_functions_resolve():
    tracing = _tracing_module()
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"focklab.{layer}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                assert isinstance(vars(getattr(module, cls_name)).get(meth), classmethod), name
            else:
                assert callable(getattr(module, name, None)), f"focklab.{layer}.{name}"
    wrapped = {f"{layer}.{name}" for layer, names in tracing.LAYER_FUNCTIONS.items()
               for name in names}
    assert set(tracing._COUNTERS) <= wrapped
