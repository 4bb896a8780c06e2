"""Timing wrappers around focklab's public functions, for the traced run.

`Tracer.install()` replaces every module binding of each function in
LAYER_FUNCTIONS: `from .x import y` leaves a second reference to y in the
importing module, and a wrapper on the defining module alone would miss the
calls made through it. Each call records one span (name, start, end, parent
span, case id) in memory; `write()` saves them once, after the run.

Per-layer metrics are per traced case: calls, self time (span duration minus
the time its child spans cover) and calls that raised, plus work counts the
wrappers compute from the call arguments.
"""
from __future__ import annotations

import gzip
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYER_FUNCTIONS = {
    "special": ("gammainc_lower", "gammainc_lower_int_prefix"),
    "quadrature": ("integrate_region", "gauss_legendre", "RadialRule.gauss_laguerre"),
    "fock": ("weighted_basis_matrix", "coherent"),
    "regions": ("disjoint",),
    "symbols": ("discretize",),
    "toeplitz": ("assemble", "radial_assemble", "operator_norm", "top_eigenpair",
                 "jacobi_eigenvalues", "rayleigh"),
    "experiments": ("verify_concentration", "verify_weighted_partition", "verify_norm_bound",
                    "sharpness_experiment", "approximation_experiment"),
    "reports": ("write_jsonl", "write_summary_csv"),
    "cli": ("main", "load_symbol"),
}

# Work counts computed from call arguments: (metric, unit).
WORK_COUNTS = (
    ("fock.weighted_basis_matrix.values", "count/case"),
    ("regions.disjoint.pairs", "count/case"),
    ("symbols.discretize.cells", "count/case"),
    ("toeplitz.assemble.pieces", "count/case"),
    ("toeplitz.assemble.entries", "count/case"),
    ("reports.bytes", "B/case"),
)


def per_layer_metrics() -> list:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            base = f"{layer}.{name}"
            out += [(f"{base}.calls", "count/case", "lower"),
                    (f"{base}.self_ms", "ms/case", "lower"),
                    (f"{base}.errors", "count/case", "lower")]
    out += [(name, unit, "lower") for name, unit in WORK_COUNTS]
    out += [("toeplitz.operator_norm.fallback_ratio", "ratio", "lower"),
            ("trace.overhead_frac", "ratio", "lower"),
            ("trace.coverage_frac", "ratio", "higher")]
    return out


def _focklab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "focklab" or name.startswith("focklab."))]


class Tracer:
    def __init__(self):
        self.names: list = []           # distinct span names, by name id
        self.name_ids: dict = {}
        self.span_name: list = []
        self.span_parent: list = []
        self.span_case: list = []
        self.span_start: list = []
        self.span_end: list = []
        self.span_error: list = []
        self.span_method: dict = {}     # operator_norm span id -> method
        self.stack: list = []
        self.case = -1
        self.counts = defaultdict(float)
        self.fallbacks = 0
        self._restore: list = []
        self.bindings: list = []        # "module.attr" of every patched binding

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"focklab.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    wrapped = classmethod(self._wrap(f"{layer}.{name}", original.__func__))
                    setattr(cls, meth, wrapped)
                    self._restore.append((cls, meth, original))
                    self.bindings.append(f"{module.__name__}.{name}")
                    continue
                original = getattr(module, name)
                wrapped = self._wrap(f"{layer}.{name}", original)
                for mod in _focklab_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, original))
                            self.bindings.append(f"{mod.__name__}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        count = _COUNTERS.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if count is not None:
                args, kwargs = count(self, args, kwargs)
            idx = len(self.span_start)
            parent = self.stack[-1] if self.stack else -1
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_case.append(self.case)
            self.span_error.append(0)
            self.span_end.append(0)
            self.stack.append(idx)
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.span_error[idx] = 1
                raise
            finally:
                self.span_end[idx] = clock()
                self.stack.pop()
            if name.startswith("reports."):
                self.counts["reports.bytes"] += os.path.getsize(args[1])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------------

    def metrics(self, case_count: int, case_wall_ns: float) -> dict:
        """Per-case means of every per-layer metric except trace.overhead_frac."""
        names = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end, dtype=np.int64) - np.asarray(self.span_start, dtype=np.int64)
        err = np.asarray(self.span_error, dtype=np.int64)
        child = np.zeros(dur.size, dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_ns = dur - child

        out = {}
        for layer, fns in LAYER_FUNCTIONS.items():
            for fn in fns:
                base = f"{layer}.{fn}"
                mask = names == self.name_ids[base]
                out[f"{base}.calls"] = int(mask.sum()) / case_count
                out[f"{base}.self_ms"] = float(self_ns[mask].sum()) / 1e6 / case_count
                out[f"{base}.errors"] = int(err[mask].sum()) / case_count
        for metric, _ in WORK_COUNTS:
            out[metric] = self.counts[metric] / case_count
        norm_calls = int((names == self.name_ids["toeplitz.operator_norm"]).sum())
        out["toeplitz.operator_norm.fallback_ratio"] = self.fallbacks / max(norm_calls, 1)
        out["trace.coverage_frac"] = float(dur[~nested].sum()) / case_wall_ns
        return out

    def write(self, path: str) -> None:
        payload = {
            "names": self.names,
            "columns": ["name", "parent", "case", "start_ns", "end_ns", "error"],
            "spans": list(zip(self.span_name, self.span_parent, self.span_case,
                              self.span_start, self.span_end, self.span_error)),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# argument-derived work counts


def _count_values(tracer, args, kwargs):
    truncation, z = args[0], args[1]
    tracer.counts["fock.weighted_basis_matrix.values"] += truncation * np.size(z)
    return args, kwargs


def _count_pairs(tracer, args, kwargs):
    regions = list(args[0])  # may be a generator: hand the list on instead
    p = len(regions)
    tracer.counts["regions.disjoint.pairs"] += p * (p - 1) // 2
    return (regions,) + tuple(args[1:]), kwargs


def _count_cells(tracer, args, kwargs):
    radial = args[1] if len(args) > 1 else kwargs["radial_cells"]
    angular = args[2] if len(args) > 2 else kwargs.get("angular_cells", 1)
    tracer.counts["symbols.discretize.cells"] += radial * angular
    return args, kwargs


def _count_entries(tracer, args, kwargs):
    symbol = args[0]
    truncation = args[1] if len(args) > 1 else kwargs["truncation"]
    pieces = len(getattr(symbol, "pieces", (None,)))  # a sampled symbol is one piece
    tracer.counts["toeplitz.assemble.pieces"] += pieces
    tracer.counts["toeplitz.assemble.entries"] += pieces * truncation * truncation
    return args, kwargs


def _note_method(tracer, args, kwargs):
    # The span id the wrapper is about to allocate.
    tracer.span_method[len(tracer.span_start)] = kwargs.get("method", "auto")
    return args, kwargs


def _count_fallback(tracer, args, kwargs):
    """A Jacobi call made by operator_norm without being asked for: power
    iteration failed to settle and the solver fell back."""
    if tracer.stack:
        method = tracer.span_method.get(tracer.stack[-1])
        if method is not None and method != "jacobi":
            tracer.fallbacks += 1
    return args, kwargs


_COUNTERS = {
    "fock.weighted_basis_matrix": _count_values,
    "regions.disjoint": _count_pairs,
    "symbols.discretize": _count_cells,
    "toeplitz.assemble": _count_entries,
    "toeplitz.operator_norm": _note_method,
    "toeplitz.jacobi_eigenvalues": _count_fallback,
}
