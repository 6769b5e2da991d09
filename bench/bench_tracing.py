"""Per-layer tracing for the benchmark, built from the benchmark's own files.

The tracer wraps public functions of the scalarflat modules in every module
namespace that binds them (``chern_scalar`` lives in both
``scalarflat.curvature`` and ``scalarflat.pde``, for example), swaps the
``_fft`` module reference of ``scalarflat.fourier`` and ``scalarflat.pde`` for
a counting proxy, and records one span per call: name, start, end, parent
span and op id.  Spans stay in memory until ``write_spans`` is called.
Nothing inside the program is modified on disk; ``uninstall`` restores every
original binding.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (module, attribute, span name) of each timed function.  Methods are patched
# on their class, so every caller sees them.
TIMED_FUNCTIONS = (
    ("scalarflat.fourier", "ddbar4_components", "fourier.ddbar4_components"),
    ("scalarflat.pde", "is_gauduchon", "pde.is_gauduchon"),
    ("scalarflat.pde", "bicgstab", "pde.bicgstab"),
    ("scalarflat.pde", "conformal_scalar_flat", "pde.conformal_scalar_flat"),
    ("scalarflat.curvature", "chern_scalar", "curvature.chern_scalar"),
    ("scalarflat.curvature", "total_scalar_routes", "curvature.total_scalar_routes"),
    ("scalarflat.curvature", "curvature_report", "curvature.curvature_report"),
    ("scalarflat.curvature", "save_metric", "curvature.save_metric"),
    ("scalarflat.curvature", "load_metric", "curvature.load_metric"),
    ("scalarflat.curvature", "save_field4", "curvature.save_field4"),
    ("scalarflat.classifier", "classify_split", "classifier.classify_split"),
    ("scalarflat.classifier", "classify_ruled", "classifier.classify_ruled"),
    ("scalarflat.classifier", "minimal_surface_gate", "classifier.minimal_surface_gate"),
    ("scalarflat.positivity", "kx_certificate_split", "positivity.kx_certificate_split"),
    ("scalarflat.positivity", "rc_scan", "positivity.rc_scan"),
    ("scalarflat.geom_core", "make_line_bundle", "geom_core.make_line_bundle"),
    ("scalarflat.catalog", "check_entry", "catalog.check_entry"),
    ("scalarflat.cli", "build_parser", "cli.build_parser"),
    ("scalarflat.cli", "run", "cli.run"),
)

TIMED_METHODS = (
    ("scalarflat.pde", "TraceOperator", "apply", "pde.TraceOperator.apply"),
    ("scalarflat.pde", "TraceOperator", "precondition", "pde.TraceOperator.precondition"),
    ("scalarflat.pde", "TraceOperator", "__init__", "pde.TraceOperator.build"),
    ("scalarflat.curvature", "MetricModel4T", "__post_init__", "curvature.MetricModel4T"),
)

# modules whose ``_fft`` attribute is the scipy.fft module
FFT_MODULES = ("scalarflat.fourier", "scalarflat.pde")
FFT_SPAN = "fft"

SPAN_NAMES = tuple(name for _m, _a, name in TIMED_FUNCTIONS) + tuple(
    name for _m, _c, _a, name in TIMED_METHODS) + (FFT_SPAN,)


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _manifest_bytes(manifest_path) -> int:
    """Bytes of a metric manifest plus the component files it names."""
    manifest_path = Path(manifest_path)
    with open(manifest_path, "r", encoding="utf-8") as handle:
        components = json.load(handle)["components"]
    return _file_bytes(manifest_path, *(manifest_path.parent / name
                                        for name in components.values()))


class _CountingFFT:
    """Stand-in for the scipy.fft module: forwards every attribute, and
    counts transforms and the array bytes they take in and give out."""

    def __init__(self, module, tracer: "Tracer"):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        target = getattr(self._module, name)
        if not callable(target):
            return target
        tracer = self._tracer

        def transform(x, *args, **kwargs):
            tracer.open(FFT_SPAN)
            try:
                out = target(x, *args, **kwargs)
            finally:
                tracer.close()
            tracer.counts["fft.transforms"] += 1
            tracer.counts["fft.bytes_computed"] += getattr(x, "nbytes", 0) + out.nbytes
            return out

        return transform


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self):
        # (name, start, end, parent id, op id, id) of each closed span
        self.spans: list[tuple[str, float, float, int, int, int]] = []
        # (id, name, start, parent id) of each open span, innermost last
        self._stack: list[tuple[int, str, float, int]] = []
        self._next = 0
        self.op_id = -1
        self.counts = {
            "fft.transforms": 0,
            "fft.bytes_computed": 0,
            "io.bytes_written": 0,
            "io.bytes_read": 0,
            "pde.solve.iterations": 0,
            "pde.solve.rounds": 0,
            "pde.solves": 0,
        }
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((self._next, name, time.perf_counter(), parent))
        self._next += 1

    def close(self) -> None:
        end = time.perf_counter()
        index, name, start, parent = self._stack.pop()
        self.spans.append((name, start, end, parent, self.op_id, index))

    def mark(self) -> tuple[int, dict[str, int]]:
        """The state to return to if the coming op fails."""
        return len(self.spans), dict(self.counts)

    def rollback(self, mark: tuple[int, dict[str, int]]) -> None:
        """Drop the spans and counts recorded since `mark`, so that a failed
        op adds nothing to the per-op figures."""
        del self.spans[mark[0]:]
        self.counts.update(mark[1])

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every timed function in every scalarflat namespace binding it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "scalarflat" or key.startswith("scalarflat.")]
        hooks = {
            "pde.conformal_scalar_flat": self._after_solve,
            "curvature.save_metric": self._after_save_metric,
            "curvature.load_metric": self._after_load_metric,
            "curvature.save_field4": self._after_save_field4,
        }
        for module_name, attr, name in TIMED_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(original, name, hooks.get(name))
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._set(module, attr, traced)
        for module_name, cls_name, attr, name in TIMED_METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._set(cls, attr, self._wrap(cls.__dict__[attr], name))
        for module_name in FFT_MODULES:
            module = sys.modules[module_name]
            self._set(module, "_fft", _CountingFFT(module._fft, self))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- hooks ---------------------------------------------------------------

    def _after_solve(self, solution, _args, _kwargs) -> None:
        self.counts["pde.solves"] += 1
        self.counts["pde.solve.iterations"] += solution.iterations
        self.counts["pde.solve.rounds"] += solution.rounds

    def _after_save_metric(self, manifest_path, _args, _kwargs) -> None:
        self.counts["io.bytes_written"] += _manifest_bytes(manifest_path)

    def _after_load_metric(self, _metric, args, kwargs) -> None:
        manifest = args[0] if args else kwargs["manifest_path"]
        self.counts["io.bytes_read"] += _manifest_bytes(manifest)

    def _after_save_field4(self, _none, args, kwargs) -> None:
        path = args[0] if args else kwargs["path"]
        self.counts["io.bytes_written"] += _file_bytes(path)

    # -- reduction -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds for each span name."""
        child_time: dict[int, float] = {}
        for _name, start, end, parent, _op, _index in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for name, start, end, _parent, _op, index in self.spans:
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += (end - start) - child_time.get(index, 0.0)
        return totals

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as JSON lines, in the order they closed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, index in self.spans:
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op}))
                handle.write("\n")
