"""Tracing shim: spans around the public functions of each semigrouplab module.

``LayerTracer.install`` replaces every public module-level function of the
modules in ``LAYERS`` (plus the private helpers named in ``REQUIRED``) with a
wrapper that records a span, rebinding the wrapper in every semigrouplab
namespace that holds the original, since ``cli``, ``association``,
``perturbation`` and ``csvio`` bind names with ``from .x import y`` at import
time.  A function counts when it is any callable other than a class whose
``__module__`` is the module, so one behind a C-level decorator such as
``functools.lru_cache`` is wrapped too.  ``install`` raises when a function in
``REQUIRED`` is missing or was not wrapped, so a metric never reads 0 because
its function slipped past the shim.
``SymbolSeq.on_grid`` and ``MultiplierOp.apply`` are patched on their
classes, ``numpy.fft.fftn``/``ifftn`` are wrapped to feed the FFT counters,
and ``AssociationReport.__init__`` is counted without a span.
``uninstall`` restores every original.

A span records its name, layer, start, end, parent span and run id.  Spans
stay in memory until ``write_spans``.  A span's self time is its duration
minus the time its child spans cover; calls are single-threaded, so children
never overlap and the covered time is the sum of their durations.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "semigrouplab"
LAYERS = ("spectral", "symbols", "semigroup", "quadrature", "cauchy",
          "association", "perturbation", "csvio", "config", "cli")
METHODS = (("symbols", "SymbolSeq", "on_grid"), ("semigroup", "MultiplierOp", "apply"))
SUITES = ("laplace", "pseudoresolvent", "functional_equation", "bromwich",
          "perturbation_oracle")
#: the module-level functions the metrics read, by layer
REQUIRED = {
    "semigroup": ("phi", "laplace_identity_residual", "bromwich_S", "resolvent_factor"),
    "quadrature": ("composite_gauss_points",),
    "perturbation": ("perturbed_factor",),
    "cauchy": ("duhamel_solve", "_phi_k", "very_weak_pairing", "integral_equation_residual"),
    "csvio": ("write_rows",),
    "cli": tuple(f"_suite_{suite}" for suite in SUITES),
}

#: per-layer metric -> unit; every value not in seconds repeats exactly
#: between calls on one config, and between seeds except ``csvio.bytes``
METRIC_UNITS = {
    "semigroup.phi.calls": "count",
    "semigroup.phi.modes": "count",
    "semigroup.phi.self_s": "s",
    "semigroup.laplace.total_s": "s",
    "semigroup.bromwich.total_s": "s",
    "semigroup.apply.calls": "count",
    "semigroup.resolvent_factor.calls": "count",
    "spectral.fft.calls": "count",
    "spectral.fft.points": "count",
    "spectral.fft.bytes_computed": "B",
    "spectral.fft.self_s": "s",
    "spectral.self_s": "s",
    "symbols.on_grid.calls": "count",
    "symbols.on_grid.distinct": "count",
    "symbols.on_grid.distinct_ratio": "ratio",
    "symbols.self_s": "s",
    "quadrature.rules.calls": "count",
    "quadrature.rules.distinct": "count",
    "quadrature.nodes": "count",
    "quadrature.self_s": "s",
    "perturbation.perturbed_factor.calls": "count",
    "perturbation.perturbed_factor.total_s": "s",
    "perturbation.self_s": "s",
    "association.reports": "count",
    "association.norm_evals": "count",
    "association.self_s": "s",
    "association.total_s": "s",
    "cauchy.duhamel.calls": "count",
    "cauchy.duhamel.self_s": "s",
    "cauchy.phi_k.calls": "count",
    "cauchy.pairing.total_s": "s",
    "cauchy.residual.total_s": "s",
    "csvio.files": "count",
    "csvio.rows": "count",
    "csvio.bytes": "B",
    "csvio.self_s": "s",
    "config.self_s": "s",
    "cli.self_s": "s",
    **{f"cli.suite.{suite}.total_s": "s" for suite in SUITES},
    "trace.spans": "count",
}


def _arguments(fn):
    """A fast ``(args, kwargs) -> {parameter: value}`` for ``fn``."""
    signature = inspect.signature(fn)
    names = list(signature.parameters)

    def bind(args, kwargs):
        if len(args) == len(names) and not kwargs:
            return dict(zip(names, args))
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


class LayerTracer:
    """Spans and counters for one traced call; install, call, uninstall."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names, self.layers, self.parents = [], [], []
        self.starts, self.ends, self.covered = [], [], []
        self.outer_name, self.outer_layer = [], []
        self._stack = []
        self._active_names = Counter()
        self._active_layers = Counter()
        self.counters = Counter()
        self._grid_keys = set()
        self._rule_keys = set()
        self._keep = []  # objects whose id() is part of a distinct key
        self._written = []
        self._patches = []

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str, layer: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.outer_name.append(self._active_names[name] == 0)
        self.outer_layer.append(self._active_layers[layer] == 0)
        self._active_names[name] += 1
        self._active_layers[layer] += 1
        self.covered.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self.ends[idx] = end
        self._stack.pop()
        self._active_names[self.names[idx]] -= 1
        self._active_layers[self.layers[idx]] -= 1
        parent = self.parents[idx]
        if parent >= 0:
            self.covered[parent] += end - self.starts[idx]

    def _wrap(self, name: str, layer: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name, layer)
            try:
                if count is not None:
                    args, kwargs = count(args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # -- counters ------------------------------------------------------------
    def _count_phi(self, fn):
        bind = _arguments(fn)

        def count(args, kwargs):
            self.counters["semigroup.phi.modes"] += int(np.size(bind(args, kwargs)["a"]))
            return args, kwargs
        return count

    def _count_fft(self, args, kwargs):
        self.counters["spectral.fft.points"] += int(np.size(args[0] if args else kwargs["a"]))
        return args, kwargs

    def _count_on_grid(self, fn):
        bind = _arguments(fn)

        def count(args, kwargs):
            seq, n, grid = bind(args, kwargs).values()
            self._keep.append(seq)
            self._grid_keys.add((id(seq), n, grid))
            return args, kwargs
        return count

    def _count_rule(self, fn):
        bind = _arguments(fn)

        def count(args, kwargs):
            arguments = bind(args, kwargs)
            self._rule_keys.add(tuple(arguments.values()))
            self.counters["quadrature.nodes"] += arguments["panels"] * arguments["nodes"]
            return args, kwargs
        return count

    def _count_rows(self, fn):
        bind = _arguments(fn)

        def count(args, kwargs):
            arguments = bind(args, kwargs)
            path = arguments["path"]
            rows = arguments["rows"]

            def counted():
                for row in rows:
                    self.counters["csvio.rows"] += 1
                    yield row

            arguments["rows"] = counted()
            self._written.append(path)
            self.counters["csvio.files"] += 1
            return (), arguments
        return count

    # -- install / uninstall -------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrapped = set()
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (inspect.isclass(fn) or not callable(fn)
                        or getattr(fn, "__module__", None) != module.__name__):
                    continue
                if attr.startswith("_") and attr not in REQUIRED.get(layer, ()):
                    continue
                count = None
                if (layer, attr) == ("semigroup", "phi"):
                    count = self._count_phi(fn)
                elif (layer, attr) == ("quadrature", "composite_gauss_points"):
                    count = self._count_rule(fn)
                elif (layer, attr) == ("csvio", "write_rows"):
                    count = self._count_rows(fn)
                wrapper = self._wrap(f"{layer}.{attr}", layer, fn, count)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, name, wrapper)
                wrapped.add(f"{layer}.{attr}")
        missing = sorted(f"{layer}.{attr}" for layer, attrs in REQUIRED.items()
                         for attr in attrs if f"{layer}.{attr}" not in wrapped)
        if missing:
            raise RuntimeError(f"layertrace cannot wrap {missing}; "
                               "the layer metrics that read them would be 0")
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = vars(cls)[attr]
            count = self._count_on_grid(fn) if attr == "on_grid" else None
            self._patch(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", layer, fn, count))
        for attr in ("fftn", "ifftn"):
            self._patch(np.fft, attr, self._wrap(f"fft.{attr}", "fft", getattr(np.fft, attr),
                                                 self._count_fft))
        report_cls = modules["association"].AssociationReport
        init = report_cls.__init__

        @functools.wraps(init)
        def counted_init(*args, **kwargs):
            self.counters["association.reports"] += 1
            init(*args, **kwargs)

        self._patch(report_cls, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
        for path in self._written:
            self.counters["csvio.bytes"] += os.path.getsize(path)
        self._written = []
        self._keep = []

    # -- results -------------------------------------------------------------
    def metrics(self) -> dict:
        calls = Counter(self.names)
        self_by_name = defaultdict(float)
        self_by_layer = defaultdict(float)
        total_by_name = defaultdict(float)
        total_by_layer = defaultdict(float)
        norm_evals = 0
        for i, name in enumerate(self.names):
            layer = self.layers[i]
            duration = self.ends[i] - self.starts[i]
            own = duration - self.covered[i]
            self_by_name[name] += own
            self_by_layer[layer] += own
            if self.outer_name[i]:
                total_by_name[name] += duration
            if self.outer_layer[i]:
                total_by_layer[layer] += duration
            parent = self.parents[i]
            if (name == "semigroup.MultiplierOp.apply" and parent >= 0
                    and self.layers[parent] == "association"):
                norm_evals += 1
        fft_calls = calls["fft.fftn"] + calls["fft.ifftn"]
        on_grid_calls = calls["symbols.SymbolSeq.on_grid"]
        c = self.counters
        out = {
            "semigroup.phi.calls": calls["semigroup.phi"],
            "semigroup.phi.modes": c["semigroup.phi.modes"],
            "semigroup.phi.self_s": self_by_name["semigroup.phi"],
            "semigroup.laplace.total_s": total_by_name["semigroup.laplace_identity_residual"],
            "semigroup.bromwich.total_s": total_by_name["semigroup.bromwich_S"],
            "semigroup.apply.calls": calls["semigroup.MultiplierOp.apply"],
            "semigroup.resolvent_factor.calls": calls["semigroup.resolvent_factor"],
            "spectral.fft.calls": fft_calls,
            "spectral.fft.points": c["spectral.fft.points"],
            # complex128 in and out per point: computed, not measured traffic
            "spectral.fft.bytes_computed": 2 * 16 * c["spectral.fft.points"],
            "spectral.fft.self_s": self_by_layer["fft"],
            "spectral.self_s": self_by_layer["spectral"],
            "symbols.on_grid.calls": on_grid_calls,
            "symbols.on_grid.distinct": len(self._grid_keys),
            "symbols.on_grid.distinct_ratio": (len(self._grid_keys) / on_grid_calls
                                               if on_grid_calls else 0.0),
            "symbols.self_s": self_by_layer["symbols"],
            "quadrature.rules.calls": calls["quadrature.composite_gauss_points"],
            "quadrature.rules.distinct": len(self._rule_keys),
            "quadrature.nodes": c["quadrature.nodes"],
            "quadrature.self_s": self_by_layer["quadrature"],
            "perturbation.perturbed_factor.calls": calls["perturbation.perturbed_factor"],
            "perturbation.perturbed_factor.total_s": total_by_name["perturbation.perturbed_factor"],
            "perturbation.self_s": self_by_layer["perturbation"],
            "association.reports": c["association.reports"],
            "association.norm_evals": norm_evals,
            "association.self_s": self_by_layer["association"],
            "association.total_s": total_by_layer["association"],
            "cauchy.duhamel.calls": calls["cauchy.duhamel_solve"],
            "cauchy.duhamel.self_s": self_by_name["cauchy.duhamel_solve"],
            "cauchy.phi_k.calls": calls["cauchy._phi_k"],
            "cauchy.pairing.total_s": total_by_name["cauchy.very_weak_pairing"],
            "cauchy.residual.total_s": total_by_name["cauchy.integral_equation_residual"],
            "csvio.files": c["csvio.files"],
            "csvio.rows": c["csvio.rows"],
            "csvio.bytes": c["csvio.bytes"],
            "csvio.self_s": self_by_layer["csvio"],
            "config.self_s": self_by_layer["config"],
            "cli.self_s": self_by_layer["cli"],
            "trace.spans": len(self.names),
        }
        for suite in SUITES:
            out[f"cli.suite.{suite}.total_s"] = total_by_name[f"cli._suite_{suite}"]
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span: id, name, layer, start, end, parent, run."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name, "layer": self.layers[i],
                                     "start": self.starts[i], "end": self.ends[i],
                                     "parent": self.parents[i], "run": self.run_id}) + "\n")
