"""Per-layer tracing and call counting for the refcascade benchmark.

Layers are the package's modules.  Each layer is a set of public functions,
patched where the caller looks them up, so no file under ``src/`` changes:

* a traced run replaces each function with a wrapper that records a span
  (layer, start, end, parent layer) and aggregates it per (layer, parent);
* a counting run leaves the functions alone and counts interpreter calls
  with ``sys.setprofile``, mapping each function's code object to its layer.

Self time is a span's duration minus the time its child spans cover, so the
self times of all layers add up to the time spent inside top-level spans.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import defaultdict

from refcascade import config, controllers, filters, harness, manipulator, signals
from refcascade.controllers import augmented, basic, stacked

# Layers in report order.  ``harness.loop`` is the part of ``run_experiment``
# and ``sweep`` that no other layer covers; ``harness.metrics`` is
# ``compute_metrics``, which a user pays on every run.
LAYERS = (
    "filters.FilterBank",
    "controllers.evaluate",
    "manipulator.forward_dynamics",
    "manipulator.regressor",
    "refdyn.cascade_rates",
    "signals.eval",
    "numerics.rk4_step",
    "controllers.diag",
    "harness.loop",
    "harness.metrics",
    "harness.persist",
    "config.build",
)


def _controller_classes():
    return [
        obj
        for obj in vars(controllers).values()
        if isinstance(obj, type)
        and issubclass(obj, controllers.ControllerBase)
        and "evaluate" in vars(obj)
    ]


def targets():
    """(layer, owner, attribute) for every patched name.

    The owner is where callers look the name up: ``harness`` imports
    ``rk4_step`` and the diagnostics by name, and each controller module
    imports ``cascade_rates`` by name.  ``TwoLinkArm.regressor`` is a
    staticmethod that ``ArmShape`` captures in ``shape()``, so it must be
    patched before ``build_experiment`` runs.
    """
    out = [("filters.FilterBank", filters.FilterBank, a)
           for a in ("deriv", "output", "output_dot", "output_ddot")]
    out += [("controllers.evaluate", cls, "evaluate") for cls in _controller_classes()]
    out += [
        ("manipulator.forward_dynamics", manipulator.TwoLinkArm, "forward_dynamics"),
        ("manipulator.regressor", manipulator.TwoLinkArm, "regressor"),
    ]
    out += [("refdyn.cascade_rates", mod, "cascade_rates") for mod in (basic, augmented, stacked)]
    out += [
        ("signals.eval", signals._SignalVector, "eval"),
        ("numerics.rk4_step", harness, "rk4_step"),
        ("controllers.diag", harness, "lyapunov_diag"),
        ("controllers.diag", harness, "closed_loop_residual"),
        ("harness.loop", harness, "run_experiment"),
        ("harness.loop", harness, "sweep"),
        ("harness.metrics", harness, "compute_metrics"),
        ("harness.persist", harness, "write_log_csv"),
        ("harness.persist", harness, "write_metrics_json"),
        ("harness.persist", harness, "write_sweep_csv"),
        ("config.build", config, "load_config"),
        ("config.build", harness, "build_experiment"),
    ]
    return out


def _function(raw):
    return raw.__func__ if isinstance(raw, staticmethod) else raw


class Tracer:
    """Span recorder; ``install`` patches every target, ``remove`` restores."""

    def __init__(self):
        # stack frames are [layer, start, time covered by children]
        self._stack = [["root", 0.0, 0.0]]
        # (layer, parent) -> [calls, total seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        # every span of these layers, for percentiles
        self.durations = {"numerics.rk4_step": []}
        self._saved = []

    def _wrap(self, layer, fn):
        stack = self._stack
        spans = self.spans
        kept = self.durations.get(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                parent = stack[-1]
                parent[2] += dur
                rec = spans[(layer, parent[0])]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]
                if kept is not None:
                    kept.append(dur)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for layer, owner, attr in targets():
            raw = vars(owner)[attr]
            wrapped = self._wrap(layer, _function(raw))
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def remove(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    @property
    def top_level_seconds(self) -> float:
        """Time spent inside top-level spans."""
        return self._stack[0][2]

    def self_seconds(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, _parent), (_calls, _total, own) in self.spans.items():
            out[layer] += own
        return out


def count_calls(fn):
    """Run ``fn()`` under ``sys.setprofile``; return (result, counts).

    ``counts`` holds ``py`` (Python function calls), ``c`` (calls of
    builtin functions) and one entry per layer with the calls of that
    layer's functions.  The garbage collector is off while counting, so a
    finalizer cannot add calls at an arbitrary point.
    """
    code_layer = {}
    for layer, owner, attr in targets():
        code_layer[_function(vars(owner)[attr]).__code__] = layer
    counts = dict.fromkeys(LAYERS, 0)
    counts["py"] = 0
    counts["c"] = 0

    def profile(frame, event, _arg):
        if event == "call":
            counts["py"] += 1
            layer = code_layer.get(frame.f_code)
            if layer is not None:
                counts[layer] += 1
        elif event == "c_call":
            counts["c"] += 1

    previous = sys.getprofile()
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
        if gc_was_enabled:
            gc.enable()
    return result, counts
