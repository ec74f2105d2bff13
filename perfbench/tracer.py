"""Span tracing of cat0lab's public functions, from outside the package.

Each wrapped function records one span: name, start, end and the span that
was open when it was called.  The wrapper is rebound in every cat0lab module
that holds the function, so calls through `from .x import f` names are seen
too.  Spans stay in memory; `dump` reduces them to per-name calls, total and
self time, where self time is a span's duration minus its child spans.

The per-step kernels (`OrbitWalker.step` and the `_e2`, `_t4`, `_h2xr`
helpers) are deliberately not wrapped: one span per step would dominate the
run.  Their cost is seen as `walk.sample_walk` time and steps per second.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

# module -> public functions wrapped in spans.  Beyond the functions the
# benchmark reports by name, a few more (apply, inverse, power, ...) are
# wrapped so that their time is charged to their own module instead of to
# the caller's self time.
SPANS = {
    "walk": ("sample_walk", "draw_increments", "validate_distribution"),
    "stats": ("drift_estimate", "hitting_measure", "stationarity_defect",
              "convergence_profile", "dirac_concentration", "horofunction_gap",
              "tracking_error", "theil_sen", "rankone_audit", "cocycle_residual",
              "pi_convergence_check"),
    "boundary": ("boundary_metric", "horofunction", "sample_boundary", "tits_distance",
                 "angle_at_infinity", "tits_ball_is_trivial"),
    "geometry": ("direction", "distance"),
    "isometry": ("apply", "apply_boundary", "compose", "inverse", "power", "classify",
                 "axis_endpoints", "is_rank_one", "independence_score",
                 "north_south_constant"),
    "sampling": ("random_isometry", "random_point"),
    "_h2": ("mp_ray_gaps",),
    "cli": ("load_config", "run"),
}


def _on_sample_walk(tracer, bound, result, seconds):
    n = int(bound.arguments["n"])
    model = bound.arguments["spec"].model.value
    tracer.counters["walk.steps"] += n
    tracer.counters["walk.stored"] += len(result.snapshots)
    steps, secs = tracer.kernel.get(model, (0, 0.0))
    tracer.kernel[model] = (steps + n, secs + seconds)


def _on_dirac(tracer, bound, result, seconds):
    # dirac walks one path with its own OrbitWalker up to the last checkpoint
    tracer.counters["walk.steps"] += max(int(k) for k in bound.arguments["checkpoints"])


def _on_mp_ray_gaps(tracer, bound, result, seconds):
    tracer.counters["h2.mp_steps"] += max(int(k) for k in bound.arguments["steps"])


# span name -> counter hook, called with the bound call arguments and result
HOOKS = {
    "walk.sample_walk": _on_sample_walk,
    "stats.dirac_concentration": _on_dirac,
    "h2.mp_ray_gaps": _on_mp_ray_gaps,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counters = {"walk.steps": 0, "walk.stored": 0, "h2.mp_steps": 0}
        self.kernel: dict[str, tuple[int, float]] = {}

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        names, parents, starts, ends, stack = (self._name, self._parent, self._start,
                                               self._end, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, signature.bind(*args, **kwargs), result, ends[idx] - starts[idx])
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every wrapped function in every loaded cat0lab module."""
        loaded = [m for key, m in list(sys.modules.items())
                  if key == "cat0lab" or key.startswith("cat0lab.")]
        for module_name, functions in SPANS.items():
            home = importlib.import_module(f"cat0lab.{module_name}")
            prefix = module_name.lstrip("_")
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{prefix}.{fn_name}", original)
                for module in loaded:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        setattr(module, attr, wrapper)

    def dump(self, path) -> None:
        """Write per-name calls, total and self seconds, and the counters."""
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        nested = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[nested], dur[nested])
        width = len(self.names)
        calls = np.bincount(name, minlength=width)
        total = np.bincount(name, weights=dur, minlength=width)
        own = np.bincount(name, weights=dur - child, minlength=width)
        out = {
            "spans": {n: [int(calls[i]), float(total[i]), float(own[i])]
                      for i, n in enumerate(self.names)},
            "root_s": float(dur[~nested].sum()),
            "span_count": int(len(dur)),
            "counters": self.counters,
            "kernel": self.kernel,
        }
        with open(path, "w") as fh:
            json.dump(out, fh)
