"""Outside-in span tracer for so3cubics.

The tracer wraps the public functions of each layer from the benchmark's
side; the library itself carries no instrumentation.  A wrapped call
records one span (name, start, end, parent) in flat arrays kept in memory.
`from .x import y` copies a function into the importing module, so each
wrapper is installed under every so3cubics module attribute that holds the
original, and in the harness RUNNERS dict, or calls would escape the trace.
`uninstall` puts every original back, so untraced operations in the same
process run the library exactly as shipped.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Layer modules and the public module-level functions traced in each.
# `as_vector` is left out: it is input coercion called inside nearly every
# algebra function, and its time counts as its caller's self time.
PACKAGE = "so3cubics"
LAYERS = ("cli", "harness", "quadratic", "approximants", "reconstruction",
          "algebra", "output")
UNTRACED = {"algebra.as_vector"}
# Methods traced besides the module-level functions.
METHODS = (("quadratic", "QuadraticTrajectory", "eval"),)
# How many time points one call evaluates, for the `points` counters.
POINTS = {
    "quadratic.QuadraticTrajectory.eval": lambda a, k, r: np.size(a[1]),
    "approximants.first_approximant": lambda a, k, r: np.size(a[1]),
    "approximants.second_approximant": lambda a, k, r: np.size(a[1]),
    "reconstruction.rotation_phase": lambda a, k, r: np.size(a[1]),
    "reconstruction.rotation_phase_approx": lambda a, k, r: np.size(a[1]),
    "reconstruction.approx_cubic": lambda a, k, r: np.size(a[2]),
    "reconstruction.reconstruct_cubic": lambda a, k, r: len(r.grid),
    "reconstruction.so3_distance": lambda a, k, r: 1,
}
# Integration steps taken, from the returned trajectory.
STEPS = {
    "quadratic.integrate_quadratic": lambda r: len(r.grid) - 1,
    "quadratic.integrate_cubic": lambda r: len(r.grid) - 1,
}
# The harness run_* functions, reached through harness.RUNNERS, share one name.
RUNNER = "harness.runner"


class Tracer:
    """Span recorder; `wrap` returns a traced twin of a callable."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")       # 1 unless a same-name span encloses it
        self.start = array("d")
        self.end = array("d")
        self.points: dict[str, int] = {}
        self.steps: dict[str, int] = {}
        self.results: dict[str, list] = {}
        self._stack: list[int] = []

    def reset(self) -> None:
        """Drop recorded spans and counters (the names stay).

        The arrays are emptied in place because every wrapper holds them.
        """
        for buf in (self.name_id, self.parent, self.outer, self.start, self.end):
            del buf[:]
        self.points.clear()
        self.steps.clear()
        self.results.clear()
        self._stack.clear()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        points = POINTS.get(name)
        steps = STEPS.get(name)
        depth = self._depth
        stack = self._stack
        name_ids, parents, outer = self.name_id, self.parent, self.outer
        starts, ends = self.start, self.end
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            outer.append(depth[nid] == 0)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[nid] -= 1
                stack.pop()
            if points is not None:
                self.points[name] = self.points.get(name, 0) + int(points(args, kwargs, result))
            if steps is not None:
                self.steps[name] = self.steps.get(name, 0) + steps(result)
                self.results.setdefault(name, []).append(result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Replace every traced callable under every alias that holds it."""
        if self._installed:
            return
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(mod).items():
                name = f"{layer}.{attr}"
                defined_here = getattr(value, "__module__", None) == mod.__name__
                if (attr.startswith("_") or name in UNTRACED or not callable(value)
                        or isinstance(value, type) or not defined_here):
                    continue
                label = RUNNER if attr.startswith("run_") and layer == "harness" else name
                replacements[id(value)] = (value, self.wrap(label, value))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self._swap(mod, attr, replacements[id(value)][1])
        runners = modules[f"{PACKAGE}.harness"].RUNNERS
        for kind, value in list(runners.items()):
            if id(value) in replacements:
                self._swap_item(runners, kind, replacements[id(value)][1])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[f"{PACKAGE}.{layer}"], cls_name)
            self._swap(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))

    def _swap(self, owner, attr, new) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _swap_item(self, mapping, key, new) -> None:
        self._installed.append((mapping, key, mapping[key]))
        mapping[key] = new

    def uninstall(self) -> None:
        """Put every original callable back, in reverse order."""
        for owner, key, original in reversed(self._installed):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._installed.clear()

    # -- aggregation ----------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, with durations and self times.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the program is single
        threaded, so children never overlap each other or their parent's
        bounds.
        """
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur)) if len(dur) else np.zeros(0)
        return {"name_id": name_id, "parent": parent, "start": start, "end": end,
                "dur": dur, "self": dur - child,
                "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool)}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, busy_s (outermost spans only, so recursion is
        not counted twice), self_s, and points/steps where recorded."""
        s = self.spans()
        n = len(self.names)
        calls = np.bincount(s["name_id"], minlength=n)
        outer = s["outer"]
        busy = np.bincount(s["name_id"][outer], weights=s["dur"][outer], minlength=n)
        own = np.bincount(s["name_id"], weights=s["self"], minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "busy_s": float(busy[i]),
                         "self_s": float(own[i])}
            if name in self.points:
                out[name]["points"] = self.points[name]
            if name in self.steps:
                out[name]["steps"] = self.steps[name]
        return out
