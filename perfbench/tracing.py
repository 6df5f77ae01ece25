"""Spans around calls into metriclie's layers, recorded from outside.

`install()` wraps each public function named in LAYERS and rebinds the
wrapper in every metriclie module that holds the function (modules bind
them with `from ... import`).  One span per call: name, start, end, parent
span and invocation id, kept in memory in flat arrays and written out by
`Tracer.save`.  Self time (duration minus the time covered by child spans)
and counters are summed as the calls return.  Spans are timed on the clock
given to the Tracer: run.py gives it the reference clock of hostspeed.py.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

LAYERS = {
    "linalg": ("rref", "determinant"),
    "algebra": ("bracket", "jacobi_check", "lower_central", "upper_central"),
    "forms": ("invariant_form_space", "has_nondegenerate_invariant_form",
              "signature", "killing_form", "is_ad_invariant"),
    "catalog": ("classify_dim4_metric",),
    "connection": ("levi_civita", "curvature", "nabla_R", "soliton_solve",
                   "linearized_isotropy_dim", "ahc_isometry_check",
                   "h3_isotropy"),
    "groups": ("frame", "geodesic_closed_form"),
    "integrate": ("christoffel", "integrate_geodesic", "compare_to_closed_form",
                  "write_trajectory_csv"),
    "cli": ("main", "load_algebra_file"),
}
COUNTERS = ("linalg.rref.cells", "forms.grid_points", "integrate.rk4_steps",
            "integrate.csv_bytes")
SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class _CountingStream:
    def __init__(self, stream, tracer):
        self._stream = stream
        self._tracer = tracer

    def write(self, text):
        self._tracer.counters["integrate.csv_bytes"] += len(text.encode())
        return self._stream.write(text)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.invocation = -1
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.inv = array("i")
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []          # [span id, time covered by children]
        self._bound = []          # (module, attribute, original function)

    def _wrap(self, idx, fn, counter):
        clock = self.clock

        def traced(*args, **kwargs):
            sid = len(self.name)
            self.name.append(idx)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            self.inv.append(self.invocation)
            frame = [sid, 0.0]
            self._stack.append(frame)
            t0 = clock()
            try:
                result = counter(fn, args, kwargs) if counter else fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                dur = t1 - t0
                self.start[sid] = t0
                self.end[sid] = t1
                self.calls[idx] += 1
                self.self_s[idx] += dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, span):
        c = self.counters
        if span == "linalg.rref":
            def count(fn, args, kwargs):
                A = args[0]
                c["linalg.rref.cells"] += len(A) * len(A[0]) if len(A) else 0
                return fn(*args, **kwargs)
        elif span == "forms.has_nondegenerate_invariant_form":
            def count(fn, args, kwargs):
                res = fn(*args, **kwargs)
                c["forms.grid_points"] += res.grid_points_checked
                return res
        elif span == "integrate.integrate_geodesic":
            def count(fn, args, kwargs):
                traj = fn(*args, **kwargs)
                c["integrate.rk4_steps"] += len(traj) - 1
                return traj
        elif span == "integrate.write_trajectory_csv":
            def count(fn, args, kwargs):
                return fn(args[0], _CountingStream(args[1], self), *args[2:],
                          **kwargs)
        else:
            return None
        return count

    def install(self):
        """Wrap every listed function wherever a metriclie module binds it."""
        import metriclie  # noqa: F401  (loads every submodule)
        modules = [m for name, m in sys.modules.items()
                   if name == "metriclie" or name.startswith("metriclie.")]
        for idx, span in enumerate(SPAN_NAMES):
            layer, fn_name = span.split(".")
            original = getattr(sys.modules[f"metriclie.{layer}"], fn_name)
            wrapper = self._wrap(idx, original, self._counter(span))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._bound.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in self._bound:
            setattr(mod, attr, original)
        self._bound = []

    @property
    def spans(self):
        return len(self.name)

    def save(self, path):
        np.savez(path, names=np.array(SPAN_NAMES), name=np.asarray(self.name),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), invocation=np.asarray(self.inv))
