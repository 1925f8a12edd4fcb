"""Per-layer tracing: timing wrappers installed from the benchmark's side.

``install`` wraps each public function of the layer table (README) and
rebinds every ``hesselab.*`` module attribute that holds the same function
object, so calls through ``from .curvature import core_form`` are seen too.
Spans are kept in memory and written once, at the end of the run.  The
tracer records only while ``active`` is set, which the clock does around
the timed calls; set-up and checks are not traced.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs; the metric name is "<module>.<function>", with the
# leading underscore of "_extrema" dropped (metric names start with a letter)
FUNCTIONS = (
    ("_extrema", "pair_extrema"), ("_extrema", "quartic_extrema"),
    ("curvature", "certify_sign"), ("curvature", "core_form"),
    ("curvature", "mirror_symmetrize"), ("curvature", "symmetry_defect"),
    ("jets", "symmetrize"),
    ("flow", "init"), ("flow", "run"), ("flow", "step"), ("flow", "adaptive_dt"),
    ("flow", "grid_jets"), ("flow", "jet_at_node"),
    ("reaction", "integrate_ode"),
    ("transport", "cost_matrix"), ("transport", "solve_exact"),
)
# (module, class, method, metric name): wrapped on the class itself
METHODS = (
    ("potentials", "PotentialHandle", "jet", "potentials.jet"),
    ("potentials", "PotentialHandle", "value", "potentials.value"),
    ("transport", "DiscreteMeasure", "__init__", "transport.DiscreteMeasure"),
)
NAMES = tuple(f"{m.lstrip('_')}.{f}" for m, f in FUNCTIONS) + tuple(m[3] for m in METHODS)
MONITOR = "flow.monitor.total_s"  # flow.run total minus the steps inside it

# layers that must record calls on each workload (the "should move" column)
ASSIGNED = {
    "certify-n3": ("extrema.pair_extrema", "extrema.quartic_extrema",
                   "curvature.certify_sign", "potentials.jet", "jets.symmetrize"),
    "flow-torus": ("extrema.pair_extrema", "extrema.quartic_extrema",
                   "flow.step", "flow.run", "flow.grid_jets", "flow.jet_at_node",
                   "curvature.core_form", "flow.init"),
    "reaction-ode": ("reaction.integrate_ode", "curvature.mirror_symmetrize",
                     "curvature.symmetry_defect"),
    "ot-window": ("flow.step", "flow.adaptive_dt", "flow.init", "potentials.value",
                  "transport.cost_matrix", "transport.solve_exact",
                  "transport.DiscreteMeasure"),
}


def metric_names() -> list[str]:
    names = []
    for name in NAMES:
        names += [f"{name}.calls", f"{name}.self_s"]
    return names + [MONITOR]


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []            # [name, start, end, parent index]
        self._stack = []           # [span index, time covered by children]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.run_total = 0.0       # inclusive time of flow.run
        self.steps_in_run = 0.0    # inclusive time of flow.step under flow.run
        self._runs_open = 0

    def wrap(self, name, fn):
        is_run, is_step = name == "flow.run", name == "flow.step"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), 0.0]
            span = [name, 0.0, 0.0, parent]
            self.spans.append(span)
            self._stack.append(frame)
            self._runs_open += is_run
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._runs_open -= is_run
                span[1], span[2] = start, end
                dur = end - start
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
                if is_run:
                    self.run_total += dur
                if is_step and self._runs_open:
                    self.steps_in_run += dur

        return traced

    def install(self, hl) -> None:
        """Wrap the layer table's functions in the modules of namespace ``hl``."""
        loaded = [m for name, m in sys.modules.items()
                  if name == "hesselab" or name.startswith("hesselab.")]
        for name, (mod_name, fn_name) in zip(NAMES, FUNCTIONS):
            orig = getattr(getattr(hl, mod_name), fn_name)
            wrapped = self.wrap(name, orig)
            for mod in loaded:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(getattr(hl, mod_name), cls_name)
            setattr(cls, meth, self.wrap(name, getattr(cls, meth)))

    def metrics(self) -> dict:
        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = {"value": self.calls[name], "unit": "count"}
            out[f"{name}.self_s"] = {"value": self.self_s[name], "unit": "s"}
        out[MONITOR] = {"value": self.run_total - self.steps_in_run, "unit": "s"}
        return out

    def missing(self, workload: str) -> list[str]:
        """Assigned layers that recorded no call on ``workload``."""
        return [name for name in ASSIGNED[workload] if not self.calls[name]]

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], a, b, p] for n, a, b, p in self.spans]}, fh)
