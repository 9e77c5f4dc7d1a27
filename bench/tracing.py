"""Per-layer tracing of drwave from outside the program.

Each traced function is replaced, wherever a caller looks it up, by a
wrapper that records one span (layer, parent span, start, end) in
compact in-memory arrays and adds any per-call counts.  Nothing inside
drwave changes; the untraced benchmark installs no wrapper at all.

After the run, `aggregate` turns the spans into per-layer call counts
and self times: a span's self time is its duration minus the time its
direct child spans cover.  Calls are single threaded and nested, so the
children of a span are disjoint sub-intervals of it.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LAYERS",
    "Layer",
    "Tracer",
    "aggregate",
    "inclusive_time",
    "metric_units",
    "route_cells",
]


@dataclass(frozen=True)
class Layer:
    """One traced function of drwave.

    name    : metric prefix, `<module>.<function>`
    home    : module that defines it
    attr    : attribute path inside `home`; `Class.method` patches the
              class, and a property is wrapped through its getter
    counts  : extra per-call counts, reported as `<name>.<count>`
    targets : end-to-end metric and workload the layer should move
    """

    name: str
    home: str
    attr: str
    counts: tuple[str, ...] = ()
    targets: str = ""


LAYERS: tuple[Layer, ...] = (
    Layer("cli.run", "drwave.cli", "run",
          targets="wall_s on every workload (config hashing, CSV/JSON output)"),
    Layer("experiments.case1_run", "drwave.experiments", "case1_run",
          targets="wall_s on scaling"),
    Layer("experiments.case2_run", "drwave.experiments", "case2_run",
          targets="wall_s on scaling"),
    Layer("oscillatory.dyadic_sum_check", "drwave.oscillatory", "dyadic_sum_check",
          targets="wall_s on oscillatory"),
    Layer("oscillatory.window_integral", "drwave.oscillatory", "window_integral",
          targets="wall_s on oscillatory"),
    Layer("oscillatory.phase_diff", "drwave.oscillatory", "phase_diff",
          targets="wall_s on oscillatory"),
    Layer("dispersive.PropagatorKernel.build", "drwave.dispersive",
          "PropagatorKernel.__init__", targets="wall_s on spectral"),
    Layer("dispersive.PropagatorKernel.apply", "drwave.dispersive",
          "PropagatorKernel.apply", targets="wall_s on spectral (the maximal job)"),
    Layer("dispersive.phase_derivs", "drwave.dispersive", "phase_derivs",
          targets="wall_s on oscillatory"),
    Layer("transform.sft_forward", "drwave.transform", "sft_forward",
          targets="wall_s on spectral"),
    Layer("transform.sft_inverse", "drwave.transform", "sft_inverse",
          targets="wall_s on spectral"),
    Layer("transform.sobolev_norm", "drwave.transform", "sobolev_norm",
          targets="wall_s on scaling"),
    Layer("transform.calibrate_inversion_constant", "drwave.transform",
          "calibrate_inversion_constant", targets="setup_s on spectral and scaling"),
    Layer("spherical.phi_matrix", "drwave.spherical", "phi_matrix",
          counts=("cells", "cells_bessel", "cells_hc", "cells_ode"),
          targets="wall_s on spectral; setup_s through calibration"),
    Layer("spherical.bessel_matrix", "drwave.spherical", "_bessel_matrix",
          counts=("cells",), targets="wall_s on scaling"),
    Layer("special.script_j", "drwave.special", "script_j", counts=("points",),
          targets="wall_s on scaling, then on spectral"),
    Layer("special.plancherel_density", "drwave.special", "plancherel_density",
          counts=("points",), targets="wall_s on scaling, then on spectral"),
    Layer("special.c_function", "drwave.special", "c_function",
          targets="wall_s on scaling, then on spectral"),
    Layer("space.log_density_derivative", "drwave.space", "log_density_derivative",
          targets="setup_s on spectral and scaling; wall_s on spectral (ODE strip)"),
    Layer("space.q2_over_4", "drwave.space", "SpaceParams.q2_over_4",
          targets="wall_s on oscillatory"),
    Layer("space.density", "drwave.space", "density",
          targets="setup_s; wall_s on spectral"),
    Layer("quadrature.panel_rule", "drwave.quadrature", "panel_rule",
          counts=("nodes",), targets="wall_s on oscillatory and spectral"),
    Layer("quadrature.grid_integral", "drwave.quadrature", "grid_integral",
          targets="wall_s on oscillatory and spectral"),
)

# The layer table covers the timed pass.  Set-up (import and warm-up) is
# traced apart, and these of its figures are reported under "setup.".
SETUP_METRICS = (
    ("transform.calibrate_inversion_constant.calls", "count"),
    ("transform.calibrate_inversion_constant.total_s", "s"),  # with children
    ("spherical.phi_matrix.cells", "count"),
    ("space.log_density_derivative.calls", "count"),
    ("space.log_density_derivative.self_s", "s"),
)
# The traced run's own set-up time and single pass (against the untraced
# setup_s and wall_s, the tracing overhead) and its span count over both
# phases.
TRACE_METRICS = (
    ("trace.setup_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.self_s"] = "s"
        for count in layer.counts:
            units[f"{layer.name}.{count}"] = "count"
    units.update((f"setup.{name}", unit) for name, unit in SETUP_METRICS)
    units.update(TRACE_METRICS)
    return units


def route_cells(lams, s, s_bessel_max: float, s_hc_min: float,
                lambda_hc_min: float) -> dict[str, int]:
    """Cells of a phi_matrix(lams, s) call per route, from its arguments.

    Mirrors the zone split of phi_matrix: columns with s <= s_bessel_max
    take the Bessel series; of the rest, rows with |lambda| >=
    lambda_hc_min meet columns with s >= s_hc_min in the exponential
    series block; every other cell is integrated by the ODE.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    near = s <= s_bessel_max
    n_hc_cols = int(np.count_nonzero(~near & (s >= s_hc_min)))
    n_hc_rows = int(np.count_nonzero(np.abs(lams) >= lambda_hc_min))
    cells = lams.size * s.size
    bessel = lams.size * int(np.count_nonzero(near))
    hc = n_hc_rows * n_hc_cols
    return {"cells": cells, "cells_bessel": bessel, "cells_hc": hc,
            "cells_ode": cells - bessel - hc}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _counters(spherical) -> dict:
    """Per-call count functions, (args, kwargs, result) -> {count: n}."""
    zones = (spherical.S_BESSEL_MAX, spherical.S_HC_MIN, spherical.LAMBDA_HC_MIN)
    return {
        "spherical.phi_matrix": lambda a, k, r: route_cells(
            _arg(a, k, 1, "lams"), _arg(a, k, 2, "s"), *zones),
        "spherical.bessel_matrix": lambda a, k, r: {"cells": int(np.size(r))},
        "special.script_j": lambda a, k, r: {"points": int(np.size(_arg(a, k, 1, "x")))},
        "special.plancherel_density": lambda a, k, r: {
            "points": int(np.size(_arg(a, k, 1, "lam")))},
        "quadrature.panel_rule": lambda a, k, r: {"nodes": int(np.size(r[0]))},
    }


class Tracer:
    """Records spans of the LAYERS functions once `install` has run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = [layer.name for layer in LAYERS]
        self.name_idx = array("h")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts = {f"{layer.name}.{c}": 0 for layer in LAYERS for c in layer.counts}
        self.spans_before = 0
        self._stack = [-1]

    def wrap(self, idx: int, fn, counter=None):
        """fn wrapped to record a span of layer `idx` per call."""
        clock, stack = self.clock, self._stack
        name_idx, parent, t0, t1 = self.name_idx, self.parent, self.t0, self.t1
        counts, prefix = self.counts, self.names[idx] + "."

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(t0)
            name_idx.append(idx)
            parent.append(stack[-1])
            t1.append(0.0)
            stack.append(sid)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[sid] = clock()
                stack.pop()
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    counts[prefix + key] += n
            return result

        return traced

    def install(self) -> None:
        """Patch every LAYERS function at each name its callers use.

        Module-level functions are replaced in every loaded drwave module
        that holds them (callers import them by name); methods and the
        q2_over_4 property are replaced on their class.
        """
        import drwave.spherical as spherical

        counters = _counters(spherical)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "drwave" or n.startswith("drwave."))]
        for idx, layer in enumerate(LAYERS):
            home = sys.modules[layer.home]
            owner, _, attr = layer.attr.rpartition(".")
            counter = counters.get(layer.name)
            if owner:
                cls = getattr(home, owner)
                orig = cls.__dict__[attr]
                if isinstance(orig, property):
                    setattr(cls, attr, property(self.wrap(idx, orig.fget, counter)))
                else:
                    setattr(cls, attr, self.wrap(idx, orig, counter))
                continue
            orig = getattr(home, attr)
            traced = self.wrap(idx, orig, counter)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)

    def _spans(self):
        return (np.frombuffer(self.name_idx, np.int16), np.frombuffer(self.parent, np.int64),
                np.frombuffer(self.t0), np.frombuffer(self.t1))

    def total(self, name: str) -> float:
        """Time of layer `name` with its children, since the last reset."""
        return inclusive_time(self.names.index(name), *self._spans())

    def table(self) -> dict[str, float]:
        """Per layer: calls, self_s and the per-call counts, over the spans
        recorded since the last reset."""
        calls, self_s = aggregate(len(self.names), *self._spans())
        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer.name}.calls"] = int(calls[i])
            out[f"{layer.name}.self_s"] = float(self_s[i])
            for c in layer.counts:
                out[f"{layer.name}.{c}"] = self.counts[f"{layer.name}.{c}"]
        return out

    def reset(self) -> None:
        """Drop the recorded spans and counts, to start a new phase."""
        self.spans_before += len(self.t0)
        for arr in (self.name_idx, self.parent, self.t0, self.t1):
            del arr[:]
        for key in self.counts:
            self.counts[key] = 0


def aggregate(n_layers: int, name_idx, parent, t0, t1):
    """Per-layer call counts and self times of a span set.

    Span i belongs to layer name_idx[i], ran from t0[i] to t1[i] and was
    opened inside span parent[i] (-1 at the top).  Returns (calls, self)
    arrays indexed by layer.
    """
    name_idx = np.asarray(name_idx, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(t1, dtype=float) - np.asarray(t0, dtype=float)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    calls = np.bincount(name_idx, minlength=n_layers)
    self_t = np.bincount(name_idx, weights=dur - child[: dur.size], minlength=n_layers)
    return calls, self_t


def inclusive_time(layer: int, name_idx, parent, t0, t1) -> float:
    """Time covered by the spans of one layer, children included; a span
    nested in another span of the same layer is not counted twice."""
    total = 0.0
    for i in np.nonzero(np.asarray(name_idx) == layer)[0]:
        p = int(parent[i])
        while p >= 0 and name_idx[p] != layer:
            p = int(parent[p])
        if p < 0:
            total += float(t1[i] - t0[i])
    return total
