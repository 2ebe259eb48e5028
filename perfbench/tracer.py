"""Span tracer that wraps opdyn's public functions from outside the package.

Every wrapped call records one span: layer name, start, end, parent span and
task id, timed on the thread CPU clock.  Spans are kept in flat arrays in
memory while the traced pass runs; ``dump`` writes them out afterwards and
``layer_metrics`` turns them into per-layer counts and self times.  A span's
self time is its duration minus the durations of its direct children.

A wrapper is installed under every name an opdyn module binds the original
to, because ``discrete``, ``continuous`` and ``bounds`` import ``apply_Phi``
and friends by name: replacing ``opdyn.core.apply_Phi`` alone would miss
their calls.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

CLOCK = time.thread_time

#: (module, attribute, layer) for every module-level function that is traced
FUNCTION_LAYERS = (
    ("opdyn.shapley", "matrix_game_value", "shapley.matrix_game"),
    ("opdyn.core", "apply_Phi", "core.phi"),
    ("opdyn.core", "apply_A", "core.A"),
    ("opdyn.discrete", "solve_vlambda", "discrete.solve_vlambda"),
    ("opdyn.discrete", "iterate_Vn", "discrete.iterate_Vn"),
    ("opdyn.discrete", "euler_scheme", "discrete.euler_scheme"),
    ("opdyn.discrete", "phi_recursion", "discrete.phi_recursion"),
    ("opdyn.continuous", "integrate_U", "continuous.integrate"),
    ("opdyn.continuous", "integrate_u", "continuous.integrate"),
    ("opdyn.continuous", "euler_power", "continuous.expo_check"),
    ("opdyn.continuous", "slow_param_bound", "continuous.slow_param_bound"),
    ("opdyn.bounds", "verify", "bounds.verify"),
    ("opdyn.cli", "write_json", "cli.emit"),
    ("opdyn.cli", "write_csv", "cli.emit"),
)

#: every span name, one per traced layer boundary
LAYERS = (
    "shapley.matrix_game", "shapley.J", "core.phi", "core.A", "core.J",
    "discrete.solve_vlambda", "discrete.iterate_Vn", "discrete.euler_scheme",
    "discrete.phi_recursion", "continuous.integrate", "continuous.expo_check",
    "continuous.param", "continuous.dense", "continuous.slow_param_bound",
    "bounds.verify", "cli.emit",
)

#: the 23 registry checks of the paper suite, in registry order
CHECK_IDS = (
    "norm_bounds", "accretivity", "solution_contraction", "derivative_decay",
    "chernoff", "convvn", "expo", "kobayashi", "euler_vs_ode",
    "normalized_euler", "interpolation", "stationarity_gap", "constant_decay",
    "initial_independence", "wn_tracks_vn", "convboth", "hypothesis_H",
    "slow_param", "convder_decay", "two_param", "vlambda_lipschitz",
    "discrete_slow", "alpha_family",
)

#: every per-layer metric, with its unit and the direction that is better
LAYER_METRICS = (
    ("shapley.matrix_game.calls", "count", "lower"),
    ("shapley.matrix_game.self_s", "s", "lower"),
    ("shapley.matrix_game.us_per_call", "us", "lower"),
    ("shapley.matrix_game.share_2x2", "frac", "higher"),
    ("shapley.J.calls", "count", "lower"),
    ("shapley.J.self_s", "s", "lower"),
    ("core.phi.calls", "count", "lower"),
    ("core.phi.self_s", "s", "lower"),
    ("core.A.calls", "count", "lower"),
    ("core.A.self_s", "s", "lower"),
    ("core.J.calls", "count", "lower"),
    ("core.J.self_s", "s", "lower"),
    ("discrete.solve_vlambda.calls", "count", "lower"),
    ("discrete.solve_vlambda.self_s", "s", "lower"),
    ("discrete.solve_vlambda.phi_per_solve", "phi/solve", "lower"),
    ("discrete.iterate_Vn.self_s", "s", "lower"),
    ("discrete.euler_scheme.self_s", "s", "lower"),
    ("discrete.phi_recursion.self_s", "s", "lower"),
    ("continuous.integrate.calls", "count", "lower"),
    ("continuous.integrate.self_s", "s", "lower"),
    ("continuous.integrate.rhs_evals", "count", "lower"),
    ("continuous.integrate.nodes", "count", "lower"),
    ("continuous.integrate.useful_frac", "frac", "higher"),
    ("continuous.expo_check.self_s", "s", "lower"),
    ("continuous.param.calls", "count", "lower"),
    ("continuous.param.self_s", "s", "lower"),
    ("continuous.dense.calls", "count", "lower"),
    ("continuous.dense.self_s", "s", "lower"),
    ("continuous.slow_param_bound.self_s", "s", "lower"),
    ("bounds.verify.self_s", "s", "lower"),
    *((f"bounds.check.{check}.s", "s", "lower") for check in CHECK_IDS),
    ("cli.emit.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


def _subclasses(cls):
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """Records spans of wrapped opdyn calls; one instance per traced pass."""

    def __init__(self):
        self._ids = {layer: i for i, layer in enumerate(LAYERS)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.task = -1
        self.calls_2x2 = 0
        self.nodes = 0
        self.bytes_written = 0
        self._undo = []

    def wrap(self, layer, fn, after=None):
        """Return fn wrapped in a span named layer; after(args, result) runs
        once the span has closed."""
        nid = self._ids[layer]
        add_name = self.span_name.append
        add_parent = self.span_parent.append
        add_task = self.span_task.append
        add_start = self.span_start.append
        ends = self.span_end
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_task(tracer.task)
            ends.append(0.0)
            stack.append(idx)
            add_start(CLOCK())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = CLOCK()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def patch_function(self, module_name, attr, layer, after=None):
        """Wrap module_name.attr under every opdyn name bound to it."""
        original = getattr(sys.modules[module_name], attr, None)
        if original is None:
            return
        wrapper = self.wrap(layer, original, after)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "opdyn" or name.startswith("opdyn.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))

    def patch_method(self, cls, attr, layer, after=None):
        original = cls.__dict__.get(attr)
        if original is None:
            return
        setattr(cls, attr, self.wrap(layer, original, after))
        self._undo.append((cls, attr, original))

    def install(self):
        """Wrap every traced layer boundary of the imported opdyn package."""
        import opdyn.bounds  # noqa: F401  (loads every layer module)
        import opdyn.cli  # noqa: F401
        from opdyn import continuous, core

        hooks = {
            "shapley.matrix_game": self._count_2x2,
            "continuous.integrate": self._count_nodes,
            "cli.emit": self._count_bytes,
        }
        for module_name, attr, layer in FUNCTION_LAYERS:
            self.patch_function(module_name, attr, layer, hooks.get(layer))
        for cls in _subclasses(core.Operator):
            layer = "shapley.J" if cls.__module__ == "opdyn.shapley" else "core.J"
            self.patch_method(cls, "J", layer)
        for cls in _subclasses(continuous.Parametrization):
            self.patch_method(cls, "value", "continuous.param")
            self.patch_method(cls, "derivative", "continuous.param")
        self.patch_method(continuous.Trajectory, "at", "continuous.dense")
        self.patch_method(continuous.Trajectory, "deriv_at", "continuous.dense")

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _count_2x2(self, args, result):
        if np.shape(args[0]) == (2, 2):
            self.calls_2x2 += 1

    def _count_nodes(self, args, result):
        self.nodes += len(result.times)

    def _count_bytes(self, args, result):
        self.bytes_written += os.path.getsize(args[0])

    # -- results ----------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.span_name, dtype=np.intc),
            "parent": np.frombuffer(self.span_parent, dtype=np.intc),
            "task": np.frombuffer(self.span_task, dtype=np.intc),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def dump(self, path):
        """Write every span (and the layer-name table) to an .npz file."""
        np.savez(path, names=np.array(LAYERS, dtype=str), **self.arrays())

    def layer_metrics(self, pass_cpu_s, factor, untraced_s, task_groups):
        """Per-layer metrics of the traced pass.

        pass_cpu_s is the traced pass's CPU time and factor its host-speed
        factor, which every time metric is multiplied by; untraced_s is the
        adjusted time of the same pass without tracing; task_groups maps a
        task id to its check id (paper suite) or None.
        """
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(name, minlength=len(LAYERS))
        self_s = np.bincount(name, weights=self_time, minlength=len(LAYERS))
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
        ids = self._ids

        def children(child_layers, parent_layer):
            """Spans of child_layers whose direct parent is parent_layer."""
            return int(np.sum(np.isin(name, [ids[c] for c in child_layers])
                              & (parent_name == ids[parent_layer])))

        m = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = int(calls[ids[layer]])
            m[f"{layer}.self_s"] = float(self_s[ids[layer]])
        games = m["shapley.matrix_game.calls"]
        m["shapley.matrix_game.us_per_call"] = (
            1e6 * m["shapley.matrix_game.self_s"] / games if games else 0.0)
        m["shapley.matrix_game.share_2x2"] = self.calls_2x2 / games if games else 0.0
        solves = m["discrete.solve_vlambda.calls"]
        phi = children(["core.phi"], "discrete.solve_vlambda")
        m["discrete.solve_vlambda.phi_per_solve"] = phi / solves if solves else 0.0
        # rhs evaluations: operator calls made directly by an integrator call
        rhs = children(["core.A", "core.phi", "core.J", "shapley.J"],
                       "continuous.integrate")
        integrations = m["continuous.integrate.calls"]
        m["continuous.integrate.rhs_evals"] = rhs
        m["continuous.integrate.nodes"] = self.nodes
        useful = 4 * (self.nodes - integrations) + integrations
        m["continuous.integrate.useful_frac"] = useful / rhs if rhs else 0.0
        verify = name == ids["bounds.verify"]
        for check in CHECK_IDS:
            m[f"bounds.check.{check}.s"] = 0.0
        for task, d in zip(a["task"][verify], dur[verify]):
            group = task_groups.get(int(task))
            if group in CHECK_IDS:
                m[f"bounds.check.{group}.s"] += float(d)
        m["cli.bytes_written"] = self.bytes_written
        m["other.self_s"] = pass_cpu_s - float(np.sum(dur[~nested]))
        for metric, unit, _ in LAYER_METRICS:
            if unit in ("s", "us"):
                m[metric] *= factor
        m["trace.overhead_frac"] = pass_cpu_s * factor / untraced_s - 1.0
        return {metric: m[metric] for metric, _, _ in LAYER_METRICS}
