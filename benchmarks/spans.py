"""Span tracing of carpetlab from outside the package.

``install(tracer)`` replaces the public functions of each carpetlab module
with wrappers that record a span per call: layer, name, start, end and the
enclosing span.  Every module-level reference to a wrapped function is
swapped, so callers that imported it by name are traced too.  Nothing in
``src/`` is edited.  Spans are kept in memory and summarized once the traced
suite has finished.

The suite runs with ``jobs=1``, so one call stack describes the nesting.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("geometry", "linalg", "harmonic", "heat", "coupling", "resistance", "harness")


class Tracer:
    def __init__(self):
        # each span: [layer, name, start, end, parent index, child seconds, counters]
        self.spans = []
        self._stack = []

    def wrap(self, layer, name, fn, count=None):
        """Wrap ``fn``; ``count(args, result)`` returns counters for the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [layer, name, time.perf_counter(), None, parent, 0.0, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[6] = {"failures": 1}
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent][5] += span[3] - span[2]
            if count is not None:
                span[6] = count(args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per layer: busy seconds and counters by name, plus self seconds."""
        out = {layer: {"self_s": 0.0} for layer in LAYERS}
        for layer, name, start, end, _parent, child, counters in self.spans:
            dur = end - start
            acc = out[layer]
            acc["self_s"] += dur - child
            acc[name + "_s"] = acc.get(name + "_s", 0.0) + dur
            acc[name + "_calls"] = acc.get(name + "_calls", 0) + 1
            for key, value in counters.items():
                if key.startswith("max_"):
                    acc[key] = max(acc.get(key, value), value)
                else:
                    acc[key] = acc.get(key, 0) + value
        return out


def _swap(original, replacement) -> None:
    """Point every carpetlab module attribute bound to ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("carpetlab"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(tracer, module, attr, layer, name, count=None) -> None:
    original = getattr(module, attr, None)
    if original is not None:
        _swap(original, tracer.wrap(layer, name, original, count))


def _wrap_method(tracer, cls, attr, layer, name, count=None) -> None:
    original = cls.__dict__.get(attr)
    if original is not None:
        setattr(cls, attr, tracer.wrap(layer, name, original, count))


def _solve_counts(args, result):
    system = args[0]
    info = result[1]
    iterations = int(getattr(info, "iterations", 0))
    return {
        "solves": 1,
        "cg_iterations": iterations,
        "max_iterations": iterations,
        "unknowns_solved": int(len(getattr(system, "unknown", ()))),
        "max_residual": float(getattr(info, "residual", 0.0)),
    }


def _step_counts(args, result):
    return {"steps": 1, "vertex_steps": int(len(result))}


def _walk_counts(args, result):
    return {
        "trials": 1,
        "steps": int(getattr(result, "steps_taken", 0)),
        "valid": 0 if getattr(result, "truncated", False) else 1,
    }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every carpetlab layer."""
    from carpetlab import coupling, geometry, harmonic, harness, heat, linalg, resistance

    _wrap_function(tracer, geometry, "build_graph", "geometry", "build",
                   lambda a, g: {"vertices_built": int(g.num_vertices)})
    _wrap_function(tracer, geometry, "box_vertices", "geometry", "box")

    _wrap_method(tracer, linalg.DirichletSystem, "__init__", "linalg", "setup",
                 lambda a, r: {"systems": 1})
    _wrap_method(tracer, linalg.DirichletSystem, "solve", "linalg", "solve", _solve_counts)

    _wrap_function(tracer, harmonic, "harnack_constant", "harmonic", "harnack")
    _wrap_function(tracer, harmonic, "hitting_probability", "harmonic", "hitting",
                   lambda a, r: {"hitting_probes": 1})
    _wrap_function(tracer, harmonic, "hitting_pair_catalog", "harmonic", "hitting")
    _wrap_function(tracer, harmonic, "expected_exit_time", "harmonic", "exit_time")

    _wrap_method(tracer, heat.TransitionOperator, "step", "heat", "step", _step_counts)
    _wrap_function(tracer, heat, "estimate_ds", "heat", "ds")
    _wrap_function(tracer, heat, "estimate_dw", "heat", "dw")
    _wrap_function(tracer, heat, "regime_fit", "heat", "regime")

    _wrap_function(tracer, coupling, "run_coupled_walk", "coupling", "walk", _walk_counts)
    _wrap_function(tracer, coupling, "upgrade_statistics", "coupling", "upgrade")

    _wrap_function(tracer, resistance, "face_resistance", "resistance", "face")
    _wrap_function(tracer, resistance, "resistance_to_infinity", "resistance", "infinity")
    _wrap_function(tracer, resistance, "effective_resistance", "resistance", "effective")

    order = harness.EXPERIMENT_ORDER
    for i, (name, fn) in enumerate(order):
        order[i] = (name, tracer.wrap("harness", name, fn))


def layer_metrics(summary: dict, suite_s: float) -> dict:
    """The per-layer metrics named by the benchmark, as ``layer.metric``."""
    g = summary["geometry"]
    la = summary["linalg"]
    hm = summary["harmonic"]
    he = summary["heat"]
    co = summary["coupling"]
    rs = summary["resistance"]
    hs = summary["harness"]
    covered = sum(summary[layer]["self_s"] for layer in LAYERS if layer != "harness")
    step_s = he.get("step_s", 0.0)
    walk_s = co.get("walk_s", 0.0)
    trials = co.get("trials", 0)
    out = {
        "geometry.build_s": g.get("build_s", 0.0),
        "geometry.vertices_built": g.get("vertices_built", 0),
        "geometry.box_s": g.get("box_s", 0.0),
        "geometry.self_s": g["self_s"],
        "linalg.systems": la.get("systems", 0),
        "linalg.setup_s": la.get("setup_s", 0.0),
        "linalg.solves": la.get("solves", 0),
        "linalg.solve_s": la.get("solve_s", 0.0),
        "linalg.cg_iterations": la.get("cg_iterations", 0),
        "linalg.max_iterations": la.get("max_iterations", 0),
        "linalg.unknowns_solved": la.get("unknowns_solved", 0),
        "linalg.worst_residual": la.get("max_residual", 0.0),
        "linalg.failures": la.get("failures", 0),
        "linalg.self_s": la["self_s"],
        "harmonic.harnack_s": hm.get("harnack_s", 0.0),
        "harmonic.hitting_s": hm.get("hitting_s", 0.0),
        "harmonic.hitting_probes": hm.get("hitting_probes", 0),
        "harmonic.exit_time_s": hm.get("exit_time_s", 0.0),
        "harmonic.self_s": hm["self_s"],
        "heat.steps": he.get("steps", 0),
        "heat.step_s": step_s,
        "heat.vertex_steps_per_s": he.get("vertex_steps", 0) / step_s if step_s else 0.0,
        "heat.ds_s": he.get("ds_s", 0.0),
        "heat.dw_s": he.get("dw_s", 0.0),
        "heat.regime_s": he.get("regime_s", 0.0),
        "heat.self_s": he["self_s"],
        "coupling.trials": trials,
        "coupling.walk_s": walk_s,
        "coupling.steps": co.get("steps", 0),
        "coupling.steps_per_s": co.get("steps", 0) / walk_s if walk_s else 0.0,
        "coupling.valid_ratio": co.get("valid", 0) / trials if trials else 0.0,
        "coupling.upgrade_s": co.get("upgrade_s", 0.0),
        "coupling.self_s": co["self_s"],
        "resistance.face_s": rs.get("face_s", 0.0),
        "resistance.infinity_s": rs.get("infinity_s", 0.0),
        "resistance.effective_calls": rs.get("effective_calls", 0),
        "resistance.self_s": rs["self_s"],
        # suite time not covered by any span of a computing layer
        "harness.self_s": suite_s - covered,
    }
    for name in ("build", "harnack", "heat", "hitting", "couple", "resist"):
        out[f"harness.{name}_s"] = hs.get(f"{name}_s", 0.0)
    return out


UNITS = {
    "vertices_built": "count", "systems": "count", "solves": "count",
    "cg_iterations": "count", "max_iterations": "count", "unknowns_solved": "count",
    "worst_residual": "1", "failures": "count", "hitting_probes": "count",
    "steps": "count", "vertex_steps_per_s": "1/s", "trials": "count",
    "steps_per_s": "1/s", "valid_ratio": "1", "effective_calls": "count",
    "artifact_bytes": "bytes",
}


def unit_of(metric: str) -> str:
    short = metric.rsplit(".", 1)[-1]
    return UNITS.get(short, "s" if short.endswith("_s") else "count")
