"""Reproducible experiment orchestration.

A plain key=value config (CLI overrides win) selects experiments; each
experiment writes JSON/CSV artifacts that embed the experiment-defining
config and contain no timestamps, so identical configs produce byte-identical
numeric outputs.  The manifest records the full config (plumbing included),
its hash, artifact names, per-experiment status, and wall-clock (the one
field allowed to differ between runs).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .geometry import (
    DEFAULT_TOL,
    CarpetParams,
    build_graph,
    count_cells,
    hausdorff_dimension,
    validate_params,
)
from .coupling import origin_pair, run_coupled_walk, upgrade_statistics
from .seeding import STREAM_LIMIT

__all__ = [
    "ExperimentConfig",
    "RunManifest",
    "parse_config_file",
    "config_from_sources",
    "config_hash",
    "run_suite",
    "export_report",
    "EXPERIMENT_ORDER",
]


@dataclass
class ExperimentConfig:
    d: int = 2
    k: int = 3
    a: int = 1
    levels: tuple = (2, 3, 4)
    seed: int = 42
    tolerance: float = DEFAULT_TOL
    experiments: tuple = ("build", "harnack", "heat", "hitting", "couple", "resist")
    output_dir: str = "artifacts"
    trials: int = 2000

    def params(self) -> CarpetParams:
        return validate_params(self.d, self.k, self.a)

    def to_dict(self) -> dict:
        return {key: list(v) if isinstance(v, tuple) else v for key, v in asdict(self).items()}

    def echo_dict(self) -> dict:
        """The experiment-defining fields embedded into every artifact.

        Where results land (output_dir) cannot influence the numbers, so it
        is left out; this is what makes artifacts byte-comparable across
        runs.  The full config, plumbing included, lives in the manifest.
        """
        out = self.to_dict()
        del out["output_dir"]
        return out


def _parse_value(key: str, raw: str, where: str = ""):
    """``raw`` typed as ``key``'s default, a tuple default as a comma list of its
    first item's type; a bad value is a ``ValueError`` prefixed ``{where}{key}: ``."""
    default = ExperimentConfig.__dataclass_fields__[key].default
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(p.strip()) for p in raw.split(",") if p.strip())
        return type(default)(raw.strip())
    except ValueError as exc:
        raise ValueError(f"{where}{key}: {exc}") from None


def parse_config_file(path: str) -> dict:
    """Read a key=value config file; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, raw = stripped.split("=", 1)
            key = key.strip()
            if key == "jobs" and raw.strip() == "1":
                continue  # legacy line from when the suite had a worker pool
            if key not in ExperimentConfig.__dataclass_fields__:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = _parse_value(key, raw, f"{path}:{lineno}: ")
    return out


def config_from_sources(path: Optional[str] = None, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Merge defaults, an optional config file, and CLI overrides (CLI wins)."""
    data = {}
    if path:
        data.update(parse_config_file(path))
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    config = ExperimentConfig(**data)
    _check_config(config)
    return config


def _check_config(config: ExperimentConfig) -> None:
    """Reject a config the suite cannot run, before any graph is built or file written."""
    config.params()
    known = [name for name, _ in EXPERIMENT_ORDER]
    unknown = [name for name in config.experiments if name not in known]
    if unknown:
        raise ValueError(f"unknown experiment {unknown[0]!r}; choose from {', '.join(known)}")
    if config.trials < 1:
        raise ValueError(f"trials must be at least 1, got {config.trials}")
    if config.trials > STREAM_LIMIT:  # trial i walks on stream i
        raise ValueError(f"trials must be at most 2^32, got {config.trials}")
    if not 0.0 < config.tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {config.tolerance}")
    if not config.levels:
        raise ValueError("levels must name at least one level")
    if min(config.levels) < 0:
        raise ValueError(f"levels must be nonnegative, got {min(config.levels)}")
    top = max(config.levels)
    for name in config.experiments:
        _check_top_level(name, top)
        if name in SOLVER_MODULES:  # a missing or broken solver fails here, before any work
            importlib.import_module(f"{__package__}.{SOLVER_MODULES[name]}")


# The lowest top level each experiment can use on any carpet.  resist: face
# resistance and R_N run over the levels 1..top.  couple: the walk runs at
# n = min(2, top - 1) from the origin pair, whose second cell lies in the
# level-(n - 1) box only when n >= 2.  heat: the central cell is
# ((k - a)/2 k^(n-1) - 1)(1, ..., 1), so the d_w radii around it are k, ...,
# k^(n-1), and three radii need n >= 4; from level 4 on, the d_s fit has at
# least 6 times.
MIN_TOP_LEVEL = {"resist": 1, "couple": 3, "heat": 4}

# The module behind each experiment that solves.  The config check imports
# those of the selected experiments, so scipy loads before the suite starts,
# and only when a selected experiment solves; each experiment reads its
# functions from its module when it runs.
SOLVER_MODULES = {"harnack": "harmonic", "hitting": "harmonic", "heat": "heat",
                  "resist": "resistance"}


def _check_top_level(experiment: str, top: int) -> None:
    """Reject a top level below ``experiment``'s entry in :data:`MIN_TOP_LEVEL`."""
    need = MIN_TOP_LEVEL.get(experiment, 0)
    if top < need:
        raise ValueError(f"{experiment} needs a top level of at least {need}, got {top}")


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the experiment-defining fields (stable across plumbing)."""
    payload = json.dumps(config.echo_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunManifest:
    config: dict
    config_hash: str
    version: str
    experiments: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    wall_clock_seconds: float = 0.0


class _SuiteContext:
    """Shared graph cache and artifact writer for one suite run."""

    def __init__(self, config: ExperimentConfig, manifest: RunManifest):
        self.config = config
        self.manifest = manifest
        self.params = config.params()
        self._graphs = {}
        os.makedirs(config.output_dir, exist_ok=True)

    def graph(self, level: int):
        if level not in self._graphs:
            self._graphs[level] = build_graph(level, self.params)
        return self._graphs[level]

    def write_json(self, name: str, payload: dict) -> str:
        body = {"config": self.config.echo_dict(), **payload}
        _write_json(body, os.path.join(self.config.output_dir, name))
        self.manifest.artifacts.append(name)
        return name

    def write_csv(self, name: str, header: list, rows: list) -> str:
        cfg = json.dumps(self.config.echo_dict(), sort_keys=True, separators=(",", ":"))
        _write_rows(os.path.join(self.config.output_dir, name), header, rows, f"# config {cfg}\n")
        self.manifest.artifacts.append(name)
        return name


def _write_json(payload: dict, path: Optional[str] = None) -> None:
    """Write ``payload`` as JSON (keys sorted, indent 1, a closing newline) to ``path``, or to stdout."""
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_rows(path: str, header: list, rows: list, preamble: str = "") -> None:
    """Write a CSV file: the preamble, the header, then one line per row (floats by repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(preamble + ",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def exp_build(ctx: _SuiteContext) -> dict:
    rows = []
    for n in sorted(set(ctx.config.levels)):
        g = ctx.graph(n)
        rows.append((n, g.num_vertices, g.num_edges))
    expected = [count_cells(n, ctx.params) for n, _, _ in rows]
    artifacts = [
        ctx.write_csv("build.csv", ["level", "vertices", "edges"], rows),
        ctx.write_json(
            "build.json",
            {
                "hausdorff_dimension": hausdorff_dimension(ctx.params),
                "cells": {str(n): int(v) for (n, v, _) in rows},
            },
        ),
    ]
    checks = {"counts_match_formula": all(v == e for (_, v, _), e in zip(rows, expected))}
    return {"artifacts": artifacts, "checks": checks}


def exp_harnack(ctx: _SuiteContext) -> dict:
    from .harmonic import harnack_constant

    levels = [n for n in sorted(set(ctx.config.levels)) if n >= 2]
    graph = ctx.graph(max(ctx.config.levels))
    reports = [harnack_constant(graph, n, tolerance=ctx.config.tolerance) for n in levels]
    rows = [
        (r.level, r.constant, r.rho, r.witness[0], r.witness[1], r.witness[2], r.max_residual)
        for r in reports
    ]
    ratio_ok = True
    for prev, cur in zip(reports, reports[1:]):
        ratio = cur.constant / prev.constant
        ratio_ok = ratio_ok and 0.8 <= ratio <= 1.25
    artifacts = [
        ctx.write_csv(
            "harnack.csv",
            ["level", "constant", "rho", "witness_max", "witness_min", "witness_boundary", "max_residual"],
            rows,
        ),
        ctx.write_json("harnack.json", {"reports": [asdict(r) for r in reports]}),
    ]
    checks = {
        "constant_stable": ratio_ok,
        "rho_below_one": all(r.rho < 1.0 for r in reports),
        "rho_vs_constant": all(r.rho <= 1.0 - 1.0 / r.constant + 1e-9 for r in reports),
    }
    return {"artifacts": artifacts, "checks": checks}


def exp_heat(ctx: _SuiteContext) -> dict:
    from .heat import (carpet_saturation_time, central_vertex, ds_fit_times, estimate_dw, fit_ds,
                       fit_regimes, walk_kernel)

    graph = ctx.graph(max(ctx.config.levels))
    x = central_vertex(graph)
    cap = carpet_saturation_time(ctx.params, graph.level)
    ds_times = ds_fit_times(cap)
    # Off-diagonal regime data: targets spread over distances, dyadic times.
    regime_times = [t for t in (64, 128, 256, 512) if t <= cap]
    targets = _regime_targets(graph, x)
    # One walk serves both fits: the d_s points and p_t(x, y) at the targets.
    walk = walk_kernel(graph, x, targets, regime_times, ds_times)
    ds = fit_ds(walk.diag)
    dw = estimate_dw(graph, x, tolerance=ctx.config.tolerance)
    df = hausdorff_dimension(ctx.params)
    samples = [(y, t, float(p)) for t in regime_times for y, p in zip(targets, walk.entries[t])]
    fit = fit_regimes(graph, x, samples, ds=ds.value, dw=dw.value)

    artifacts = [
        ctx.write_csv("heat_diag.csv", ["t", "p_tt"], [(t, p) for t, p in ds.points]),
        ctx.write_json(
            "heat.json",
            {
                "ds": asdict(ds),
                "dw": asdict(dw),
                "df": df,
                "relation_gap": abs(dw.value - 2.0 * df / ds.value),
                "sub_gaussian": asdict(fit.sub_gaussian) if fit.sub_gaussian else None,
                "gaussian": asdict(fit.gaussian) if fit.gaussian else None,
                "n_floor_excluded": fit.n_floor_excluded,
                "walk": {
                    "vertices": graph.num_vertices,
                    "states": walk.states,
                    "symmetry_order": walk.symmetry_order,
                    "steps": walk.steps,
                    "reversibility_gap": walk.gap,
                },
            },
        ),
    ]
    checks = {
        "ds_in_range": 1.0 < ds.value < df,
        "dw_above_two": dw.value > 2.0,
        "relation_within_10pct": abs(dw.value - 2.0 * df / ds.value) <= 0.10 * dw.value,
        "sub_gaussian_r2": bool(fit.sub_gaussian and fit.sub_gaussian.r_squared >= 0.9),
        # The far regime |x-y| > t is empty for a unit-step walk (nothing
        # travels faster than one cell per step); assert the structural
        # absence rather than pretending a fit could exist.
        "gaussian_regime_empty": fit.gaussian is None and fit.n_gauss == 0,
    }
    return {"artifacts": artifacts, "checks": checks}


def _regime_targets(graph, x, count: int = 24) -> list:
    """Deterministic spread of targets by distance ring around x.

    Only the vertices within half the window are sorted, by distance and
    stably, so ties keep id order as in a sort of every vertex.
    """
    from .harmonic import _distances

    dist = _distances(graph, x)
    near = np.flatnonzero(dist <= graph.side / 2.0)
    # skip x itself, then take evenly spaced targets out to half the window
    pool = near[np.argsort(dist[near], kind="stable")][1:]
    if len(pool) <= count:
        return [int(v) for v in pool]
    idx = np.linspace(0, len(pool) - 1, count).astype(np.int64)
    return [int(pool[i]) for i in idx]


def exp_hitting(ctx: _SuiteContext) -> dict:
    from .harmonic import HittingSpec, hitting_pair_catalog, hitting_probability

    graph = ctx.graph(max(ctx.config.levels))
    k = ctx.params.k
    c1, c2 = 2.0, 4.0
    rows = []
    minima = {}
    counters = {}
    for m in (1, 2, 3):
        r = float(k ** m)
        if c2 * r > graph.side - 1:  # not even the origin cell is an admissible center
            continue
        pairs = hitting_pair_catalog(graph, r, c1=c1, c2=c2, count=50, seed=ctx.config.seed)
        solves: list = []
        probs = [
            hitting_probability(
                graph, HittingSpec(x=x, r=r, c1=c1, c2=c2), y, tolerance=ctx.config.tolerance,
                solves=solves,
            )
            for x, y in pairs
        ]
        rows.extend((m, r, x, y, p) for (x, y), p in zip(pairs, probs))
        minima[m] = min(probs)
        paths = [s["path"] for s in solves]
        counters[str(m)] = {
            "paths": {path: paths.count(path) for path in sorted(set(paths))},
            "max_unknowns": max((s["unknowns"] for s in solves), default=0),
            "worst_residual": max((s["residual"] for s in solves), default=0.0),
        }
    artifacts = [
        ctx.write_csv("hitting.csv", ["m", "r", "x", "y", "probability"], rows),
        ctx.write_json("hitting.json", {"minima": {str(m): v for m, v in minima.items()},
                                        "solves": counters, "c1": c1, "c2": c2}),
    ]
    vals = list(minima.values())
    checks = {
        "floor_met": all(v >= 0.01 for v in vals),
        "stable_across_scales": (max(vals) / min(vals) < 2.0) if len(vals) > 1 else False,
    }
    return {"artifacts": artifacts, "checks": checks}


def exp_couple(ctx: _SuiteContext) -> dict:
    top = max(ctx.config.levels)
    n = min(2, top - 1)
    graph = ctx.graph(top)
    x0, y0 = origin_pair(graph)

    walks = run_coupled_walk(graph, x0, y0, n, trials=ctx.config.trials, seed=ctx.config.seed)
    valid = int((~walks["truncated"]).sum())
    coupled = int(walks["coupled"].sum())
    p_hat = coupled / valid if valid else float("nan")
    se = (p_hat * (1 - p_hat) / valid) ** 0.5 if valid else float("nan")

    upgrade = upgrade_statistics(
        graph, m=0, trials=ctx.config.trials, n=n, seed=ctx.config.seed, j=8
    )
    artifacts = [
        ctx.write_json(
            "couple.json",
            {
                "n": n,
                "pair": [x0, y0],
                "trials": ctx.config.trials,
                "valid": valid,
                "coupled": coupled,
                "probability": p_hat,
                "standard_error": se,
                "upgrade": upgrade,
            },
        )
    ]
    checks = {
        "coupling_positive": bool(valid) and p_hat >= 0.05,
        "upgrade_positive": upgrade["probability"] > 0.0,
    }
    return {"artifacts": artifacts, "checks": checks}


def exp_resist(ctx: _SuiteContext) -> dict:
    from .resistance import face_resistance, resistance_to_infinity

    top = max(ctx.config.levels)
    ns = list(range(1, top + 1))
    face_solves: list = []
    values = [
        face_resistance(ctx.graph(n), tolerance=ctx.config.tolerance, solves=face_solves)
        for n in ns
    ]
    rows = list(zip(ns, values))
    ratios = [values[i + 1] / values[i] for i in range(len(values) - 1)]
    stable = (
        abs(ratios[-1] / ratios[-2] - 1.0) <= 0.15 if len(ratios) >= 2 else False
    )
    graph = ctx.graph(top)
    # target the corner cell: it sits inside every ground box, so the R_N
    # sequence is genuinely nested
    inf_report = resistance_to_infinity(
        graph, [0], list(range(1, top + 1)), tolerance=ctx.config.tolerance
    )
    artifacts = [
        ctx.write_csv("face_resistance.csv", ["n", "resistance"], rows),
        ctx.write_json(
            "resist.json",
            {
                "face": {str(n): v for n, v in rows},
                "face_solves": {str(n): c for n, c in zip(ns, face_solves)},
                "ratios": ratios,
                "to_infinity": asdict(inf_report),
            },
        ),
    ]
    checks = {
        "ratio_stable_15pct": stable,
        "monotone_R_N": all(
            b >= a - 1e-9 for a, b in zip(inf_report.resistances, inf_report.resistances[1:])
        ),
        # d=2 carpet is recurrent: the sequence must be flagged divergent
        "divergence_flagged": inf_report.divergent if ctx.config.d == 2 else True,
    }
    return {"artifacts": artifacts, "checks": checks}


EXPERIMENT_ORDER = [
    ("build", exp_build),
    ("harnack", exp_harnack),
    ("heat", exp_heat),
    ("hitting", exp_hitting),
    ("couple", exp_couple),
    ("resist", exp_resist),
]


def run_suite(config: ExperimentConfig, fail_fast: bool = False) -> RunManifest:
    """Run the selected experiments in dependency order and write artifacts.

    A config that ``config_from_sources`` would reject raises its
    ``ValueError`` before anything is written.  Failures are recorded in
    the manifest and the suite continues unless ``fail_fast``.  The
    manifest itself is written as manifest.json; its wall-clock field is
    the only output allowed to vary between identical runs.
    """
    _check_config(config)
    manifest = RunManifest(
        config=config.to_dict(), config_hash=config_hash(config), version=__version__
    )
    ctx = _SuiteContext(config, manifest)
    started = time.monotonic()
    for name, fn in EXPERIMENT_ORDER:
        if name not in config.experiments:
            continue
        try:
            result = fn(ctx)
            manifest.experiments[name] = {
                "status": "ok",
                "artifacts": result["artifacts"],
                "checks": result["checks"],
            }
        except Exception as exc:  # recorded, not raised: the suite is a survey
            manifest.experiments[name] = {
                "status": "failed",
                "artifacts": [],
                "checks": {},
                "error": f"{type(exc).__name__}: {exc}",
            }
            if fail_fast:
                break
    manifest.wall_clock_seconds = time.monotonic() - started
    _write_json(asdict(manifest), os.path.join(config.output_dir, "manifest.json"))
    return manifest


def _figure_fit(fig_dir: str, name: str, header: list, rows: list, xs, ys, slope: float) -> str:
    """Per-figure data: each row, then the fit line of ``ys`` on ``xs`` with the
    fitted ``slope``, through the means, and its residual."""
    icept = float(ys.mean() - slope * xs.mean())
    fits = [icept + slope * x for x in xs.tolist()]
    out = [(*row, fit, y - fit) for row, fit, y in zip(rows, fits, ys.tolist())]
    _write_rows(os.path.join(fig_dir, name), [*header, "fit", "residual"], out)
    return name


def _figure_loglog(fig_dir: str, name: str, fit, scale: float, xlab: str, ylab: str) -> str:
    """Per-figure data: the log-log series of a suite ``fit``, whose value is
    ``scale`` times its slope, the fit line and residuals."""
    points = fit["points"]
    xs = np.log([p[0] for p in points])
    ys = np.log([p[1] for p in points])
    rows = [(x, y, lx, ly) for (x, y), lx, ly in zip(points, xs.tolist(), ys.tolist())]
    return _figure_fit(fig_dir, name, [xlab, ylab, f"log_{xlab}", f"log_{ylab}"], rows, xs, ys,
                       fit["value"] / scale)


def _solves_line(series: str, solves) -> str:
    """One report line for a resistance series' solves, level by level."""
    parts = [
        f"{n}: {c['path']} {c['iterations']} it, {c['orbit_unknowns']} orbits of"
        f" {c['unknowns']} unknowns (order {c['symmetry_order']})"
        for n, c in solves
    ]
    return f"  {series} solves: " + "; ".join(parts)


class _ReportError(ValueError):
    """A file the report cannot read, named by its path."""


def _read_record(path: str, trail: list) -> dict:
    """Read a JSON object; a field missing from it or a nested object is a ``ValueError``.

    Every field lookup sets ``trail`` to ``[path, key]``, so an error on the
    value read names the file and the field it came from.
    """

    class Record(dict):
        def __getitem__(self, key):
            trail[:] = [path, key]
            return super().__getitem__(key)

        def __missing__(self, key):
            raise _ReportError(f"{path}: missing field {key!r}")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=Record)
        except json.JSONDecodeError as exc:
            raise _ReportError(f"{path}: not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise _ReportError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def export_report(manifest_path: str) -> tuple[str, list]:
    """Render a text summary plus per-figure data files; returns (text, gaps).

    Every number quoted comes from an artifact listed in the manifest; a
    listed artifact that is missing on disk is reported as a gap, and a file
    that lacks a field the report prints, or holds one of the wrong type, is
    a ``ValueError`` naming the file and the field.  Figure files
    (report_*.csv: series, fit line, residuals) land next to the manifest,
    ready for any external plotting tool.
    """
    trail = [manifest_path, None]
    try:
        return _report(manifest_path, trail)
    except _ReportError:
        raise
    except (TypeError, ValueError, AttributeError) as exc:
        path, key = trail
        raise _ReportError(f"{path}: field {key!r} has the wrong type ({exc})") from None


def _report(manifest_path: str, trail: list) -> tuple[str, list]:
    """The body of :func:`export_report`, noting each field it reads in ``trail``."""
    manifest = _read_record(manifest_path, trail)
    base = os.path.dirname(os.path.abspath(manifest_path))
    lines = [f"config {manifest['config_hash']} (version {manifest['version']})"]
    experiments = manifest["experiments"]
    if not experiments:
        lines.append("nothing to report: manifest lists no experiments")
        return "\n".join(lines) + "\n", []

    gaps = [name for name in manifest["artifacts"]
            if not os.path.exists(os.path.join(base, name))]

    figures = []
    for name in (name for name, _ in EXPERIMENT_ORDER if name in experiments):
        entry = experiments[name]
        lines.append(f"\n[{name}] status={entry['status']}")
        if entry["status"] != "ok":
            lines.append(f"  error: {entry['error']}")
            continue
        for check, ok in sorted(entry["checks"].items()):
            lines.append(f"  check {check}: {'pass' if ok else 'FAIL'}")
        for art in entry["artifacts"]:
            tag = "" if os.path.exists(os.path.join(base, art)) else "  [MISSING]"
            lines.append(f"  artifact {art}{tag}")

        path = os.path.join(base, f"{name}.json")
        if not os.path.exists(path):
            continue
        data = _read_record(path, trail)
        if name == "build":
            lines.append(f"  hausdorff dimension {data['hausdorff_dimension']!r}")
            lines.append("  level      cells")
            for lvl in sorted(data["cells"], key=int):
                lines.append(f"  {int(lvl):>5} {data['cells'][lvl]:>10}")
        elif name == "harnack":
            lines.append("      n        C_H(n)          rho(n)")
            rows = []
            for rep in data["reports"]:
                lines.append(f"  {rep['level']:>5} {rep['constant']:>13.8f} {rep['rho']:>15.8f}")
                rows.append((rep["level"], rep["constant"], rep["rho"]))
            lines.extend(
                f"  sweep {rep['level']}: {rep['solves']} solves, first {rep['first_path']},"
                f" factor {rep['factor_nnz']} entries, worst residual {rep['max_residual']:.2e}"
                for rep in data["reports"]
            )
            _write_rows(os.path.join(base, "report_harnack.csv"),
                        ["n", "harnack_constant", "oscillation_rho"], rows)
            figures.append("report_harnack.csv")
        elif name == "heat":
            ds, dw = data["ds"], data["dw"]
            lines.append(f"  d_s = {ds['value']:.6f} +- {ds['standard_error']:.6f} (r2 {ds['r_squared']:.6f})")
            lines.append(f"  d_w = {dw['value']:.6f} +- {dw['standard_error']:.6f} (r2 {dw['r_squared']:.6f})")
            lines.append(f"  d_f = {data['df']:.6f}; |d_w - 2 d_f / d_s| = {data['relation_gap']:.6f}")
            walk = data["walk"]
            lines.append(
                f"  kernel walk: {walk['steps']} steps on {walk['states']} orbit states of"
                f" {walk['vertices']} vertices (symmetry order {walk['symmetry_order']}),"
                f" squared-sum gap {walk['reversibility_gap']:.1e}"
            )
            figures.append(_figure_loglog(base, "report_heat_diag.csv", ds, -2.0, "t", "p_t"))
            figures.append(_figure_loglog(base, "report_heat_exit.csv", dw, 1.0, "r", "exit_time"))
            if sub := data["sub_gaussian"]:
                lines.append(
                    f"  sub-gaussian fit: slope {sub['value']:.6f} +- {sub['standard_error']:.6f}"
                    f" over {sub['n_points']} pairs (r2 {sub['r_squared']:.6f})"
                )
                us, vs = np.array(sub["points"], dtype=np.float64).T
                figures.append(_figure_fit(base, "report_subgaussian.csv", ["abscissa", "neg_log_p"],
                                           sub["points"], us, vs, sub["value"]))
            lines.append(
                "  gaussian regime: "
                + ("fitted" if data["gaussian"] else "empty (unit-step walk reaches nothing beyond t)")
            )
        elif name == "hitting":
            lines.append("      m   min hitting probability")
            for m in sorted(data["minima"], key=int):
                lines.append(f"  {int(m):>5} {data['minima'][m]:>25.12f}")
            for m, c in sorted(data["solves"].items(), key=lambda item: int(item[0])):
                paths = ", ".join(f"{path} {count}" for path, count in c["paths"].items())
                lines.append(f"  probes {m}: {paths}, at most {c['max_unknowns']} unknowns,"
                             f" worst residual {c['worst_residual']:.2e}")
        elif name == "couple":
            lines.append(
                f"  coupling p-hat = {data['probability']:.6f} +- {data['standard_error']:.6f}"
                f" ({data['coupled']}/{data['valid']} trials, box level {data['n']})"
            )
            up = data["upgrade"]
            lines.append(
                f"  upgrade m={up['m']} j={up['j']}: {up['probability']:.6f}"
                f" ({up['successes']}/{up['valid']}, immediate {up['immediate']})"
            )
        else:  # resist
            lines.append("      n   face resistance")
            rows = []
            for lvl in sorted(data["face"], key=int):
                lines.append(f"  {int(lvl):>5} {data['face'][lvl]:>17.10f}")
                rows.append((int(lvl), data["face"][lvl]))
            inf = data["to_infinity"]
            tail = "divergent (recurrent)" if inf["divergent"] else f"-> {inf['extrapolated']!r}"
            lines.append(f"  corner-cell resistance to infinity: {tail}")
            lines.append(_solves_line("face", data["face_solves"].items()))
            lines.append(_solves_line("R_N", zip(inf["levels"], inf["solves"])))
            _write_rows(os.path.join(base, "report_resist_face.csv"), ["n", "face_resistance"], rows)
            figures.append("report_resist_face.csv")

    if figures:
        lines.append("\nfigure data files:")
        lines.extend(f"  {f}" for f in figures)
    if gaps:
        lines.append("\ngaps (missing artifacts):")
        lines.extend(f"  {p}" for p in gaps)
    return "\n".join(lines) + "\n", gaps
