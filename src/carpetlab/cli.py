"""Command-line interface: carpet <subcommand>.

Exit codes: 0 success, 1 experiment failure, 2 usage error, 3 capacity error
(graph too large for the configured budget, or out of memory).

The subcommands that solve (harnack, hitting, heat, resist) import their
modules in their handlers, so build, couple, report and a suite that only
builds and couples load no scipy.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .geometry import (
    DEFAULT_TOL,
    CapacityError,
    DEFAULT_VERTEX_BUDGET,
    build_graph,
    read_graph,
    validate_params,
    write_graph,
)
from .coupling import MAX_STEPS, origin_pair, run_coupled_walk, upgrade_statistics
from .harness import (ExperimentConfig, _check_top_level, _parse_value, _read_record, _write_json,
                      _write_rows, config_from_sources, export_report, run_suite)


def _add_graph_arg(p):
    p.add_argument("--graph", required=True, help="graph file produced by `carpet build`")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carpet",
        description="numerical laboratory for generalized Sierpinski-carpet graphs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a carpet graph and write it to a file")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--n", type=int, required=True, help="subdivision level")
    p.add_argument("--budget", type=int, default=DEFAULT_VERTEX_BUDGET)
    p.add_argument("--out", required=True)

    p = sub.add_parser("harnack", help="boundary-sweep Harnack constant on a box level")
    _add_graph_arg(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out")

    p = sub.add_parser("hitting", help="hit-the-inner-ball-before-the-shell probability")
    _add_graph_arg(p)
    p.add_argument("--x", type=int, help="center vertex id (default: sample a catalog)")
    p.add_argument("--y", type=int, help="start vertex id (with --x: single probe)")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--c1", type=float, default=2.0)
    p.add_argument("--c2", type=float, default=4.0)
    p.add_argument("--count", type=int, default=50, help="catalog size when sampling")
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out")

    p = sub.add_parser("heat", help="heat-kernel diagnostics")
    heat_sub = p.add_subparsers(dest="heat_command", required=True)
    q = heat_sub.add_parser("diag", help="on-diagonal series and exponent estimates")
    _add_graph_arg(q)
    q.add_argument("--x", type=int, help="source vertex (default: most central cell)")
    q.add_argument("--tmax", type=int, default=4096)
    q.add_argument("--out", help="CSV path for the t, p_tt series")
    q = heat_sub.add_parser("regime", help="near/far decay-regime fits")
    _add_graph_arg(q)
    q.add_argument("--x", type=int)
    q.add_argument("--pairs", required=True, help="CSV of y,t pairs (no header)")
    q.add_argument("--ds", type=float, help="spectral dimension (default: estimate)")
    q.add_argument("--dw", type=float, help="walk dimension (default: estimate)")
    q.add_argument("--out")

    p = sub.add_parser("couple", help="mirrored coupling experiments")
    couple_sub = p.add_subparsers(dest="couple_command", required=True)
    q = couple_sub.add_parser("run", help="coupling probability for a start pair")
    _add_graph_arg(q)
    q.add_argument("--n", type=int, required=True, help="box level")
    q.add_argument("--x", type=int, help="first walker (default: origin cell)")
    q.add_argument("--y", type=int, help="second walker (default: origin's axis-d neighbor)")
    q.add_argument("--trials", type=int, default=10000)
    q.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    q.add_argument("--max-steps", type=int, default=MAX_STEPS)
    q.add_argument("--audit", action="store_true", help="include per-trial digests")
    q.add_argument("--out")
    q = couple_sub.add_parser("upgrade", help="association upgrade rate per renewal window")
    _add_graph_arg(q)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--j", type=int, default=8)
    q.add_argument("--trials", type=int, default=10000)
    q.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    q.add_argument("--out")

    p = sub.add_parser("resist", help="effective-resistance experiments")
    resist_sub = p.add_subparsers(dest="resist_command", required=True)
    q = resist_sub.add_parser("face", help="face-to-face resistance at one level")
    _add_graph_arg(q)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--tol", type=float, default=DEFAULT_TOL)
    q = resist_sub.add_parser("infinity", help="resistance to growing box boundaries")
    _add_graph_arg(q)
    q.add_argument("--set", dest="set_file", required=True,
                   help="vertex ids, one per line; blank lines separate groups")
    q.add_argument("--levels", required=True, help="comma-separated ground levels")
    q.add_argument("--tol", type=float, default=DEFAULT_TOL)
    q.add_argument("--out")

    p = sub.add_parser("suite", help="run the experiment suite from a config")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--levels", help="comma-separated levels override")
    p.add_argument("--experiments", help="comma-separated experiment override")
    p.add_argument("--out", dest="output_dir", help="artifact directory")
    p.add_argument("--trials", type=int)
    p.add_argument("--fail-fast", action="store_true")

    p = sub.add_parser("report", help="summarize a suite manifest")
    p.add_argument("--manifest", required=True)

    return parser


def _read_sets(path: str) -> list[list[int]]:
    """The groups of vertex ids in ``path``; a file with no id is a ``ValueError``."""
    groups: list[list[int]] = [[]]
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s:
                if groups[-1]:
                    groups.append([])
                continue
            try:
                groups[-1].append(int(s))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected a vertex id, got {s!r}") from None
    if not groups[0]:
        raise ValueError(f"{path}: no vertex id")
    return [g for g in groups if g]


def _check_ids(graph, ids, source: str) -> None:
    """``graph.check_ids`` on the ids given, None skipped, its message prefixed with their ``source``."""
    try:
        graph.check_ids([v for v in ids if v is not None])
    except ValueError as err:
        raise ValueError(f"{source}: {err}") from None


def _cmd_build(args) -> int:
    params = validate_params(args.d, args.k, args.a)
    graph = build_graph(args.n, params, budget=args.budget)
    write_graph(graph, args.out)
    print(f"wrote level-{args.n} graph: {graph.num_vertices} vertices, "
          f"{graph.num_edges} edges -> {args.out}")
    return 0


def _cmd_harnack(args) -> int:
    from .harmonic import harnack_constant

    graph = read_graph(args.graph)
    report = harnack_constant(graph, args.level, tolerance=args.tol)
    _write_json(asdict(report), args.out)
    return 0


def _cmd_hitting(args) -> int:
    from .harmonic import HittingSpec, _distances, hitting_pair_catalog, hitting_probability

    graph = read_graph(args.graph)
    if args.y is not None and args.x is None:
        raise ValueError("--y requires --x")
    _check_ids(graph, [args.x], "--x")
    _check_ids(graph, [args.y], "--y")
    if args.x is not None:
        # the spec checks the radii before anything is scanned or solved
        spec = HittingSpec(x=args.x, r=args.r, c1=args.c1, c2=args.c2)
        if args.y is not None:
            p = hitting_probability(graph, spec, args.y, tolerance=args.tol)
            _write_json({"x": args.x, "y": args.y, "r": args.r, "probability": p}, args.out)
            return 0
        # One center, every admissible start in the annulus r <= dist <= c1*r:
        # one solve serves them all.
        dist = _distances(graph, args.x)
        starts = np.nonzero((dist >= args.r) & (dist <= args.c1 * args.r))[0]
        if starts.size == 0:
            raise ValueError(f"no start vertices in the [r, c1*r] annulus around {args.x}")
        values = hitting_probability(graph, spec, starts, tolerance=args.tol).tolist()
        probes = [{"x": args.x, "y": y, "probability": p} for y, p in zip(starts.tolist(), values)]
    else:
        probes = []
        for x, y in hitting_pair_catalog(graph, args.r, c1=args.c1, c2=args.c2,
                                         count=args.count, seed=args.seed):
            spec = HittingSpec(x=x, r=args.r, c1=args.c1, c2=args.c2)
            probes.append({"x": x, "y": y,
                           "probability": hitting_probability(graph, spec, y, tolerance=args.tol)})
    values = [p["probability"] for p in probes]
    _write_json(
        {"r": args.r, "count": len(probes), "min": min(values), "mean": sum(values) / len(values),
         "probes": probes},
        args.out,
    )
    return 0


def _cmd_heat(args) -> int:
    from .heat import (DS_MIN_POINTS, FitError, carpet_saturation_time, central_vertex,
                       ds_fit_times, estimate_dw, fit_ds, fit_regimes, walk_kernel)

    if args.heat_command == "diag" and args.tmax < 1:
        raise ValueError(f"--tmax must be at least 1, got {args.tmax}")
    graph = read_graph(args.graph)
    _check_ids(graph, [args.x], "--x")
    if args.heat_command == "diag" or args.dw is None:  # d_w is fitted, before the walk
        _check_top_level("heat", graph.level)
    x = args.x if args.x is not None else central_vertex(graph)
    cap = carpet_saturation_time(graph.params, graph.level)
    if args.heat_command == "diag":
        dw = estimate_dw(graph, x)
        # one walk covers the printed 1..tmax series and the d_s points
        walk = walk_kernel(graph, x, [x], range(1, args.tmax + 1), ds_fit_times(cap))
        if args.out:
            _write_rows(args.out, ["t", "p_tt"],
                        [(t, float(walk.entries[t][0])) for t in range(1, args.tmax + 1)])
        ds = fit_ds(walk.diag)
        summary = {"x": x, "ds": asdict(ds), "dw": asdict(dw)}
        _write_json(summary)
        return 0
    pairs = []
    with open(args.pairs, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s or s.startswith("#") or s.startswith("y,"):
                continue
            try:
                y_str, t_str = s.split(",")
                pairs.append((int(y_str), int(t_str)))
            except ValueError:
                raise ValueError(f"{args.pairs}:{lineno}: expected y,t, got {s!r}") from None
    _check_ids(graph, [y for y, _ in pairs], args.pairs)
    ds_times = ds_fit_times(cap) if args.ds is None else []
    if args.ds is None and len(ds_times) < DS_MIN_POINTS:  # the d_s fit would fail after the walk
        raise FitError(f"need at least {DS_MIN_POINTS} fit points, have {len(ds_times)}")
    dw = args.dw if args.dw is not None else estimate_dw(graph, x).value
    # one walk covers the pair times and, without --ds, the d_s points
    walk = walk_kernel(graph, x, [y for y, _ in pairs], [t for _, t in pairs], ds_times)
    samples = sorted(((y, t, float(walk.entries[t][i])) for i, (y, t) in enumerate(pairs)),
                     key=lambda sample: sample[1])  # by time, as the walk reads them
    ds = args.ds if args.ds is not None else fit_ds(walk.diag).value
    fit = fit_regimes(graph, x, samples, ds=ds, dw=dw)
    _write_json(
        {
            "x": x,
            "ds": ds,
            "dw": dw,
            "sub_gaussian": asdict(fit.sub_gaussian) if fit.sub_gaussian else None,
            "gaussian": asdict(fit.gaussian) if fit.gaussian else None,
            "n_floor_excluded": fit.n_floor_excluded,
        },
        args.out,
    )
    return 0


def _cmd_couple(args) -> int:
    graph = read_graph(args.graph)
    if args.couple_command == "run":
        x, y = args.x, args.y
        _check_ids(graph, [x], "--x")
        _check_ids(graph, [y], "--y")
        if x is None or y is None:
            if (x is None) != (y is None):
                raise ValueError("give both --x and --y, or neither")
            x, y = origin_pair(graph)
        walks = run_coupled_walk(graph, x, y, args.n, trials=args.trials,
                                 max_steps=args.max_steps, seed=args.seed)
        valid = int((~walks["truncated"]).sum())
        coupled = int(walks["coupled"].sum())
        payload = {
            "n": args.n,
            "pair": [int(x), int(y)],
            "trials": args.trials,
            "valid": valid,
            "coupled": coupled,
            "probability": coupled / valid if valid else None,
        }
        if args.audit:
            payload["digests"] = [f"{d:016x}" for d in walks["digest"].tolist()]
        _write_json(payload, args.out)
        return 0
    stats = upgrade_statistics(graph, m=args.m, trials=args.trials, n=args.n,
                               seed=args.seed, j=args.j)
    _write_json(stats, args.out)
    return 0


def _cmd_resist(args) -> int:
    from .resistance import face_resistance, resistance_to_infinity

    if args.resist_command == "face":
        source = read_graph(args.graph)
        if args.n > source.level:
            raise ValueError(f"--n {args.n} exceeds the graph's level {source.level}")
        graph = source if args.n == source.level else build_graph(args.n, source.params)
        value = face_resistance(graph, tolerance=args.tol)
        _write_json({"n": args.n, "resistance": value})
        return 0
    graph = read_graph(args.graph)
    levels = list(_parse_value("levels", args.levels, "--"))
    groups = _read_sets(args.set_file)
    _check_ids(graph, [v for group in groups for v in group], args.set_file)
    reports = [
        asdict(resistance_to_infinity(graph, group, levels, tolerance=args.tol))
        for group in groups
    ]
    _write_json({"levels": levels, "reports": reports}, args.out)
    return 0


def _cmd_suite(args) -> int:
    overrides = {
        "seed": args.seed,
        "output_dir": args.output_dir,
        "trials": args.trials,
    }
    if args.levels is not None:
        overrides["levels"] = _parse_value("levels", args.levels)
    if args.experiments:
        overrides["experiments"] = _parse_value("experiments", args.experiments)
    config = config_from_sources(args.config, overrides)
    manifest = run_suite(config, fail_fast=args.fail_fast)
    failed = [n for n, e in manifest.experiments.items() if e["status"] != "ok"]
    print(f"suite {manifest.config_hash}: {len(manifest.experiments)} experiments, "
          f"{len(manifest.artifacts)} artifacts, {manifest.wall_clock_seconds:.1f}s")
    if failed:
        print("failed: " + ", ".join(failed))
        return 1
    return 0


def _cmd_report(args) -> int:
    text, gaps = export_report(args.manifest)
    sys.stdout.write(text)
    if not _read_record(args.manifest, [])["experiments"]:
        return 2
    return 1 if gaps else 0


_HANDLERS = {
    "build": _cmd_build,
    "harnack": _cmd_harnack,
    "hitting": _cmd_hitting,
    "heat": _cmd_heat,
    "couple": _cmd_couple,
    "resist": _cmd_resist,
    "suite": _cmd_suite,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"capacity error: out of memory in '{args.command}'{detail}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # ConvergenceError and FitError among them
        print(f"experiment failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
