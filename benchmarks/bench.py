"""End-to-end and per-layer benchmark of ``carpet suite``.

    python3 benchmarks/bench.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.
Every suite call runs in a fresh interpreter through the public CLI path
``carpetlab.cli.main(["suite", "--config", CFG, "--out", DIR, "--seed", N])``
with ``jobs=1``.  The parent process only spawns, times and checks.

``--trace 0`` repeats untraced suite calls for ``--seconds`` (at least one)
and reports the end-to-end metrics.  ``--trace 1`` makes one untraced call
and then traced calls for ``--seconds`` (at least one); it reports the
per-layer metrics and the tracing overhead.  Children run with one BLAS
thread: the suite at ``jobs=1`` is single-threaded, and a second BLAS thread
on two shared cores bought about 2% of wall time for 27% more CPU time on
carpet3d-scale while making the timings noisier.

Every call is checked: exit code and experiment status, the suite's own
checks (failures other than the workload's known defects count as failed
calls), the frozen references in reference.json, and byte-identical artifacts
across the calls of one run (the determinism guard; a traced run always has a
pair, and an untraced run has one whenever two calls fit in ``--seconds``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 only when the outputs are correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans  # noqa: E402

SETUP_PROBES = 8
RUN_BUDGET_S = 165.0  # a run must end within 180 s


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    # Suite checks that fail at the commit the benchmark was defined on; they
    # are reported on every run but do not make the outputs incorrect.
    known_defects: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("carpet2d-default", HERE / "workloads" / "carpet2d-default.cfg",
                 ("hitting.stable_across_scales",)),
        Workload("carpet3d-scale", HERE / "workloads" / "carpet3d-scale.cfg",
                 ("heat.dw_above_two",)),
        Workload("couple-2d", HERE / "workloads" / "couple-2d.cfg"),
    )
}

class BenchError(RuntimeError):
    """A child process could not produce a measurement."""


@dataclass
class Run:
    workload: Workload
    seed: int
    trace: bool
    setups: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    failed_checks: set = field(default_factory=set)
    checks_total: int = 0
    failed_calls: int = 0

    @property
    def correct(self) -> bool:
        return not self.mismatches and self.failed_calls == 0


def _spawn(argv: list, deadline: float) -> tuple:
    """Run child.py; return its JSON result and the monotonic start time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "child.py"), *argv]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget of the run exhausted")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child exceeded the time budget: {' '.join(argv)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    expected = ROOT / "src" / "carpetlab"
    if Path(result["package"]) != expected:
        raise BenchError(f"imported carpetlab from {result['package']}, not {expected}")
    return result, started


def _probe_setup(workload: Workload, deadline: float) -> float:
    result, started = _spawn(["setup", "--config", str(workload.config)], deadline)
    return result["ready"] - started


def _suite_call(run: Run, out_dir: Path, traced: bool, deadline: float) -> dict:
    argv = ["suite", "--config", str(run.workload.config), "--out", str(out_dir),
            "--seed", str(run.seed)]
    if traced:
        argv.append("--trace")
    result, started = _spawn(argv, deadline)
    run.setups.append(result["ready"] - started)
    result["out"] = out_dir
    _check_call(run, result)
    run.calls.append(result)
    return result


def _check_call(run: Run, result: dict) -> None:
    """Suite checks, experiment status and reference values of one call."""
    out = result["out"]
    with open(out / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    bad = result["exit_code"] != 0
    total = 0
    for exp, entry in manifest["experiments"].items():
        total += 1 + len(entry["checks"])
        if entry["status"] != "ok":
            run.failed_checks.add(f"{exp}.status")
            bad = True
        for check, ok in entry["checks"].items():
            if not ok:
                name = f"{exp}.{check}"
                run.failed_checks.add(name)
                bad = bad or name not in run.workload.known_defects
    run.checks_total = total
    frozen = reference.load_frozen(str(HERE / "reference.json"), run.workload.name)
    misses = reference.compare(reference.extract(str(out)), frozen, run.seed)
    run.mismatches.extend(misses)
    run.failed_calls += bool(bad or misses)


def _differences(a: Path, b: Path) -> list:
    """Names of outputs that are not byte-identical between two suite calls."""
    manifests = []
    for d in (a, b):
        with open(d / "manifest.json", encoding="utf-8") as fh:
            man = json.load(fh)
        man.pop("wall_clock_seconds", None)
        man["config"].pop("output_dir", None)
        manifests.append(man)
    diffs = [] if manifests[0] == manifests[1] else ["manifest.json"]
    names = set(manifests[0]["artifacts"]) | set(manifests[1]["artifacts"])
    for name in sorted(names):
        pa, pb = a / name, b / name
        if not (pa.exists() and pb.exists() and pa.read_bytes() == pb.read_bytes()):
            diffs.append(name)
    return diffs


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Run:
    """One benchmark run of one workload; see the module docstring."""
    run = Run(workload=workload, seed=seed, trace=trace)
    deadline = time.monotonic() + RUN_BUDGET_S
    _probe_setup(workload, deadline)  # warm-up: bytecode caches, file cache
    run.setups.extend(_probe_setup(workload, deadline) for _ in range(SETUP_PROBES))
    start = time.monotonic()
    first = _suite_call(run, work / "call0", False, deadline)
    while True:
        i = len(run.calls)
        if i >= 1 + trace and time.monotonic() - start >= seconds:
            break
        result = _suite_call(run, work / f"call{i}", trace, deadline)
        diffs = _differences(first["out"], result["out"])
        run.mismatches.extend(f"{name}: differs between call 0 and call {i}" for name in diffs)
        shutil.rmtree(result["out"])
    return run


def metrics(run: Run) -> dict:
    """name -> (value, unit) for the end-to-end or the per-layer set."""
    if not run.trace:
        return {
            "suite_s": (statistics.median(c["suite_s"] for c in run.calls), "s"),
            "setup_s": (statistics.median(run.setups), "s"),
            "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in run.calls), "MB"),
        }
    untraced, traced = run.calls[0], run.calls[1:]
    out = {}
    for name in traced[0]["layers"]:
        value = statistics.median(c["layers"][name] for c in traced)
        out[name] = (value, spans.unit_of(name))
    suite_traced = statistics.median(c["suite_s"] for c in traced)
    out["trace.overhead_s"] = (suite_traced - untraced["suite_s"], "s")
    return out


def declared_metrics(trace: bool) -> list:
    """Metric names BENCHMARK.json declares for the end-to-end or per-layer set."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _tail(values: list) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            ranked = sorted(values)
            return f"p{pct:g} {ranked[min(n - 1, int(n * pct / 100))]:.4f} s"
    return "no percentile has 10 samples beyond it"


def render(run: Run, values: dict) -> list:
    """Human-readable report lines: every metric by name and unit."""
    w = run.workload
    lines = [f"workload {w.name} seed {run.seed} trace {int(run.trace)} jobs 1"]
    suite = [c["suite_s"] for c in run.calls if not c.get("layers")]
    lines.append(f"  suite calls: {len(run.calls)} ({len(suite)} untraced); "
                 f"untraced suite_s samples {[round(s, 4) for s in suite]}; {_tail(suite)}")
    for name, (value, unit) in values.items():
        lines.append(f"  {name} = {value!r} {unit}")
    unexpected = sorted(run.failed_checks - set(w.known_defects))
    known = sorted(run.failed_checks & set(w.known_defects))
    lines.append(f"  checks_failed = {len(run.failed_checks)} of checks_total = "
                 f"{run.checks_total} count")
    lines.append(f"  known defects failing: {known or 'none'}; unexpected: {unexpected or 'none'}")
    lines.append(f"  reference_mismatches = {len(run.mismatches)} count")
    lines.extend(f"    mismatch {m}" for m in run.mismatches)
    if run.trace:
        selves = run.calls[-1]["self_by_layer"]
        lines.append("  self seconds by layer (last traced call): "
                     + ", ".join(f"{k} {v:.4f}" for k, v in selves.items()))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=reference.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "carpetlab" / "__init__.py").is_file():
        print(f"no carpetlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            with tempfile.TemporaryDirectory(dir=scratch) as work:
                run = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), Path(work))
                values = metrics(run)
            print("\n".join(render(run, values)), flush=True)
            results.append((run, values))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    declared = declared_metrics(bool(args.trace))
    for run, values in results:
        print(json.dumps({
            "correct": run.correct,
            "attempted": len(run.calls),
            "failed": run.failed_calls,
            "metrics": {k: {"value": values[k][0], "unit": values[k][1]} for k in declared},
        }))
    return 0 if all(run.correct for run, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
