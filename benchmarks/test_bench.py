"""Tests of the benchmark itself, on a tiny suite (2-D, levels 2,3).

    python3 -m pytest benchmarks/test_bench.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import bench
import reference

TINY = """\
d = 2
k = 3
a = 1
levels = 2,3
experiments = build,harnack,hitting,couple,resist
trials = 50
jobs = 1
"""


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    base = tmp_path_factory.mktemp("tiny")
    cfg = base / "tiny.cfg"
    cfg.write_text(TINY)
    # Two levels give one hitting scale and too short a resistance series.
    return bench.Workload("tiny", cfg, ("hitting.stable_across_scales", "resist.ratio_stable_15pct"))


@pytest.fixture(scope="module")
def runs(tiny, tmp_path_factory):
    """One untraced and one traced run of the tiny workload."""
    out = {}
    for trace in (False, True):
        work = tmp_path_factory.mktemp(f"work{int(trace)}")
        run = bench.measure(tiny, 42, 0.0, trace, work)
        out[trace] = (run, bench.metrics(run), work)
    return out


def _declared(section):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(runs, trace, section):
    run, values, _ = runs[trace]
    lines = bench.render(run, values)
    for name, unit in _declared(section):
        assert values[name][1] == unit, name
        assert any(line.startswith(f"  {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name


def test_main_prints_the_contract_line(tiny, monkeypatch, capsys):
    monkeypatch.setitem(bench.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)
    assert bench.main(["--workload", "tiny", "--seconds", "0", "--trace", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 2
    assert [(k, v["unit"]) for k, v in last["metrics"].items()] == _declared("per_layer")


def test_self_times_sum_to_at_most_the_traced_suite_time(runs):
    run, _, _ = runs[True]
    traced = [c for c in run.calls if "layers" in c]
    assert traced
    for call in traced:
        assert sum(call["self_by_layer"].values()) <= call["suite_s"]


def test_reference_check_flags_a_perturbed_value(runs):
    run, _, work = runs[False]
    found = reference.extract(str(work / "call0"))
    assert {"harnack.C_H.3", "resist.face.3", "resist.R_N.3", "hitting.min.1",
            "couple.p_hat"} <= set(found)
    assert reference.compare(found, dict(found), 42) == []

    frozen = dict(found)
    frozen["harnack.C_H.3"] *= 1 + 1e-10
    assert reference.compare(found, frozen, 42) == []
    frozen["harnack.C_H.3"] *= 1 + 1e-7
    misses = reference.compare(found, frozen, 42)
    assert len(misses) == 1 and misses[0].startswith("harnack.C_H.3")

    s, n = found["couple.p_hat"]
    frozen = dict(found, **{"couple.p_hat": [s // 2, n]})
    assert len(reference.compare(found, frozen, 42)) == 1
    # seeded values are frozen for the default seed only
    assert reference.compare(found, frozen, 7) == []


def test_perturbed_reference_fails_the_run(runs, tiny, monkeypatch, capsys):
    _, _, work = runs[False]
    frozen = reference.extract(str(work / "call0"))
    frozen["resist.face.2"] *= 1.001
    monkeypatch.setitem(bench.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)
    monkeypatch.setattr(reference, "load_frozen", lambda path, workload: frozen)
    assert bench.main(["--workload", "tiny", "--seconds", "0"]) == 1
    out = capsys.readouterr().out
    assert "reference_mismatches = 1 count" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_determinism_guard_flags_a_changed_artifact(runs, tmp_path):
    _, _, work = runs[False]
    a = work / "call0"
    b = tmp_path / "copy"
    shutil.copytree(a, b)
    assert bench._differences(a, b) == []
    path = b / "harnack.csv"
    path.write_bytes(path.read_bytes() + b"\n")
    assert bench._differences(a, b) == ["harnack.csv"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/bench.py", "--workload", "couple-2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
