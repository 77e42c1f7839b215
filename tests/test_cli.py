import json
import os
import subprocess
import sys

import numpy as np
import pytest

import carpetlab
from carpetlab import cli, coupling, harmonic, heat
from carpetlab.cli import main
from carpetlab.coupling import run_coupled_walk
from carpetlab.geometry import build_graph, read_graph, write_graph
from carpetlab.harmonic import HittingSpec, hitting_probability
from carpetlab.heat import FitError, TransitionOperator
from carpetlab.resistance import face_resistance

from conftest import diag_fit, vid


@pytest.fixture(scope="module")
def g3_file(tmp_path_factory, g3):
    path = tmp_path_factory.mktemp("cli") / "g3.txt"
    write_graph(g3, path)
    return str(path)


@pytest.fixture(scope="module")
def g4_file(tmp_path_factory, g4):
    path = tmp_path_factory.mktemp("cli") / "g4.txt"
    write_graph(g4, path)
    return str(path)


@pytest.fixture(scope="module")
def g3d_file(tmp_path_factory, g3d):
    path = tmp_path_factory.mktemp("cli") / "g3d.txt"
    write_graph(g3d, path)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ------------------------------------------------------------------ plumbing


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["build", "--frobnicate"])
    assert exc.value.code == 2


def test_console_script_is_wired():
    # The child imports the same package as this test, wherever it lies.
    src = os.path.dirname(os.path.dirname(carpetlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "carpetlab.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "carpet" in proc.stdout


# --------------------------------------------------------------------- build


def test_build_and_read(tmp_path, capsys):
    out = tmp_path / "g2.txt"
    assert main(["build", "--n", "2", "--out", str(out)]) == 0
    assert "64 vertices" in capsys.readouterr().out
    g = read_graph(out)
    assert g.num_vertices == 64 and g.num_edges == 88


def test_build_over_budget(tmp_path, capsys):
    code = main(["build", "--n", "9", "--out", str(tmp_path / "x.txt"), "--budget", "1000"])
    assert code == 3
    assert "capacity error" in capsys.readouterr().err


def test_build_beyond_int32_ids(tmp_path, capsys):
    # A budget raised past the int32 id limit still refuses the level-11
    # planar carpet (8^11 vertices) before any allocation.
    out = tmp_path / "x.txt"
    code = main(["build", "--n", "11", "--out", str(out), "--budget", str(10**10)])
    assert code == 3
    assert "beyond int32 ids" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("error, detail", [
    (MemoryError("Unable to allocate 4.58 GiB for an array"), ": Unable to allocate 4.58 GiB for an array"),
    (MemoryError(), ""),
])
def test_build_out_of_memory(tmp_path, capsys, monkeypatch, error, detail):
    # A build inside the vertex budget that the host cannot hold (the 4-D
    # level-4 carpet has 40,960,000 vertices) is a capacity error, not a
    # traceback; build_graph raises instead of allocating.
    def build_graph(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "build_graph", build_graph)
    out = tmp_path / "g.txt"
    argv = ["build", "--d", "4", "--k", "3", "--a", "1", "--n", "4", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"capacity error: out of memory in 'build'{detail}\n"
    assert not out.exists()


def test_build_bad_params(tmp_path, capsys):
    code = main(["build", "--k", "4", "--n", "1", "--out", str(tmp_path / "x.txt")])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_missing_graph_file(capsys):
    assert main(["harnack", "--graph", "/nonexistent/g.txt", "--level", "2"]) == 2


def test_corrupt_graph_file(tmp_path, capsys, g3_file):
    # An edge id past the vertex count, and a dropped edge with the header
    # count adjusted to match: both are usage errors, not tracebacks or runs.
    with open(g3_file, encoding="ascii") as fh:
        lines = fh.readlines()
    head = lines[0].split()
    dropped = " ".join(head[:-1] + [str(int(head[-1]) - 1)]) + "\n"
    first_edge = next(i for i, line in enumerate(lines) if line.startswith("e "))
    variants = {
        "range": lines[:first_edge] + ["e 0 99999\n"] + lines[first_edge + 1 :],
        "dropped": [dropped] + lines[1:first_edge] + lines[first_edge + 1 :],
    }
    for name, text in variants.items():
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(text))
        assert main(["harnack", "--graph", str(path), "--level", "2"]) == 2
        assert "usage error" in capsys.readouterr().err


# ------------------------------------------------------------------- harnack


def test_harnack_json(capsys, g3_file):
    code, payload = run_json(capsys, ["harnack", "--graph", g3_file, "--level", "2"])
    assert code == 0
    assert payload["level"] == 2
    assert payload["constant"] == pytest.approx(1.3843180284844647, rel=1e-8)
    assert payload["rho"] == pytest.approx(0.06361285090618535, rel=1e-6)
    assert len(payload["witness"]) == 3


def test_harnack_level_too_big(capsys, g3_file):
    assert main(["harnack", "--graph", g3_file, "--level", "7"]) == 2


# ------------------------------------------------------------------- hitting


def test_hitting_single_probe(capsys, g4_file, g4):
    x = vid(g4, 26, 26)
    y = vid(g4, 26, 31)
    code, payload = run_json(
        capsys, ["hitting", "--graph", g4_file, "--x", str(x), "--y", str(y), "--r", "3"]
    )
    assert code == 0
    assert 0.0 < payload["probability"] < 1.0


def test_hitting_annulus_sweep(capsys, g4_file, g4):
    x = vid(g4, 26, 26)
    code, payload = run_json(
        capsys, ["hitting", "--graph", g4_file, "--x", str(x), "--r", "3"]
    )
    assert code == 0
    # Every vertex whose distance from x lies in [r, 2r] is probed.
    delta = (g4.coords - g4.coords[x]).astype(float)
    dist = np.sqrt((delta ** 2).sum(axis=1))
    assert payload["count"] == int(((dist >= 3) & (dist <= 6)).sum())
    assert 0.0 < payload["min"] <= payload["mean"] <= 1.0


def test_hitting_annulus_sweep_solves_once(capsys, monkeypatch, g4_file, g4):
    # Every start around one center reads one solve, and the sweep prints
    # what one hitting_probability call per start gives, bit for bit.
    x = vid(g4, 26, 26)
    built = []

    class CountingSystem(harmonic.DirichletSystem):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harmonic, "DirichletSystem", CountingSystem)
    code, payload = run_json(capsys, ["hitting", "--graph", g4_file, "--x", str(x), "--r", "3"])
    assert code == 0
    assert len(built) == 1
    spec = HittingSpec(x=x, r=3.0)
    values = [hitting_probability(g4, spec, p["y"], tolerance=1e-10) for p in payload["probes"]]
    assert len(built) == 1 + len(values)
    assert payload == {
        "r": 3.0, "count": len(values), "min": min(values), "mean": sum(values) / len(values),
        "probes": [{"x": x, "y": p["y"], "probability": v} for p, v in zip(payload["probes"], values)],
    }


def test_hitting_y_without_x(capsys, g4_file):
    assert main(["hitting", "--graph", g4_file, "--y", "7", "--r", "3"]) == 2


def test_hitting_rejects_bad_vertex_ids(capsys, g4_file):
    # Out of range, and negative (which numpy would silently wrap around).
    for ids in (["--x", "99999"], ["--x", "-5"], ["--x", "0", "--y", "4096"]):
        assert main(["hitting", "--graph", g4_file, "--r", "3", *ids]) == 2
        assert "outside [0, 4096)" in capsys.readouterr().err


def test_hitting_catalog_mode(capsys, g4_file):
    code, payload = run_json(
        capsys, ["hitting", "--graph", g4_file, "--r", "3", "--count", "5", "--seed", "7"]
    )
    assert code == 0
    assert payload["count"] == 5
    assert len(payload["probes"]) == 5


def test_hitting_catalog_rejects_empty_count(capsys, g4_file):
    assert main(["hitting", "--graph", g4_file, "--r", "3", "--count", "0"]) == 2
    assert "count must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--r", "-2"], "inner radius must be positive"),
    (["--r", "3", "--c1", "0.5"], "radius factors must satisfy c2 > c1 > 1"),
    (["--r", "inf"], "radii must be finite, got r=inf, c1=2.0, c2=4.0"),
    (["--r", "nan"], "radii must be finite, got r=nan, c1=2.0, c2=4.0"),
])
def test_hitting_catalog_checks_radii_before_drawing(capsys, g4_file, args, message):
    # The catalog checks r, c1 and c2 as a probe would, before its first
    # draw: no stream error for a negative radius, no futile draws from an
    # empty annulus.
    assert main(["hitting", "--graph", g4_file, *args]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize("args, message", [
    (["--r", "-2"], "inner radius must be positive"),
    (["--r", "3", "--c1", "0.5"], "radius factors must satisfy c2 > c1 > 1"),
    (["--r", "3", "--c2", "inf"], "radii must be finite, got r=3.0, c1=2.0, c2=inf"),
])
def test_hitting_annulus_checks_radii_before_scanning(capsys, g4_file, g4, args, message):
    # With --x and no --y the radii are checked before the annulus is
    # scanned, so a bad radius is named rather than reported as an empty annulus.
    assert main(["hitting", "--graph", g4_file, "--x", str(vid(g4, 26, 26)), *args]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize("args, message", [
    (["--r", "nan", "--y", "1"], "radii must be finite, got r=nan, c1=2.0, c2=4.0"),
    (["--r", "inf", "--y", "5"], "radii must be finite, got r=inf, c1=2.0, c2=4.0"),
    (["--r", "3", "--c2", "inf", "--y", "5"], "radii must be finite, got r=3.0, c1=2.0, c2=inf"),
    (["--r", "3", "--c1", "nan", "--y", "5"], "radii must be finite, got r=3.0, c1=nan, c2=4.0"),
])
def test_hitting_pair_rejects_non_finite_radii(capsys, g3_file, args, message):
    # A NaN radius used to print "r": NaN, which is not JSON, and an infinite
    # one died in an OverflowError traceback.
    assert main(["hitting", "--graph", g3_file, "--x", "0", *args]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


# ---------------------------------------------------------------------- heat


def test_heat_diag(tmp_path, capsys, g4_file):
    csv = tmp_path / "diag.csv"
    code, payload = run_json(
        capsys, ["heat", "diag", "--graph", g4_file, "--tmax", "64", "--out", str(csv)]
    )
    assert code == 0
    assert payload["ds"]["value"] == pytest.approx(1.78, abs=0.05)
    assert payload["dw"]["value"] == pytest.approx(2.09, abs=0.1)
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,p_tt"
    assert len(lines) == 65


def test_heat_diag_fits_from_its_own_series(capsys, monkeypatch, g4_file):
    # one walk to max(tmax, 256) serves both the printed series and the d_s
    # points at 16..512 (squared sums at 8..256), whether or not tmax reaches them
    steps = []
    step = TransitionOperator.step
    monkeypatch.setattr(TransitionOperator, "step", lambda op, d: steps.append(1) or step(op, d))
    _, short = run_json(capsys, ["heat", "diag", "--graph", g4_file, "--tmax", "64"])
    assert len(steps) == 256
    steps.clear()
    _, covered = run_json(capsys, ["heat", "diag", "--graph", g4_file, "--tmax", "512"])
    assert len(steps) == 512
    assert covered["ds"] == short["ds"]


def test_heat_regime(tmp_path, capsys, g4_file, g4):
    x = vid(g4, 26, 26)
    pairs = tmp_path / "pairs.csv"
    rows = []
    for dy in (1, 2, 3, 4):
        y = vid(g4, 26, 26 + dy)
        rows += [f"{y},16", f"{y},32"]
    pairs.write_text("y,t\n" + "\n".join(rows) + "\n")
    code, payload = run_json(
        capsys,
        ["heat", "regime", "--graph", g4_file, "--x", str(x), "--pairs", str(pairs),
         "--ds", "1.78", "--dw", "2.09"],
    )
    assert code == 0
    assert payload["sub_gaussian"]["n_points"] == 8
    assert payload["gaussian"] is None


def test_heat_regime_walks_the_kernel_once(tmp_path, capsys, monkeypatch, g4_file, g4):
    # Without --ds the d_s points (16..512, squared sums at 8..256) and the
    # pair times (64, 128) share one walk of 256 steps; the estimate equals
    # the fit over a walk of its own.
    x = vid(g4, 26, 26)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("".join(f"{vid(g4, 26, 26 + dy)},{t}\n" for dy in (1, 2, 3) for t in (64, 128)))
    steps = []
    step = TransitionOperator.step
    monkeypatch.setattr(TransitionOperator, "step", lambda op, d: steps.append(1) or step(op, d))
    code, payload = run_json(
        capsys,
        ["heat", "regime", "--graph", g4_file, "--x", str(x), "--pairs", str(pairs), "--dw", "2.09"],
    )
    assert code == 0
    assert len(steps) == 256
    monkeypatch.setattr(TransitionOperator, "step", step)
    assert payload["ds"] == diag_fit(g4, x).value
    assert payload["sub_gaussian"]["n_points"] == 6


def test_heat_regime_rejects_bad_pair_lines(tmp_path, capsys, g4_file, g4):
    x = vid(g4, 26, 26)
    pairs = tmp_path / "pairs.csv"
    argv = ["heat", "regime", "--graph", g4_file, "--x", str(x), "--pairs", str(pairs),
            "--ds", "1.78", "--dw", "2.09"]
    # The source at t = 0 used to die in fit_regimes with a ZeroDivisionError traceback.
    pairs.write_text(f"{x},16\n{x},0\n")
    assert main(argv) == 2
    assert "usage error: sample times must be at least 1, got 0" in capsys.readouterr().err
    pairs.write_text(f"y,t\n{x},16,3\n")
    assert main(argv) == 2
    assert f"usage error: {pairs}:2: expected y,t, got '{x},16,3'" in capsys.readouterr().err


@pytest.mark.parametrize("exponents, message", [
    (["--ds", "nan", "--dw", "2.09"], "ds=nan, dw=2.09"),
    (["--ds", "1.78", "--dw", "nan"], "ds=1.78, dw=nan"),
    (["--ds", "1.78", "--dw", "inf"], "ds=1.78, dw=inf"),
])
def test_heat_regime_rejects_non_finite_exponents(tmp_path, capsys, g4_file, g4, exponents, message):
    # NaN used to give NaN points and fits with exit 0; an infinite d_w
    # failed the fit with "all abscissae coincide", exit 1.
    x = vid(g4, 26, 26)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"{vid(g4, 26, 29)},16\n{vid(g4, 26, 30)},32\n")
    argv = ["heat", "regime", "--graph", g4_file, "--x", str(x), "--pairs", str(pairs), *exponents]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"usage error: exponents must be finite, got {message}\n"


def test_heat_regime_refuses_a_short_ds_fit_before_the_walk(tmp_path, capsys, monkeypatch, g3_file):
    # With --dw but no --ds the level rule does not apply, and the level-3
    # file's saturation time leaves only the d_s fit times 16, 32 and 64:
    # the fit is refused before the walk to t = 100000, not after it.
    def no_walk(*args, **kwargs):
        raise AssertionError("walk_kernel was called")

    monkeypatch.setattr(heat, "walk_kernel", no_walk)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("40,100000\n")
    argv = ["heat", "regime", "--graph", g3_file, "--x", "40", "--pairs", str(pairs), "--dw", "2.09"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "experiment failure: need at least 4 fit points, have 3\n"


def test_heat_rejects_bad_vertex_ids(tmp_path, capsys, g4_file):
    assert main(["heat", "diag", "--graph", g4_file, "--x", "99999", "--tmax", "8"]) == 2
    assert "--x: vertex id 99999 is outside [0, 4096)" in capsys.readouterr().err
    # A negative --tmax would slice the series from its end instead of failing.
    for tmax in ("0", "-5"):
        assert main(["heat", "diag", "--graph", g4_file, "--tmax", tmax, "--out",
                     str(tmp_path / "diag.csv")]) == 2
        assert f"usage error: --tmax must be at least 1, got {tmax}" in capsys.readouterr().err
    assert not (tmp_path / "diag.csv").exists()
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,16\n-3,32\n")
    argv = ["heat", "regime", "--graph", g4_file, "--x", "0", "--pairs", str(pairs),
            "--ds", "1.78", "--dw", "2.09"]
    assert main(argv) == 2
    assert "vertex id -3 is outside" in capsys.readouterr().err


def test_id_errors_are_the_library_check_named_by_flag(capsys, g4_file, g4):
    # The CLI runs the graph's own range check and only names the flag.
    with pytest.raises(ValueError) as library:
        g4.check_ids([99999])
    assert main(["heat", "diag", "--graph", g4_file, "--x", "99999", "--tmax", "8"]) == 2
    assert capsys.readouterr().err == f"usage error: --x: {library.value}\n"


def test_heat_refuses_before_the_walk(tmp_path, capsys, monkeypatch, g3_file, g4_file, g4):
    # The level rule and the d_w fit both come before the walk: a level-3
    # file used to walk all of --tmax before its fit failed.
    steps = []
    step = TransitionOperator.step
    monkeypatch.setattr(TransitionOperator, "step", lambda op, d: steps.append(1) or step(op, d))
    csv = tmp_path / "diag.csv"
    assert main(["heat", "diag", "--graph", g3_file, "--tmax", "2000", "--out", str(csv)]) == 2
    assert capsys.readouterr().err == "usage error: heat needs a top level of at least 4, got 3\n"
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,16\n")
    assert main(["heat", "regime", "--graph", g3_file, "--pairs", str(pairs), "--ds", "1.78"]) == 2
    assert capsys.readouterr().err == "usage error: heat needs a top level of at least 4, got 3\n"
    # (78, 78) has no room for a radius k^m on the level-4 window.
    x = vid(g4, 78, 78)
    assert main(["heat", "diag", "--graph", g4_file, "--x", str(x), "--tmax", "2000"]) == 1
    assert capsys.readouterr().err == "experiment failure: need at least 3 radii, have 0\n"
    assert steps == []
    assert not csv.exists()


# -------------------------------------------------------------------- couple


def test_couple_run_default_pair(capsys, g3_file, g3):
    code, payload = run_json(
        capsys, ["couple", "run", "--graph", g3_file, "--n", "2", "--trials", "40"]
    )
    assert code == 0
    assert payload["pair"] == [vid(g3, 0, 0), vid(g3, 0, 1)]
    assert payload["valid"] == 40
    assert payload["probability"] >= 0.05


def test_couple_run_audit(capsys, g3_file):
    code, payload = run_json(
        capsys,
        ["couple", "run", "--graph", g3_file, "--n", "2", "--trials", "8", "--audit"],
    )
    assert code == 0
    assert len(payload["digests"]) == 8
    assert all(len(d) == 16 for d in payload["digests"])


def test_couple_run_agrees_with_the_suite(capsys, tmp_path, g3_file, g3):
    # The suite's couple experiment runs the default pair of `couple run` on
    # the same level-3 carpet: same trials, same counts.
    code, run = run_json(capsys, ["couple", "run", "--graph", g3_file, "--n", "2",
                                  "--trials", "300", "--seed", "7", "--audit"])
    assert code == 0
    assert main(["suite", "--levels", "2,3", "--experiments", "couple", "--trials", "300",
                 "--seed", "7", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    suite = json.loads((tmp_path / "couple.json").read_text())
    assert (suite["n"], suite["pair"]) == (run["n"], run["pair"])
    for key in ("valid", "coupled", "probability"):
        assert suite[key] == run[key]
    walks = run_coupled_walk(g3, *run["pair"], 2, trials=300, seed=7)
    assert run["digests"] == [f"{d:016x}" for d in walks["digest"].tolist()]
    assert run["digests"][:3] == ["d492f41d00418dbe", "0378e88c9976ed90", "42649460eabf73f5"]


def test_couple_run_needs_both_ids(capsys, g3_file):
    assert main(["couple", "run", "--graph", g3_file, "--n", "2", "--x", "0"]) == 2


def test_couple_run_rejects_bad_vertex_ids(capsys, g3_file):
    for ids in (["--x", "0", "--y", "700"], ["--x", "-1", "--y", "1"]):
        assert main(["couple", "run", "--graph", g3_file, "--n", "2", *ids]) == 2
        assert "outside [0, 512)" in capsys.readouterr().err


def test_couple_run_rejects_bad_counts(capsys, g3_file):
    base = ["couple", "run", "--graph", g3_file]
    for extra, message in (
        (["--n", "2", "--trials", "-5"], "trials must be at least 1"),
        (["--n", "2", "--max-steps", "-3"], "max_steps must be at least 1"),
        (["--n", "0"], "box level n must be at least 1"),
    ):
        assert main([*base, *extra]) == 2
        assert message in capsys.readouterr().err


def test_more_trials_than_streams_are_a_usage_error(capsys, g3_file, tmp_path, monkeypatch):
    # Refused by the checks, before any coupler or trial array exists.
    def no_coupler(*args, **kwargs):
        pytest.fail("built a coupler for a run it must refuse")

    monkeypatch.setattr(coupling, "_Coupler", no_coupler)
    out = tmp_path / "artifacts"
    for argv in (["couple", "run", "--graph", g3_file, "--n", "2"],
                 ["couple", "upgrade", "--graph", g3_file, "--m", "0", "--n", "2"],
                 ["suite", "--levels", "2,3", "--experiments", "couple", "--out", str(out)]):
        assert main([*argv, "--trials", "4294967297"]) == 2
        assert capsys.readouterr().err == "usage error: trials must be at most 2^32, got 4294967297\n"
    assert not out.exists()


def test_couple_upgrade_rejects_bad_levels(capsys, g3_file):
    base = ["couple", "upgrade", "--graph", g3_file, "--n", "2", "--trials", "5"]
    for extra, message in (
        (["--m", "-1"], "association level m must be nonnegative"),
        (["--m", "0", "--j", "0"], "renewal count j must be at least 1"),
        (["--m", "0", "--n", "0"], "box level n must be at least 1, got 0"),
    ):
        assert main([*base, *extra]) == 2
        assert message in capsys.readouterr().err


def test_couple_upgrade(capsys, g3_file):
    code, payload = run_json(
        capsys,
        ["couple", "upgrade", "--graph", g3_file, "--m", "0", "--n", "2", "--trials", "50"],
    )
    assert code == 0
    assert payload["trials"] == 50
    assert 0.0 <= payload["probability"] <= 1.0


# -------------------------------------------------------------------- resist


def test_resist_face(capsys, g3_file):
    code, payload = run_json(capsys, ["resist", "face", "--graph", g3_file, "--n", "2"])
    assert code == 0
    assert payload["resistance"] == pytest.approx(1.657261410788382, rel=1e-9)


def test_resist_face_prints_the_shared_json_format(capsys, g3, g3_file):
    # Keys sorted, indent 1 and a closing newline, as every other subcommand prints.
    assert main(["resist", "face", "--graph", g3_file, "--n", "3"]) == 0
    out = capsys.readouterr().out
    payload = {"n": 3, "resistance": face_resistance(g3)}
    assert out == json.dumps(payload, sort_keys=True, indent=1) + "\n"
    assert out.startswith('{\n "n": 3,\n "resistance": ')


def test_resist_face_reuses_the_graph_it_read(capsys, monkeypatch, g3, g3_file):
    # --n at the file's level solves on the graph read_graph built, with no second build.
    builds = []
    monkeypatch.setattr(cli, "build_graph", lambda *a, **kw: builds.append(a) or build_graph(*a, **kw))
    code, payload = run_json(capsys, ["resist", "face", "--graph", g3_file, "--n", "3"])
    assert (code, builds) == (0, [])
    assert payload["resistance"] == face_resistance(g3)
    code, payload = run_json(capsys, ["resist", "face", "--graph", g3_file, "--n", "2"])
    assert (code, len(builds)) == (0, 1)
    assert payload["resistance"] == pytest.approx(1.657261410788382, rel=1e-9)


def test_resist_face_refuses_a_level_above_the_graph(capsys, g3_file):
    # The file gives more than (d, k, a): as harnack --level, --n stays within its level.
    assert main(["resist", "face", "--graph", g3_file, "--n", "4"]) == 2
    assert "usage error: --n 4 exceeds the graph's level 3" in capsys.readouterr().err


def test_resist_infinity(tmp_path, capsys, g3d_file):
    sets = tmp_path / "targets.txt"
    sets.write_text("0\n\n0\n1\n2\n")  # two groups split by the blank line
    code, payload = run_json(
        capsys,
        ["resist", "infinity", "--graph", g3d_file, "--set", str(sets),
         "--levels", "1,2,3"],
    )
    assert code == 0
    assert len(payload["reports"]) == 2
    first = payload["reports"][0]
    assert not first["divergent"]
    assert first["extrapolated"] == pytest.approx(0.7642375536559681, rel=1e-6)


def test_resist_infinity_rejects_bad_vertex_ids(tmp_path, capsys, g3_file):
    sets = tmp_path / "targets.txt"
    sets.write_text("0\n\n999\n")
    argv = ["resist", "infinity", "--graph", g3_file, "--set", str(sets), "--levels", "1,2"]
    assert main(argv) == 2
    assert "vertex id 999 is outside [0, 512)" in capsys.readouterr().err
    sets.write_text("0\n\nx\n")
    assert main(argv) == 2
    assert f"usage error: {sets}:3: expected a vertex id, got 'x'" in capsys.readouterr().err
    sets.write_text("0\n")
    assert main([*argv[:-1], "1,x"]) == 2
    assert "usage error: --levels: invalid literal for int() with base 10: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "\n\n  \n"])
def test_resist_infinity_rejects_a_set_file_without_ids(tmp_path, capsys, g3_file, text):
    # It used to exit 0 with "reports": [].
    sets = tmp_path / "sets.txt"
    sets.write_text(text)
    argv = ["resist", "infinity", "--graph", g3_file, "--set", str(sets), "--levels", "1,2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"usage error: {sets}: no vertex id\n"


def test_resist_infinity_divergent(tmp_path, capsys, g4_file):
    sets = tmp_path / "targets.txt"
    sets.write_text("0\n")
    code, payload = run_json(
        capsys,
        ["resist", "infinity", "--graph", g4_file, "--set", str(sets),
         "--levels", "1,2,3,4"],
    )
    assert code == 0
    assert payload["reports"][0]["divergent"]
    assert payload["reports"][0]["extrapolated"] is None
    # A repeated level would end in a 0 increment and a fake finite limit.
    argv = ["resist", "infinity", "--graph", g4_file, "--set", str(sets), "--levels", "3,4,4"]
    assert main(argv) == 2
    assert "usage error: ground level 4 is repeated" in capsys.readouterr().err


# --------------------------------------------------------------- suite/report


def test_suite_and_report(tmp_path, capsys):
    out = tmp_path / "artifacts"
    out.mkdir()
    code = main([
        "suite", "--levels", "2,3", "--experiments", "build,resist",
        "--trials", "30", "--out", str(out),
    ])
    assert code == 0
    assert "2 experiments" in capsys.readouterr().out
    manifest = out / "manifest.json"
    assert manifest.exists()

    assert main(["report", "--manifest", str(manifest)]) == 0
    text = capsys.readouterr().out
    assert "[build]" in text and "[resist]" in text

    # A listed artifact that disappears is a reporting gap: exit 1.
    os.remove(out / "build.csv")
    assert main(["report", "--manifest", str(manifest)]) == 1
    capsys.readouterr()


def test_suite_reports_failures(tmp_path, capsys, monkeypatch):
    # A heat experiment whose exit-time fit fails at run time.
    def fail_dw(*args, **kwargs):
        raise FitError("need at least 3 radii, have 2")

    monkeypatch.setattr(heat, "estimate_dw", fail_dw)
    out = tmp_path / "artifacts"
    out.mkdir()
    code = main([
        "suite", "--levels", "2,4", "--experiments", "build,heat", "--trials", "30", "--out", str(out),
    ])
    assert code == 1
    assert "failed: heat" in capsys.readouterr().out


@pytest.mark.parametrize("config, message", [
    # Both used to pass the config check and fail at run time: heat with
    # "need at least 3 radii, have 2", couple with "vertex 1 is outside the
    # level-0 box".
    ("k = 5\nlevels = 3\nexperiments = build,heat\n", "heat needs a top level of at least 4, got 3"),
    ("levels = 2\nexperiments = build,couple\n", "couple needs a top level of at least 3, got 2"),
])
def test_suite_refuses_levels_that_fail_at_run_time(tmp_path, capsys, config, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "artifacts"
    assert main(["suite", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--experiments", "build,harnak"], "unknown experiment 'harnak'"),
    (["--trials", "0"], "trials must be at least 1"),
    (["--levels", ","], "levels must name at least one level"),
    (["--levels=-1"], "levels must be nonnegative"),
    (["--levels", "0", "--experiments", "build,resist"], "resist needs a top level of at least 1"),
    (["--levels", "1", "--experiments", "couple"], "couple needs a top level of at least 3"),
    (["--levels", "3", "--experiments", "heat"], "heat needs a top level of at least 4"),
    (["--levels", "2,x"], "usage error: levels: invalid literal for int() with base 10: 'x'"),
])
def test_suite_rejects_bad_config_before_running(tmp_path, capsys, argv, message):
    out = tmp_path / "artifacts"
    assert main(["suite", "--levels", "2,3", "--out", str(out), *argv]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()  # rejected before any experiment ran


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_solver_tolerance_must_lie_in_the_unit_interval(tmp_path, capsys, g4_file, g4, tol):
    sets = tmp_path / "targets.txt"
    sets.write_text("0\n")
    probe = ["--x", str(vid(g4, 26, 26)), "--y", str(vid(g4, 26, 31)), "--r", "3"]
    for argv in (["harnack", "--graph", g4_file, "--level", "2"],
                 ["hitting", "--graph", g4_file, *probe],
                 ["resist", "face", "--graph", g4_file, "--n", "2"],
                 ["resist", "infinity", "--graph", g4_file, "--set", str(sets), "--levels", "1,2"]):
        assert main([*argv, f"--tol={tol}"]) == 2
        assert (f"usage error: tolerance must be in (0, 1), got {float(tol)!r}"
                in capsys.readouterr().err)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"tolerance = {tol}\n")
    out = tmp_path / "artifacts"
    assert main(["suite", "--config", str(cfg), "--out", str(out)]) == 2
    assert "tolerance must be in (0, 1)" in capsys.readouterr().err
    assert not out.exists()  # rejected before any experiment ran


def test_suite_has_no_worker_count(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--jobs", "2", "--out", str(tmp_path / "a")])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jobs = 2\n")
    assert main(["suite", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
    assert "unknown config key 'jobs'" in capsys.readouterr().err


def test_report_empty_manifest(tmp_path, capsys):
    out = tmp_path / "empty"
    out.mkdir()
    assert main(["suite", "--experiments", ",", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--manifest", str(out / "manifest.json")]) == 2
    assert "nothing to report" in capsys.readouterr().out


def test_report_exit_code_follows_the_manifest_not_the_text(tmp_path, capsys):
    # A complete manifest exits 0 even when an error it quotes reads like the
    # empty-manifest line; only a manifest without experiments exits 2.
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "config_hash": "0" * 16, "version": carpetlab.__version__, "artifacts": [],
        "experiments": {"build": {"status": "failed", "error": "ValueError: nothing to report here"}},
    }))
    assert main(["report", "--manifest", str(manifest)]) == 0
    assert "  error: ValueError: nothing to report here" in capsys.readouterr().out


def test_report_missing_manifest(capsys):
    assert main(["report", "--manifest", "/nonexistent/manifest.json"]) == 2


@pytest.mark.parametrize("body, message", [
    ("{}", "missing field 'config_hash'"),
    ("[1]", "expected a JSON object, got list"),
])
def test_report_rejects_a_malformed_manifest(tmp_path, capsys, body, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(body)
    assert main(["report", "--manifest", str(manifest)]) == 2
    assert capsys.readouterr().err == f"usage error: {manifest}: {message}\n"


def test_report_rejects_an_artifact_without_a_printed_field(tmp_path, capsys):
    # Every heat.json the suite writes records its kernel walk; one without
    # it is rejected by name, not skipped or crashed on.
    out = tmp_path / "artifacts"
    assert main(["suite", "--levels", "4", "--experiments", "heat", "--out", str(out)]) == 0
    heat = out / "heat.json"
    data = json.loads(heat.read_text())
    del data["walk"]
    heat.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", "--manifest", str(out / "manifest.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {heat}: missing field 'walk'\n"
    assert captured.out == ""


@pytest.mark.parametrize("field, value, reason", [
    ("walk", 5, "'int' object is not subscriptable"),
    ("reversibility_gap", "small", "Unknown format code 'e' for object of type 'str'"),
])
def test_report_rejects_a_field_of_the_wrong_type(tmp_path, capsys, field, value, reason):
    # A wrong-typed field is a usage error naming the file and the field,
    # not a traceback.
    out = tmp_path / "artifacts"
    assert main(["suite", "--levels", "4", "--experiments", "heat", "--out", str(out)]) == 0
    heat = out / "heat.json"
    data = json.loads(heat.read_text())
    if field == "walk":
        data["walk"] = value
    else:
        data["walk"][field] = value
    heat.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", "--manifest", str(out / "manifest.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {heat}: field {field!r} has the wrong type ({reason})\n"
    assert captured.out == ""
