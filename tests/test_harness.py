import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from carpetlab import heat, linalg
from carpetlab.harness import (
    ExperimentConfig,
    config_from_sources,
    config_hash,
    export_report,
    parse_config_file,
    run_suite,
)
from carpetlab.heat import FitError, TransitionOperator


def tiny_config(tmp_path, **kw) -> ExperimentConfig:
    base = dict(
        levels=(2, 4),
        experiments=("build", "harnack", "hitting", "couple", "resist"),
        trials=60,
        output_dir=str(tmp_path),
    )
    base.update(kw)
    return ExperimentConfig(**base)


# -------------------------------------------------------------------- config


def test_config_defaults():
    cfg = ExperimentConfig()
    assert cfg.d == 2 and cfg.k == 3 and cfg.a == 1
    assert cfg.levels == (2, 3, 4)
    assert cfg.experiments == ("build", "harnack", "heat", "hitting", "couple", "resist")
    assert cfg.seed == 42
    assert config_hash(cfg) == "eaa01555ec798ff5"


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# survey setup\n"
        "k = 3\n"
        "levels = 2, 3\n"
        "experiments = build, resist\n"
        "tolerance = 1e-8\n"
        "seed=7\n"
    )
    cfg = config_from_sources(str(path))
    assert cfg.levels == (2, 3)
    assert cfg.experiments == ("build", "resist")
    assert cfg.tolerance == 1e-8
    assert cfg.seed == 7
    assert cfg.d == 2  # untouched default


def test_config_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 7\ntrials = 40\n")
    cfg = config_from_sources(str(path), overrides={"seed": 9, "trials": None})
    assert cfg.seed == 9
    assert cfg.trials == 40  # None override means "not given"


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("levles = 2, 3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_file(str(path))
    path.write_text("just words\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config_file(str(path))


def test_config_values_take_their_default_types(tmp_path):
    # Every field parses as its default's type, a tuple as a comma list, so
    # writing the defaults out and reading them back gives the defaults.
    defaults = ExperimentConfig()
    path = tmp_path / "run.cfg"
    path.write_text("".join(
        f"{key} = {','.join(map(str, v)) if isinstance(v, tuple) else v}\n"
        for key, v in vars(defaults).items()
    ))
    assert config_from_sources(str(path)) == defaults


@pytest.mark.parametrize("line, message", [
    ("levels = a,b", "levels: invalid literal for int() with base 10: 'a'"),
    ("seed = 4.5", "seed: invalid literal for int() with base 10: '4.5'"),
    ("tolerance = tiny", "tolerance: could not convert string to float: 'tiny'"),
])
def test_config_value_errors_name_file_line_and_key(tmp_path, line, message):
    path = tmp_path / "run.cfg"
    path.write_text(f"# survey setup\nk = 3\n{line}\n")
    with pytest.raises(ValueError) as exc:
        parse_config_file(str(path))
    assert str(exc.value) == f"{path}:3: {message}"


def test_config_accepts_only_legacy_single_worker_line(tmp_path):
    # Older config files carry `jobs = 1`; the suite has one execution path,
    # so that line is skipped and any other worker count is an unknown key.
    path = tmp_path / "run.cfg"
    path.write_text("seed = 7\njobs = 1\n")
    assert parse_config_file(str(path)) == {"seed": 7}
    path.write_text("jobs = 2\n")
    with pytest.raises(ValueError, match="unknown config key 'jobs'"):
        parse_config_file(str(path))


def test_config_rejects_unknown_experiment(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiments = build, harnak\n")
    with pytest.raises(ValueError, match="unknown experiment 'harnak'"):
        config_from_sources(str(path))
    with pytest.raises(ValueError, match="unknown experiment 'heet'"):
        config_from_sources(overrides={"experiments": ("heet",)})
    # An empty selection stays legal: it is the "nothing to report" run.
    assert config_from_sources(overrides={"experiments": ()}).experiments == ()


def test_suite_rejects_unknown_experiment(tmp_path):
    # run_suite makes the check config_from_sources makes, before anything runs.
    config = ExperimentConfig(experiments=("buidl",), levels=(2,), output_dir=str(tmp_path))
    with pytest.raises(ValueError, match="unknown experiment 'buidl'; choose from build, "):
        run_suite(config)
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("fields", [
    {"trials": 0, "experiments": ("couple",)},
    {"levels": ()},
    {"levels": (-1,)},
    {"tolerance": 2.0},
    {"levels": (1,), "experiments": ("couple",)},
    {"levels": (3,), "experiments": ("heat",)},
])
def test_suite_makes_the_config_checks(tmp_path, fields):
    # run_suite raises config_from_sources' message before writing anything.
    with pytest.raises(ValueError) as expected:
        config_from_sources(overrides=fields)
    config = ExperimentConfig(**{**fields, "output_dir": str(tmp_path / "out")})
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        run_suite(config)
    assert not (tmp_path / "out").exists()


def test_config_rejects_nonpositive_trials():
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            config_from_sources(overrides={"trials": trials})
    assert config_from_sources(overrides={"trials": 1}).trials == 1


def test_config_refuses_more_trials_than_streams():
    # One stream per trial, each index below 2^32.
    with pytest.raises(ValueError, match=r"trials must be at most 2\^32, got 4294967297"):
        config_from_sources(overrides={"trials": 2**32 + 1})
    assert config_from_sources(overrides={"trials": 2**32}).trials == 2**32


def test_config_rejects_tolerance_outside_the_unit_interval(tmp_path):
    path = tmp_path / "run.cfg"
    for raw in ("0", "-1", "nan", "inf", "1"):
        path.write_text(f"tolerance = {raw}\n")
        with pytest.raises(ValueError, match=rf"^tolerance must be in \(0, 1\), got {float(raw)}$"):
            config_from_sources(str(path))
    assert config_from_sources(overrides={"tolerance": 1e-6}).tolerance == 1e-6


def test_config_rejects_empty_or_negative_levels(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("levels = ,\n")
    with pytest.raises(ValueError, match="levels must name at least one level"):
        config_from_sources(str(path))
    with pytest.raises(ValueError, match="levels must be nonnegative, got -1"):
        config_from_sources(overrides={"levels": (2, -1)})
    assert config_from_sources(overrides={"levels": (0, 4)}).levels == (0, 4)


def test_config_rejects_levels_an_experiment_cannot_use():
    # Read off the level table before any graph is built.
    cases = [
        ({"levels": (0,), "experiments": ("build", "resist")},
         "resist needs a top level of at least 1, got 0"),
        ({"levels": (1,), "experiments": ("couple",)}, "couple needs a top level of at least 3, got 1"),
        ({"levels": (2, 3), "experiments": ("heat",)}, "heat needs a top level of at least 4, got 3"),
        # A level-2 couple walks at n = 1, where the origin pair's second
        # cell lies outside the level-0 box.
        ({"levels": (2,), "experiments": ("couple",)}, "couple needs a top level of at least 3, got 2"),
        # The (2, 5, 1) level-3 carpet has 7 d_s fit times but only the d_w
        # radii 5 and 25.
        ({"k": 5, "levels": (3,), "experiments": ("heat",)},
         "heat needs a top level of at least 4, got 3"),
        ({"d": 3, "levels": (3,), "experiments": ("heat",)},
         "heat needs a top level of at least 4, got 3"),
    ]
    for fields, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            config_from_sources(overrides=fields)
    for levels, experiments in [((1,), ("resist",)), ((3,), ("couple",)), ((4,), ("heat",)),
                                ((0,), ("build", "harnack", "hitting"))]:
        config_from_sources(overrides={"levels": levels, "experiments": experiments})


def test_readme_config_table_matches_fields():
    # The README's suite config table lists exactly the config fields, with
    # d, k, a sharing one row; a field added or deleted must update it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key ", 1)[1].split("\n\n", 1)[0]
    keys = []
    for row in table.splitlines()[2:]:
        cell = row.split("|")[1]
        keys.extend(re.findall(r"\w+", cell))
    assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_config_hash_ignores_plumbing():
    a = ExperimentConfig(output_dir="here")
    b = ExperimentConfig(output_dir="there")
    assert config_hash(a) == config_hash(b)
    c = ExperimentConfig(seed=43)
    assert config_hash(a) != config_hash(c)
    echo = a.echo_dict()
    assert "output_dir" not in echo
    assert echo["seed"] == 42


def test_config_validates_params(tmp_path):
    with pytest.raises(ValueError):
        run_suite(tiny_config(tmp_path, k=4))  # a + k odd


# --------------------------------------------------------------------- suite


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    cfg = tiny_config(out)
    manifest = run_suite(cfg)
    return cfg, manifest


def test_suite_all_green(suite_run):
    cfg, manifest = suite_run
    assert set(manifest.experiments) == set(cfg.experiments)
    for name, entry in manifest.experiments.items():
        assert entry["status"] == "ok", (name, entry)
        assert entry["checks"], name
        assert all(entry["checks"].values()), (name, entry["checks"])


def test_suite_artifacts_exist(suite_run):
    cfg, manifest = suite_run
    assert manifest.artifacts
    for name in manifest.artifacts:
        assert name == os.path.basename(name)  # portable names only
        assert os.path.exists(os.path.join(cfg.output_dir, name))
    on_disk = json.load(open(os.path.join(cfg.output_dir, "manifest.json")))
    assert on_disk["config_hash"] == config_hash(cfg)
    assert on_disk["experiments"].keys() == manifest.experiments.keys()


def test_suite_artifacts_embed_config_echo(suite_run):
    cfg, manifest = suite_run
    payload = json.load(open(os.path.join(cfg.output_dir, "build.json")))
    assert payload["config"] == cfg.echo_dict()
    assert "output_dir" not in payload["config"]


def fail_dw(*args, **kwargs):
    raise FitError("need at least 3 radii, have 2")


def test_suite_records_failures_and_continues(tmp_path, monkeypatch):
    # A heat experiment whose exit-time fit fails must fail loudly in the
    # manifest while later experiments still run.
    monkeypatch.setattr(heat, "estimate_dw", fail_dw)
    cfg = tiny_config(tmp_path, experiments=("build", "heat", "resist"))
    manifest = run_suite(cfg)
    assert manifest.experiments["heat"]["status"] == "failed"
    assert "error" in manifest.experiments["heat"]
    assert manifest.experiments["resist"]["status"] == "ok"


def test_suite_fail_fast_stops(tmp_path, monkeypatch):
    monkeypatch.setattr(heat, "estimate_dw", fail_dw)
    cfg = tiny_config(tmp_path, experiments=("build", "heat", "resist"))
    manifest = run_suite(cfg, fail_fast=True)
    assert manifest.experiments["heat"]["status"] == "failed"
    assert "resist" not in manifest.experiments


def test_heat_walks_the_kernel_once(tmp_path, monkeypatch):
    # The d_s points (16..512 at level 4, squared sums at 8..256) and the
    # regime times (64..512) share one walk of 512 steps.
    steps = []
    step = TransitionOperator.step
    monkeypatch.setattr(TransitionOperator, "step", lambda op, d: steps.append(1) or step(op, d))
    manifest = run_suite(tiny_config(tmp_path, levels=(4,), experiments=("heat",)))
    assert manifest.experiments["heat"]["status"] == "ok"
    assert len(steps) == 512
    # The walk steps the orbits of the symmetries fixing x = (26, 26): the
    # identity and the diagonal reflection.
    with open(os.path.join(str(tmp_path), "heat.json"), encoding="utf-8") as fh:
        walk = json.load(fh)["walk"]
    # The self-check compares the walked p_T(x, x) at T = 16..512 with the
    # squared sums at T/2.
    assert walk == {"vertices": 4096, "states": 2056, "symmetry_order": 2, "steps": 512,
                    "reversibility_gap": 2.7918907517706557e-16}
    text, _ = export_report(os.path.join(str(tmp_path), "manifest.json"))
    assert ("kernel walk: 512 steps on 2056 orbit states of 4096 vertices (symmetry order 2),"
            " squared-sum gap 2.8e-16") in text


def test_heat_halves_the_level5_walk(tmp_path):
    # At level 5 the d_s fit times run to 4096, so the walk ends at 2048
    # (it ended at 4096 before the squared sums); d_s keeps its frozen value.
    manifest = run_suite(tiny_config(tmp_path, levels=(5,), experiments=("heat",)))
    assert manifest.experiments["heat"]["status"] == "ok"
    with open(os.path.join(str(tmp_path), "heat.json"), encoding="utf-8") as fh:
        heat = json.load(fh)
    assert heat["walk"]["steps"] == 2048
    assert heat["walk"]["reversibility_gap"] <= 1e-12
    assert heat["ds"]["value"] == pytest.approx(1.7826368964944785, rel=1e-9)
    assert heat["ds"]["window"] == [16, 4096]


def test_resist_records_its_solves(tmp_path, monkeypatch):
    # resist.json counts every face and R_N solve; the report prints one
    # line per series.  These systems are small enough to factor on their
    # first solve, so the direct path is closed to count CG iterations.
    monkeypatch.setattr(linalg, "DIRECT_MAX", 0)
    run_suite(tiny_config(tmp_path, levels=(2, 3), experiments=("resist",)))
    with open(os.path.join(str(tmp_path), "resist.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    assert sorted(data["face_solves"]) == ["1", "2", "3"]
    assert data["face_solves"]["3"]["symmetry_order"] == 2
    assert data["face_solves"]["3"]["unknowns"] == 512 - 2 * 27  # all but the two faces
    assert [s["symmetry_order"] for s in data["to_infinity"]["solves"]] == [2, 2, 2]
    assert all(s["path"] == "CG" for s in data["to_infinity"]["solves"])
    text, _ = export_report(os.path.join(str(tmp_path), "manifest.json"))
    face = data["face_solves"]["3"]
    assert (f"3: CG {face['iterations']} it, {face['orbit_unknowns']} orbits of 458 unknowns"
            " (order 2)") in text
    assert "  R_N solves: 1: CG " in text


def test_sweep_and_probes_record_their_solves(suite_run):
    # harnack.json counts each sweep's solves, with the first solve's path
    # and the factor's size; hitting.json counts each radius' probe solves
    # by path.  The report prints one line per sweep and per radius.
    cfg, _ = suite_run
    with open(os.path.join(cfg.output_dir, "harnack.json"), encoding="utf-8") as fh:
        reports = json.load(fh)["reports"]
    assert [(r["level"], r["solves"], r["first_path"]) for r in reports] == [
        (2, 10, "SuperLU"), (4, 106, "CG")]
    assert all(r["factor_nnz"] > 0 for r in reports)
    with open(os.path.join(cfg.output_dir, "hitting.json"), encoding="utf-8") as fh:
        probes = json.load(fh)["solves"]
    assert sorted(probes) == ["1", "2"]
    for c in probes.values():
        assert c["paths"] == {"SuperLU": 50}
        assert 0 < c["max_unknowns"] <= linalg.DIRECT_MAX
        assert c["worst_residual"] <= cfg.tolerance
    text, _ = export_report(os.path.join(cfg.output_dir, "manifest.json"))
    assert "  sweep 4: 106 solves, first CG, factor " in text
    assert f"  probes 2: SuperLU 50, at most {probes['2']['max_unknowns']} unknowns" in text


def test_suite_empty_selection(tmp_path):
    cfg = tiny_config(tmp_path, experiments=())
    manifest = run_suite(cfg)
    assert manifest.experiments == {}
    assert manifest.artifacts == []
    assert os.path.exists(os.path.join(str(tmp_path), "manifest.json"))


# -------------------------------------------------------------- determinism


def _artifact_bytes(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        if name == "manifest.json":
            continue
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_suite_is_deterministic(tmp_path):
    cfg_a = tiny_config(tmp_path / "a")
    cfg_b = tiny_config(tmp_path / "b")
    for c in (cfg_a, cfg_b):
        os.makedirs(c.output_dir, exist_ok=True)
    run_suite(cfg_a)
    run_suite(cfg_b)
    bytes_a = _artifact_bytes(cfg_a.output_dir)
    bytes_b = _artifact_bytes(cfg_b.output_dir)
    assert bytes_a.keys() == bytes_b.keys()
    for name in bytes_a:
        assert bytes_a[name] == bytes_b[name], f"{name} differs across runs"
    # Manifests agree up to wall clock and plumbing.
    man_a = json.load(open(os.path.join(cfg_a.output_dir, "manifest.json")))
    man_b = json.load(open(os.path.join(cfg_b.output_dir, "manifest.json")))
    for man in (man_a, man_b):
        man.pop("wall_clock_seconds")
        man["config"].pop("output_dir")
    assert man_a == man_b


# ------------------------------------------------------------------- report


def test_export_report(suite_run):
    cfg, _ = suite_run
    manifest_path = os.path.join(cfg.output_dir, "manifest.json")
    text, gaps = export_report(manifest_path)
    assert gaps == []
    assert "harnack" in text
    assert "C_H" in text
    assert "resistance" in text.lower()
    # Rendered tables land next to the manifest.
    written = os.listdir(cfg.output_dir)
    assert any(n.startswith("report_") for n in written)


def test_report_figures_hold_their_fit_lines(tmp_path):
    # Each fit figure's residual is its ordinate minus its fit, the fit is the
    # line through the means with the slope heat.json holds, bit for bit, and
    # the residuals of that OLS fit with intercept sum to 0.
    cfg = tiny_config(tmp_path, levels=(4,), experiments=("heat",))
    run_suite(cfg)
    export_report(os.path.join(cfg.output_dir, "manifest.json"))
    with open(os.path.join(cfg.output_dir, "heat.json"), encoding="utf-8") as fh:
        fits = json.load(fh)
    for name, x_col, y_col, slope in [
        ("report_heat_diag.csv", "log_t", "log_p_t", fits["ds"]["value"] / -2),
        ("report_heat_exit.csv", "log_r", "log_exit_time", fits["dw"]["value"]),
        ("report_subgaussian.csv", "abscissa", "neg_log_p", fits["sub_gaussian"]["value"]),
    ]:
        with open(os.path.join(cfg.output_dir, name), encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            cols = dict(zip(header, np.loadtxt(fh, delimiter=",", ndmin=2).T))
        xs, ys, fit, resid = cols[x_col], cols[y_col], cols["fit"], cols["residual"]
        assert len(xs) >= 3, name
        np.testing.assert_array_equal(resid, ys - fit)
        np.testing.assert_array_equal(fit, float(ys.mean() - slope * xs.mean()) + slope * xs, err_msg=name)
        assert abs(resid.sum()) <= 1e-9 * np.abs(ys).sum(), name


def test_export_report_names_gaps(tmp_path):
    cfg = tiny_config(tmp_path, experiments=("build",))
    run_suite(cfg)
    os.remove(os.path.join(str(tmp_path), "build.csv"))
    text, gaps = export_report(os.path.join(str(tmp_path), "manifest.json"))
    assert gaps == ["build.csv"]
    assert "build.csv" in text or gaps  # the gap list is the contract


def test_export_report_shows_failures(tmp_path, monkeypatch):
    monkeypatch.setattr(heat, "estimate_dw", fail_dw)
    cfg = tiny_config(tmp_path, experiments=("build", "heat"))
    run_suite(cfg)
    text, gaps = export_report(os.path.join(str(tmp_path), "manifest.json"))
    assert gaps == []  # a failed experiment wrote nothing, so nothing is missing
    assert "status=failed" in text
