"""End-to-end acceptance checks, one verdict line per criterion.

Each test prints ``criterion N (<name>): PASS/FAIL — detail`` before asserting,
so a ``pytest -v -s`` run reads as a checklist.  Criterion 5's far-regime half
is expected to fail on principle — a walk that moves one cell per step puts
exactly zero mass beyond the light cone, so there is nothing in the far regime
to fit — and is marked strict-xfail to stay visible.
"""

import json
import os

import numpy as np
import pytest
from scipy import stats

from carpetlab.coupling import run_coupled_walk
from carpetlab.geometry import build_graph, count_cells, hausdorff_dimension
from carpetlab.harmonic import (
    HittingSpec,
    harnack_constant,
    hitting_pair_catalog,
    hitting_probability,
)
from carpetlab.harness import ExperimentConfig, config_hash, run_suite
from carpetlab.heat import TransitionOperator, central_vertex, estimate_dw, fit_regimes
from carpetlab.resistance import effective_resistance, face_resistance
from scipy.sparse.csgraph import connected_components

from conftest import adjacency, diag_fit, kernel_row, kernel_samples, make_cycle, make_path, vid
from oracles import sample_marginal, theorem5_check


def verdict(n: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


# --------------------------------------------------------------- criterion 1


def test_criterion_1_graph_census(params2, params3, g5):
    expected_2d = {1: (8, 8), 2: (64, 88), 3: (512, 776), 4: (4096, 6424), 5: (32768, 52040)}
    ok = True
    for n, (nv, ne) in expected_2d.items():
        g = g5 if n == 5 else build_graph(n, params2)
        ok &= (g.num_vertices, g.num_edges) == (nv, ne)
        ok &= g.num_vertices == count_cells(n, params2)
        ok &= connected_components(adjacency(g), directed=False)[0] == 1
        ok &= int(g.degrees.max()) <= 2 * params2.d
    for n, (nv, ne) in {1: (26, 48), 3: (17576, 47568)}.items():
        g = build_graph(n, params3)
        ok &= (g.num_vertices, g.num_edges) == (nv, ne)
        ok &= connected_components(adjacency(g), directed=False)[0] == 1
        ok &= int(g.degrees.max()) <= 2 * params3.d
    assert verdict(1, "graph census", ok, "vertex/edge counts, connectivity, degree caps")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_resistance_oracles(g1):
    series = effective_resistance(make_path(3), [0], [2])
    ring = effective_resistance(g1, [vid(g1, 0, 0)], [vid(g1, 2, 2)])
    adjacent = effective_resistance(g1, [vid(g1, 0, 0)], [vid(g1, 0, 1)])
    face = face_resistance(g1)
    ok = (
        abs(series - 2.0) < 1e-9
        and abs(ring - 2.0) < 1e-9
        and abs(adjacent - 7.0 / 8.0) < 1e-9
        and abs(face - 1.0) < 1e-9
    )
    assert verdict(
        2, "resistance oracles", ok,
        f"series={series:.9f} ring={ring:.9f} adjacent={adjacent:.9f} face1={face:.9f}",
    )


# --------------------------------------------------------------- criterion 3


@pytest.fixture(scope="module")
def harnack_reports(g4):
    return {n: harnack_constant(g4, n) for n in (2, 3, 4)}


def test_criterion_3_harnack_stability(harnack_reports):
    c = {n: r.constant for n, r in harnack_reports.items()}
    ratios = [c[3] / c[2], c[4] / c[3]]
    ok = all(0.8 <= q <= 1.25 for q in ratios)
    ok &= all(1.0 <= v < 10.0 for v in c.values())
    ok &= all(0.0 <= r.rho < 1.0 for r in harnack_reports.values())
    assert verdict(
        3, "uniform Harnack constant", ok,
        "C_H = " + ", ".join(f"{n}:{v:.6f}" for n, v in sorted(c.items()))
        + f"; consecutive ratios {ratios[0]:.4f}, {ratios[1]:.4f} within [0.8, 1.25]",
    )


# --------------------------------------------------------------- criterion 4


def test_criterion_4_exponent_chain(g5, params2):
    df = hausdorff_dimension(params2)
    ds = diag_fit(g5)
    dw = estimate_dw(g5, central_vertex(g5))
    gap = abs(dw.value - 2.0 * df / ds.value)
    ok = (
        abs(df - 1.892789) <= 1e-6
        and 1.0 < ds.value < df
        and dw.value > 2.0
        and gap <= 0.10 * dw.value
    )
    assert verdict(
        4, "exponent chain", ok,
        f"d_f={df:.6f} d_s={ds.value:.4f}±{ds.standard_error:.4f} "
        f"d_w={dw.value:.4f}; |d_w - 2 d_f/d_s| = {gap:.4f} <= {0.10 * dw.value:.4f}",
    )


# --------------------------------------------------------------- criterion 5


def _regime_pairs(graph, x):
    sep = np.sqrt(((graph.coords - graph.coords[x]).astype(float) ** 2).sum(axis=1))
    targets = []
    for lo in np.linspace(1.0, 32.0, 24):
        cand = np.nonzero((sep >= lo) & (sep < lo + 1.5))[0]
        if cand.size:
            targets.append(int(cand[0]))
    return [(y, t) for y in sorted(set(targets)) for t in (16, 32, 64, 128)]


@pytest.fixture(scope="module")
def regime_report(g4):
    op = TransitionOperator(g4)
    x = central_vertex(g4)
    ds = diag_fit(g4)
    dw = estimate_dw(g4, x)
    return fit_regimes(g4, x, kernel_samples(op, x, _regime_pairs(g4, x)), ds.value, dw.value)


def test_criterion_5_sub_gaussian_regime(regime_report):
    fit = regime_report.sub_gaussian
    ok = fit is not None and regime_report.n_sub >= 20 and fit.r_squared >= 0.9
    assert verdict(
        5, "near-regime decay fit", ok,
        f"{regime_report.n_sub} pairs, r^2={fit.r_squared:.4f}, slope={fit.value:.4f}"
        if fit else "no near-regime pairs",
    )


@pytest.mark.xfail(
    strict=True,
    reason="one cell per step: the kernel is exactly zero beyond distance t, "
    "so no far-regime pair survives the probability floor",
)
def test_criterion_5_gaussian_regime(regime_report):
    fit = regime_report.gaussian
    ok = fit is not None and regime_report.n_gauss >= 20 and fit.r_squared >= 0.9
    verdict(
        5, "far-regime decay fit", ok,
        f"{regime_report.n_gauss} far pairs survived the floor "
        f"({regime_report.n_floor_excluded} floor-excluded)",
    )
    assert ok


# --------------------------------------------------------------- criterion 6


def test_criterion_6_hitting_floor(g5):
    minima = {}
    for m in (1, 2, 3):
        r = float(3**m)
        pairs = hitting_pair_catalog(g5, r, c1=2.0, c2=4.0, count=50, seed=7)
        minima[m] = min(
            hitting_probability(g5, HittingSpec(x=x, r=r, c1=2.0, c2=4.0), y)
            for x, y in pairs
        )
    spread = max(minima.values()) / min(minima.values())
    ok = all(v >= 0.01 for v in minima.values()) and spread < 2.0
    assert verdict(
        6, "hitting-probability floor", ok,
        "min p = " + ", ".join(f"r=3^{m}:{v:.4f}" for m, v in sorted(minima.items()))
        + f"; spread {spread:.3f} < 2",
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_7_marginal_law(g4):
    x0, y0 = vid(g4, 0, 0), vid(g4, 0, 1)
    trials, t = 100_000, 5
    counts = sample_marginal(g4, x0, y0, steps=t, trials=trials, seed=42)
    expected = kernel_row(TransitionOperator(g4), y0, t) * trials
    keep = expected >= 5.0
    stat = float(((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    df = int(keep.sum()) - 1
    tail = float(expected[~keep].sum())
    if tail > 0:
        stat += (float(counts[~keep].sum()) - tail) ** 2 / tail
        df += 1
    crit = float(stats.chi2.ppf(1 - 1e-3, df))
    ok = stat < crit and int(counts[expected == 0.0].sum()) == 0
    assert verdict(
        7, "coupled marginal law", ok,
        f"chi^2 = {stat:.2f} on {df} df < {crit:.2f} at the 1e-3 level "
        f"({trials} trials, t={t})",
    )


def test_criterion_7_coupling_probability(g5):
    x, y = vid(g5, 0, 0), vid(g5, 0, 1)
    phat = {}
    for n in (2, 3):
        hits = int(run_coupled_walk(g5, x, y, n, trials=10_000, seed=42)["coupled"].sum())
        phat[n] = hits / 10_000.0
    ok = all(p >= 0.05 for p in phat.values())
    assert verdict(
        7, "coupling probability", ok,
        f"adjacent pair p-hat: n=2 {phat[2]:.4f}, n=3 {phat[3]:.4f} (both >= 0.05)",
    )


def test_criterion_7_oscillation_bound(g4, harnack_reports):
    # The contraction factor is dominated by the coupling failure rate at the
    # witness pair (three standard errors of slack on the estimate).
    trials = 10_000
    ok = True
    details = []
    for n in (2, 3):
        rep = harnack_reports[n]
        i, j, _ = rep.rho_witness
        hits = int(run_coupled_walk(g4, int(i), int(j), n, trials=trials, seed=42)["coupled"].sum())
        p = hits / trials
        se = (p * (1.0 - p) / trials) ** 0.5
        bound = 1.0 - p + 3.0 * se
        ok &= rep.rho <= bound
        details.append(f"n={n}: rho={rep.rho:.4f} <= 1-p+3se={bound:.4f}")
    assert verdict(7, "oscillation vs coupling", ok, "; ".join(details))


# --------------------------------------------------------------- criterion 8


def test_criterion_8_capacity_bound(g3d4):
    ds = diag_fit(g3d4)
    margin = max(0.1, 2.0 * ds.standard_error)
    if ds.value - 2.0 <= margin:
        assert verdict(
            8, "transient capacity bound", True,
            f"hypothesis-not-met: d_s = {ds.value:.4f} does not exceed 2 by {margin:.4f}",
        )
        return
    targets = [np.nonzero((g3d4.coords < s).all(axis=1))[0] for s in (1, 2, 3)]
    report = theorem5_check(g3d4, targets, ds.value, levels=[2, 3, 4])
    ok = report.spread <= 5.0 and all(c > 0 for c in report.constants)
    assert verdict(
        8, "transient capacity bound", ok,
        f"d_s = {ds.value:.4f}±{ds.standard_error:.4f}; constant spread "
        f"{report.spread:.3f} <= 5 over targets of size "
        + ", ".join(str(len(t)) for t in targets),
    )


# --------------------------------------------------------------- criterion 9


def test_criterion_9_determinism(tmp_path):
    configs = [
        ExperimentConfig(output_dir=str(tmp_path / "a")),
        ExperimentConfig(output_dir=str(tmp_path / "b")),
    ]
    manifests = []
    for cfg in configs:
        os.makedirs(cfg.output_dir)
        manifests.append(run_suite(cfg))
    ok = all(
        e["status"] == "ok" and all(e["checks"].values())
        for e in manifests[0].experiments.values()
    )

    def artifact_bytes(outdir):
        return {
            name: open(os.path.join(outdir, name), "rb").read()
            for name in sorted(os.listdir(outdir))
            if name != "manifest.json"
        }

    blobs = [artifact_bytes(c.output_dir) for c in configs]
    same = blobs[0] == blobs[1]

    def canonical_manifest(outdir):
        man = json.load(open(os.path.join(outdir, "manifest.json")))
        man.pop("wall_clock_seconds")
        man["config"].pop("output_dir")
        return man

    manifests_agree = canonical_manifest(configs[0].output_dir) == canonical_manifest(
        configs[1].output_dir
    )
    ok = ok and same and manifests_agree
    assert verdict(
        9, "suite determinism", ok,
        f"{len(blobs[0])} artifacts byte-identical across two runs "
        f"(config {config_hash(configs[0])})",
    )
