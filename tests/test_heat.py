import numpy as np
import pytest
import scipy.sparse as sp

from carpetlab import heat
from carpetlab.geometry import HOLD, build_graph, count_cells, validate_params
from carpetlab.heat import (
    FitError,
    TransitionOperator,
    central_vertex,
    carpet_saturation_time,
    ds_fit_times,
    estimate_dw,
    fit_ds,
    fit_regimes,
    kernel_entries,
    walk_kernel,
)
from carpetlab.harmonic import expected_exit_time

from conftest import (
    adjacency, diag_fit, graph_from_edges, kernel_row, kernel_samples, make_path, make_torus, vid,
)
from oracles import sample_exit_times


# ------------------------------------------------------------------- operator


def test_step_matches_the_hold_plus_product_oracle(g3d):
    # The step is one sparse product with the hold last in each row; it must
    # equal HOLD * p + Q @ p, with Q the lumped walk's off-diagonal part,
    # bit for bit, on the plain walk and on the orbits of a stabilizer.
    x = central_vertex(g3d)
    for orbits in (None, g3d.orbits(g3d.symmetries([x]))):
        op = TransitionOperator(g3d, orbits)
        indptr, nbrs = g3d.rows(op.reps)
        deg = g3d.degrees.astype(np.float64)
        q = sp.csr_matrix(((1.0 - HOLD) / deg[nbrs], op.orbit[nbrs], indptr), shape=(op.states,) * 2)
        p = np.zeros(op.states)
        p[op.orbit[x]] = 1.0
        for _ in range(40):
            stepped = op.step(p)
            p = HOLD * p + q @ p
            assert np.array_equal(stepped, p)


def test_one_step_distribution(g2):
    op = TransitionOperator(g2)
    v = vid(g2, 0, 0)
    dist = np.zeros(g2.num_vertices)
    dist[v] = 1.0
    out = op.step(dist)
    assert out[v] == pytest.approx(0.5)
    nbrs = g2.rows([v])[1]
    np.testing.assert_allclose(out[nbrs], 0.5 / len(nbrs))
    assert out.sum() == pytest.approx(1.0, abs=1e-14)


def test_step_matches_the_plain_lazy_step(g4):
    # The precomputed (1 - HOLD) A D^-1 must reproduce the step written out
    # in full bit for bit, not merely to rounding.
    op = TransitionOperator(g4)
    adj = adjacency(g4)
    inv_deg = 1.0 / g4.degrees.astype(np.float64)
    p = np.zeros(g4.num_vertices)
    p[central_vertex(g4)] = 1.0
    ref = p
    for _ in range(200):
        p = op.step(p)
        ref = 0.5 * ref + 0.5 * (adj @ (ref * inv_deg))
        assert np.array_equal(p, ref)


def test_plain_graph_walks_singleton_orbits():
    # A plain vertex graph knows no symmetry: its orbit walk is the plain
    # walk, and kernel_entries read at every vertex repeats op.step bit for bit.
    torus = make_torus(8)
    walk = walk_kernel(torus, 5, [], [], [])
    assert (walk.states, walk.symmetry_order) == (torus.num_vertices, 1)
    op = TransitionOperator(torus, torus.orbits(torus.symmetries([5])))
    np.testing.assert_array_equal(op.orbit, np.arange(torus.num_vertices))
    p = np.zeros(torus.num_vertices)
    p[5] = 1.0
    for t, values, _ in kernel_entries(op, 5, np.arange(torus.num_vertices), range(40)):
        assert np.array_equal(values, p)
        p = op.step(p)


def test_the_walk_must_fix_its_source(g2):
    # The four corners of the level-2 carpet form one orbit of its 8
    # symmetries; a walk from a corner on those orbits would spread its mass.
    op = TransitionOperator(g2, g2.orbits(np.arange(8)))
    with pytest.raises(ValueError, match="move the source 0"):
        next(kernel_entries(op, 0, [0], [1]))
    with pytest.raises(ValueError, match="every vertex its orbit"):
        TransitionOperator(g2, [0])


def test_isolated_vertex_keeps_its_mass():
    graph = graph_from_edges([(0, 0), (1, 0), (2, 0), (5, 5)], [(0, 1), (1, 2)])
    p = np.array([0.1, 0.2, 0.3, 0.4])
    out = TransitionOperator(graph).step(p)
    assert out[3] == 0.4
    np.testing.assert_allclose(out[:3], [0.1, 0.3, 0.2], rtol=1e-15)


def test_mass_is_conserved(g3):
    op = TransitionOperator(g3)
    rng = np.random.default_rng(0)
    dist = rng.random(g3.num_vertices)
    dist /= dist.sum()
    for _ in range(10):
        dist = op.step(dist)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert (dist >= 0).all()


def test_two_step_kernel_on_ring(g1):
    # Exact two-step probabilities on the 8-cycle from a corner.
    op = TransitionOperator(g1)
    row = kernel_row(op, vid(g1, 0, 0), 2)
    expect = np.zeros(8)
    expect[vid(g1, 0, 0)] = 3.0 / 8.0
    expect[vid(g1, 0, 1)] = 1.0 / 4.0
    expect[vid(g1, 1, 0)] = 1.0 / 4.0
    expect[vid(g1, 0, 2)] = 1.0 / 16.0
    expect[vid(g1, 2, 0)] = 1.0 / 16.0
    np.testing.assert_allclose(row, expect, atol=1e-15)


def test_reversibility(g2):
    # deg(x) p_t(x, y) == deg(y) p_t(y, x)
    op = TransitionOperator(g2)
    x, y = vid(g2, 0, 0), vid(g2, 5, 2)
    px = kernel_row(op, x, 6)
    py = kernel_row(op, y, 6)
    assert g2.degrees[x] * px[y] == pytest.approx(g2.degrees[y] * py[x], rel=1e-12)


def test_semigroup_property(g2):
    op = TransitionOperator(g2)
    x = vid(g2, 0, 0)
    row5 = kernel_row(op, x, 5)
    chained = kernel_row(op, x, 3)
    for _ in range(2):
        chained = op.step(chained)
    np.testing.assert_allclose(chained, row5, atol=1e-15)


def test_light_cone(g4):
    # One cell per step: p_t(x, y) is exactly zero beyond Euclidean radius t.
    op = TransitionOperator(g4)
    x = central_vertex(g4)
    t = 5
    row = kernel_row(op, x, t)
    sep = np.sqrt(((g4.coords - g4.coords[x]).astype(float) ** 2).sum(axis=1))
    assert (row[sep > t] == 0.0).all()
    assert (row[sep <= 1] > 0.0).all()


# ------------------------------------------------------------- squared sums


def _squared_sums_match_the_walk(graph, x, weight, t_max=40):
    """The d_s point at each even T <= 2 t_max is sum_O weight[O] v_O^2 over the
    orbit values at T/2, bit for bit, and equals the walked p_T(x, x); returns
    the walk and its orbit operator."""
    walk = walk_kernel(graph, x, [x], range(2 * t_max + 1), range(0, 2 * t_max + 1, 2))
    op = TransitionOperator(graph, graph.orbits(graph.symmetries([x])))
    halves = kernel_entries(op, x, [], range(t_max + 1))
    for (T, p), (t, _, v) in zip(walk.diag, halves, strict=True):
        assert (T, p) == (2 * t, float((v * v * weight).sum()))
        assert p == pytest.approx(float(walk.entries[T][0]), rel=1e-12, abs=0.0)
    assert walk.gap <= 1e-12
    return walk, op


def test_squared_sums_on_the_torus():
    # Every vertex of the torus has degree 4 and is its own orbit: the
    # weights are all 1 and p_2t(x, x) is the plain sum of p_t(x, y)^2.
    torus = make_torus(64)
    _squared_sums_match_the_walk(torus, 0, np.ones(torus.num_vertices))


def test_squared_sums_on_a_3d_orbit_quotient():
    # The central cell of the 3-D level-2 carpet is fixed by 6 symmetries;
    # the sum runs over orbit values weighted by deg(x) |O| / deg(O).
    graph = build_graph(2, validate_params(3, 3, 1))
    x = central_vertex(graph)
    least = graph.orbits(graph.symmetries([x]))
    _, rep, size = np.unique(least, return_index=True, return_counts=True)
    walk, op = _squared_sums_match_the_walk(graph, x, graph.degrees[x] * size / graph.degrees[rep])
    assert walk.symmetry_order == 6
    assert walk.states == op.states == len(rep) < graph.num_vertices


def test_squared_sums_on_unequal_degrees():
    # A plain graph with degrees 1 to 4: the identity needs the 1 / deg(y)
    # weights, from a source of degree 1 and from one of degree 4.
    graph = graph_from_edges(
        [(i, 0) for i in range(7)], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3), (3, 5), (2, 5)]
    )
    assert sorted(set(graph.degrees.tolist())) == [1, 2, 3, 4]
    for x in (0, 3):
        _squared_sums_match_the_walk(graph, x, graph.degrees[x] / graph.degrees)


def test_an_isolated_source_keeps_its_mass():
    # deg(x) = 0: x's own orbit weighs 1 and the other isolated vertex 0,
    # so p stays 1 with no inf or NaN, and the self-check finds no gap.
    graph = graph_from_edges([(0, 0), (1, 0), (2, 0), (5, 5), (9, 9)], [(0, 1), (1, 2)])
    walk, _ = _squared_sums_match_the_walk(graph, 3, np.array([0.0, 0.0, 0.0, 1.0, 0.0]), t_max=10)
    assert {p for _, p in walk.diag} == {1.0}
    weight = np.zeros(5)
    weight[:3] = graph.degrees[0] / graph.degrees[:3]
    _squared_sums_match_the_walk(graph, 0, weight, t_max=10)
    walk = walk_kernel(graph, 3, [3], [5], [16, 32, 64, 128])
    assert walk.diag == [(16, 1.0), (32, 1.0), (64, 1.0), (128, 1.0)]
    assert (walk.gap, walk.steps) == (0.0, 64)


def test_walk_kernel_halves_the_walk(g4, monkeypatch):
    # The fit times 16..512 need the walk only to 256; the self-check
    # compares the walked p_T(x, x) at 16..256 with the squared sums.
    steps = []
    step = TransitionOperator.step
    monkeypatch.setattr(TransitionOperator, "step", lambda op, d: steps.append(1) or step(op, d))
    walk = walk_kernel(g4, central_vertex(g4), [0], [8], ds_fit_times(800))
    assert (walk.steps, len(steps)) == (256, 256)
    assert [t for t, _ in walk.diag] == [16, 32, 64, 128, 256, 512]
    assert 0.0 < walk.gap <= 1e-12
    assert list(walk.entries) == [8]
    with pytest.raises(ValueError, match="d_s fit times must be even, got 17"):
        walk_kernel(g4, 0, [], [], [16, 17])


def test_walk_kernel_sums_squares_only_at_half_times(g4, monkeypatch):
    # A walk read at every time, as `carpet heat diag` reads it, computes the
    # squared sum only at the half times of its fit times.
    summed = []
    entries = heat.kernel_entries

    class Squared(np.ndarray):
        """Orbit values that record the time at which they are multiplied."""

        def __mul__(self, other):
            summed.append(self.t)
            return np.asarray(self) * np.asarray(other)

    def counted(*args):
        for t, p, v in entries(*args):
            v = v.view(Squared)
            v.t = t
            yield t, p, v

    monkeypatch.setattr(heat, "kernel_entries", counted)
    walk = walk_kernel(g4, central_vertex(g4), [], range(1, 65), [16, 32, 64])
    assert (walk.steps, summed) == (64, [8, 16, 32])


# ------------------------------------------------------------------ plumbing


def test_central_vertex(g4, g5):
    assert tuple(g4.coords[central_vertex(g4)]) == (26, 26)
    assert tuple(g5.coords[central_vertex(g5)]) == (80, 80)


def test_central_vertex_closed_form():
    # The premise of the heat level rule: the central cell is
    # ((k - a)/2 k^(n-1) - 1)(1, ..., 1), on every valid carpet with d <= 3,
    # k <= 7 and n <= 3 that has at most 200,000 cells (all but the 3-D
    # level-3 carpets with k >= 5).
    checked = 0
    for d in (2, 3):
        for k in range(3, 8):
            for a in range(k % 2 or 2, k, 2):
                params = validate_params(d, k, a)
                for n in (1, 2, 3):
                    if count_cells(n, params) > 200_000:
                        continue
                    graph = build_graph(n, params)
                    c = (k - a) // 2 * k ** (n - 1) - 1
                    assert tuple(graph.coords[central_vertex(graph)]) == (c,) * d, (d, k, a, n)
                    checked += 1
    assert checked == 47


def test_saturation_time(g4, g5):
    assert carpet_saturation_time(g4.params, 4) == 800
    assert carpet_saturation_time(g5.params, 5) == 7320


def test_fits_equal_the_estimates_that_walk(g4):
    # One walk can serve both fits: the values read off a walk through every
    # time up to 512 are bit-identical to those of walks that stop only at
    # the fit times (the d_s point at T is the squared sum at T/2).
    x = central_vertex(g4)
    op = TransitionOperator(g4, g4.orbits(g4.symmetries([x])))
    pairs = [(y, t) for t in (64, 128) for y in range(0, g4.num_vertices, 600)]
    times = ds_fit_times(carpet_saturation_time(g4.params, g4.level))
    walk = walk_kernel(g4, x, [y for y, _ in pairs], range(1, 513), times)
    assert walk.steps == 512
    assert fit_ds(walk.diag) == diag_fit(g4, x)
    samples = [(y, t, float(walk.entries[t][i])) for i, (y, t) in enumerate(pairs)]
    assert fit_regimes(g4, x, samples, 1.78, 2.09) == fit_regimes(
        g4, x, kernel_samples(op, x, pairs), 1.78, 2.09
    )


def test_dyadic_times():
    assert ds_fit_times(4096) == [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    assert ds_fit_times(800) == [16, 32, 64, 128, 256, 512]
    assert ds_fit_times(16) == [16]
    assert ds_fit_times(15) == []


# ------------------------------------------------------------------ exponents


def test_ds_on_torus():
    # Two-dimensional lattice: spectral dimension 2.
    torus = make_torus(64)
    # dyadic times up to (diameter / 4)^2 = 496, before the torus saturates
    est = diag_fit(torus, x=0, times=ds_fit_times(496))
    assert est.value == pytest.approx(2.0, abs=0.05)
    assert est.r_squared > 0.999


def test_ds_on_carpet_frozen(g5):
    est = diag_fit(g5)
    assert est.value == pytest.approx(1.7826368964944785, rel=1e-9)
    assert est.standard_error == pytest.approx(0.012226893057595039, rel=1e-6)
    assert est.r_squared > 0.999
    assert est.n_points == 9
    assert est.window == (16, 4096)


def test_ds_needs_enough_points(g3):
    with pytest.raises(FitError, match="4"):
        diag_fit(g3, times=[16, 32, 64])


def test_ds_degenerate_flat_series():
    # On a 2-cycle the lazy kernel is already stationary: flat series, flagged.
    g = graph_from_edges([(0, 0), (1, 0)], [(0, 1)])
    est = diag_fit(g, x=0, times=[2, 4, 8, 16])
    assert est.degenerate
    assert est.value == 0.0


def test_dw_on_path_exact():
    # From the midpoint of a long path the lazy exit time is 2 r^2: slope 2.
    path = make_path(81)
    radii = [3.0, 9.0, 27.0]
    taus = [expected_exit_time(path, 40, r) for r in radii]
    assert taus[0] == pytest.approx(18.0, abs=1e-8)
    assert taus[1] == pytest.approx(162.0, abs=1e-7)
    assert taus[2] == pytest.approx(1458.0, abs=1e-6)
    est = heat._estimate(list(zip(radii, taus)), np.log(radii), np.log(taus))
    assert est.value == pytest.approx(2.0, abs=1e-9)
    assert est.standard_error == pytest.approx(0.0, abs=1e-9)


def test_dw_on_carpet_frozen(g5):
    est = estimate_dw(g5, central_vertex(g5))
    assert est.value == pytest.approx(2.0885094806339244, rel=1e-6)
    assert [r for r, _ in est.points] == [3.0, 9.0, 27.0, 81.0]
    assert est.points[0][1] == pytest.approx(20.649915, rel=1e-6)


def test_dw_needs_three_radii(g3):
    with pytest.raises(FitError, match="have 2"):
        estimate_dw(g3, central_vertex(g3))


def test_exponent_relation(g5):
    # d_s == 2 d_f / d_w within the discretization error of both estimates.
    from carpetlab.geometry import hausdorff_dimension

    ds = diag_fit(g5).value
    dw = estimate_dw(g5, central_vertex(g5)).value
    df = hausdorff_dimension(g5.params)
    assert abs(dw - 2.0 * df / ds) <= 0.10 * dw


# --------------------------------------------------------------- regime fits


def test_regime_fit_splits_by_light_cone(g4):
    op = TransitionOperator(g4)
    x = central_vertex(g4)
    near = vid(g4, 25, 26)
    far = vid(g4, 26, 53)  # separation 27 > t for every t below
    pairs = [(near, 8), (near, 16), (near, 32), (far, 8), (far, 16)]
    fit = fit_regimes(g4, x, kernel_samples(op, x, pairs), ds=1.78, dw=2.09)
    assert fit.n_sub == 3
    # Beyond the light cone nothing arrives, so the far pairs fall out as
    # floor exclusions and no far-regime fit exists.
    assert fit.gaussian is None
    assert fit.n_gauss == 0
    assert fit.n_floor_excluded == 2
    assert fit.sub_gaussian is not None
    assert fit.sub_gaussian.n_points == 3


def test_regime_fit_rejects_bad_dw(g4):
    with pytest.raises(ValueError):
        fit_regimes(g4, 0, kernel_samples(TransitionOperator(g4), 0, [(0, 1)]), ds=2.0, dw=1.0)


@pytest.mark.parametrize("ds, dw", [(np.nan, 2.09), (1.78, np.nan), (1.78, np.inf), (-np.inf, 2.09)])
def test_regime_fit_rejects_non_finite_exponents(g4, ds, dw):
    samples = [(1, 4, 0.01), (2, 8, 0.02)]
    with pytest.raises(ValueError, match="exponents must be finite"):
        fit_regimes(g4, 0, samples, ds=ds, dw=dw)


@pytest.mark.parametrize("y, t", [(0, 0), (1, 0), (0, -2)])
def test_regime_fit_rejects_times_below_one(g4, y, t):
    # Both model abscissae divide by t: at t = 0 the source pair and any other
    # pair used to raise ZeroDivisionError.
    samples = [(1, 4, 0.01), (y, t, 1.0)]
    with pytest.raises(ValueError, match=f"sample times must be at least 1, got {t}"):
        fit_regimes(g4, 0, samples, ds=1.78, dw=2.09)


# -------------------------------------------------------------- monte carlo


def test_sampled_exit_times_match_solver(g4):
    x = vid(g4, 26, 26)
    r = 4.0
    samples = sample_exit_times(g4, x, r, trials=3000, seed=13)
    again = sample_exit_times(g4, x, r, trials=3000, seed=13)
    np.testing.assert_array_equal(samples, again)
    assert (samples >= 1).all()
    solved = expected_exit_time(g4, x, r)
    assert samples.mean() == pytest.approx(solved, rel=0.1)
