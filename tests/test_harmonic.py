import numpy as np
import pytest

from carpetlab import linalg
from carpetlab.geometry import box_vertices
from carpetlab.harmonic import (
    HittingSpec,
    _distances,
    expected_exit_time,
    harnack_constant,
    hitting_pair_catalog,
    hitting_probability,
)
from carpetlab.heat import central_vertex
from carpetlab.linalg import DirichletSystem

from conftest import held, make_path, vid


# ----------------------------------------------------------------- dirichlet


def box_system(graph, j):
    """The level-``j`` corner box: interior unknowns, data on its face cells."""
    part = box_vertices(graph, j)
    return part, DirichletSystem(graph, part.interior)


def test_ring_dirichlet_exact(g1):
    # Level-1 graph is an 8-cycle; with 0 and 1 pinned at the two corners the
    # solution is linear in ring distance: quarters on one arc, quarters on
    # the other.
    fixed = np.array([vid(g1, 0, 0), vid(g1, 2, 2)])
    unknown = np.setdiff1d(np.arange(g1.num_vertices), fixed)
    values, info = DirichletSystem(g1, unknown).solve(held(g1, fixed, [0.0, 1.0]))
    expect = np.array([0.0, 0.25, 0.5, 0.25, 0.75, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(values, expect, atol=1e-9)
    assert info.residual < 1e-9


def test_constants_are_harmonic(g2):
    part, system = box_system(g2, 1)
    values, _ = system.solve(held(g2, part.boundary, 0.7))
    np.testing.assert_allclose(values[part.interior], 0.7, atol=1e-10)


def test_linearity(g3):
    part, system = box_system(g3, 2)
    rng = np.random.default_rng(5)
    g_a = rng.random(len(part.boundary))
    g_b = rng.random(len(part.boundary))
    f_a = system.solve(held(g3, part.boundary, g_a))[0]
    f_b = system.solve(held(g3, part.boundary, g_b))[0]
    f_ab = system.solve(held(g3, part.boundary, 2.0 * g_a - 3.0 * g_b))[0]
    sel = part.interior
    np.testing.assert_allclose(f_ab[sel], 2.0 * f_a[sel] - 3.0 * f_b[sel], atol=1e-8)


def test_mean_value_property(g3):
    part, system = box_system(g3, 2)
    rng = np.random.default_rng(11)
    values, _ = system.solve(held(g3, part.boundary, rng.random(len(part.boundary))))
    for v in part.interior[::7]:
        nbrs = g3.rows([v])[1]
        assert values[v] == pytest.approx(values[nbrs].mean(), abs=1e-8)


def test_maximum_principle(g3):
    part, system = box_system(g3, 2)
    rng = np.random.default_rng(3)
    g = rng.random(len(part.boundary))
    values, _ = system.solve(held(g3, part.boundary, g))
    inner = values[part.interior]
    assert inner.min() >= g.min() - 1e-9
    assert inner.max() <= g.max() + 1e-9


def test_harmonic_measures_partition_unity(g2):
    part, system = box_system(g2, 1)
    total = np.zeros(g2.num_vertices)
    for col in np.eye(len(part.boundary)):
        total += system.solve(held(g2, part.boundary, col))[0]
    np.testing.assert_allclose(total[part.interior], 1.0, atol=1e-9)


# -------------------------------------------------------------------- harnack


def test_harnack_level_one_degenerate(g4):
    # Level-1 inner region is a single vertex, so every ratio is 1 and the
    # oscillation contraction is complete.
    rep = harnack_constant(g4, 1)
    assert rep.constant == pytest.approx(1.0, abs=1e-12)
    assert rep.rho == pytest.approx(0.0, abs=1e-12)


def test_harnack_frozen_values(g4):
    rep2 = harnack_constant(g4, 2)
    assert rep2.constant == pytest.approx(1.3843180284844647, rel=1e-8)
    assert rep2.rho == pytest.approx(0.06361285090618535, rel=1e-6)
    rep3 = harnack_constant(g4, 3)
    assert rep3.constant == pytest.approx(1.4665609170196885, rel=1e-8)
    assert rep3.rho == pytest.approx(0.028402719195777262, rel=1e-6)
    rep4 = harnack_constant(g4, 4)
    assert rep4.constant == pytest.approx(1.4947579897555368, rel=1e-8)
    assert rep4.rho == pytest.approx(0.011391894362325235, rel=1e-6)
    # The constant is a property of the box level, not of the ambient build.
    assert rep2.max_residual < 1e-9
    assert rep3.max_residual < 1e-9
    assert rep4.max_residual < 1e-9
    # Witnesses are the first near-maximal boundary vertex in sweep order, so
    # the mirror-symmetric maximizers of each box resolve the same way on the
    # CG and the SuperLU path.
    assert rep2.witness == rep2.rho_witness == (2, 135, 8)
    assert rep3.witness == rep3.rho_witness == (8, 496, 26)
    assert rep4.witness == rep4.rho_witness == (98, 1456, 80)


def test_harnack_level_five(g5):
    # 32,283 unknowns and 485 boundary vertices, 163 of which touch no
    # unknown: a V-cycle first solve, then one symmetric-mode factor for the
    # other 321.  Values frozen from the sweep before that factor.
    rep = harnack_constant(g5, 5)
    assert rep.constant == pytest.approx(1.5012404699559678, rel=1e-8)
    assert rep.rho == pytest.approx(0.0044117337841756005, rel=1e-8)
    assert rep.witness == rep.rho_witness == (296, 12046, 242)
    assert rep.max_residual < 1e-9
    assert (rep.solves, rep.first_path, len(rep.degenerate)) == (322, "V-cycle", 163)
    assert rep.factor_nnz > 0


def test_harnack_witness_attains_constant(g4):
    rep = harnack_constant(g4, 2)
    x, y, b = rep.witness
    part, system = box_system(g4, 2)
    values, _ = system.solve(held(g4, part.boundary, part.boundary == b))
    assert values[x] / values[y] == pytest.approx(rep.constant, rel=1e-7)


def test_harnack_box_level_independence(g4, g5):
    # Same box, bigger ambient graph: identical Dirichlet problem.
    a = harnack_constant(g4, 2)
    b = harnack_constant(g5, 2)
    assert a.constant == pytest.approx(b.constant, rel=1e-9)
    assert a.rho == pytest.approx(b.rho, rel=1e-7)


def test_oscillation_vs_constant(g4):
    # rho <= 1 - 1/C_H for every level where both are defined.
    for n in (2, 3):
        rep = harnack_constant(g4, n)
        assert rep.rho <= 1.0 - 1.0 / rep.constant + 1e-9


def test_harnack_needs_room(g2):
    with pytest.raises(ValueError):
        harnack_constant(g2, 3)  # box level exceeds the built graph


# -------------------------------------------------------------------- hitting


def test_hitting_trivial_regions(g5):
    x = vid(g5, 80, 80)
    spec = HittingSpec(x=x, r=3.0, c1=2.0, c2=4.0)
    assert hitting_probability(g5, spec, vid(g5, 80, 81)) == 1.0  # inside the ball
    far = vid(g5, 80, 85)  # distance 5 is inside c1*r = 6
    p = hitting_probability(g5, spec, far)
    assert 0.0 < p < 1.0


def test_hitting_many_starts_read_one_solve(g5):
    # An array of starts gives an array of its shape from one solve, each
    # entry equal to the call for that start alone.
    x = vid(g5, 80, 80)
    spec = HittingSpec(x=x, r=3.0)
    starts = np.array([[vid(g5, 80, 81), vid(g5, 80, 85)], [vid(g5, 84, 80), vid(g5, 76, 80)]])
    solves = []
    p = hitting_probability(g5, spec, starts, solves=solves)
    assert p.shape == starts.shape and len(solves) == 1
    assert p.tolist() == [[hitting_probability(g5, spec, int(y)) for y in row] for row in starts]
    with pytest.raises(ValueError, match=f"start vertex {vid(g5, 80, 88)} at distance 8 exceeds c1"):
        hitting_probability(g5, spec, np.array([vid(g5, 80, 85), vid(g5, 80, 88)]))
    # Starts that all sit in the inner ball need no solve.
    assert hitting_probability(g5, spec, starts[:1, :1], solves=solves).tolist() == [[1.0]]
    assert len(solves) == 1


def test_hitting_rejects_far_starts(g5):
    x = vid(g5, 80, 80)
    spec = HittingSpec(x=x, r=3.0)
    with pytest.raises(ValueError, match="exceeds c1"):
        hitting_probability(g5, spec, vid(g5, 80, 88))


def test_hitting_needs_absorbing_shell(g2):
    x = vid(g2, 8, 8)
    with pytest.raises(ValueError, match="build"):
        hitting_probability(g2, HittingSpec(x=x, r=3.0), vid(g2, 8, 5))


def test_hitting_spec_validation():
    with pytest.raises(ValueError):
        HittingSpec(x=0, r=-1.0)
    with pytest.raises(ValueError):
        HittingSpec(x=0, r=3.0, c1=4.0, c2=2.0)
    # A NaN radius passed every comparison; an infinite one overflowed later.
    for radii in ({"r": np.nan}, {"r": np.inf}, {"r": 3.0, "c2": np.inf}, {"r": 3.0, "c1": np.nan}):
        with pytest.raises(ValueError, match="radii must be finite"):
            HittingSpec(x=0, **radii)


def test_hitting_catalog_is_deterministic(g5):
    a = hitting_pair_catalog(g5, 3.0, count=10, seed=3)
    b = hitting_pair_catalog(g5, 3.0, count=10, seed=3)
    assert a == b
    c = hitting_pair_catalog(g5, 3.0, count=10, seed=4)
    assert a != c
    for x, y in a:
        delta = g5.coords[y] - g5.coords[x]
        dist = float(np.sqrt((delta.astype(float) ** 2).sum()))
        assert 3.0 <= dist <= 6.0
        # Outer ball fits inside the built window.
        assert (g5.coords[x] + 12.0 <= g5.side - 1).all()


def test_hitting_floor_sample(g5):
    # Spot value on the frozen catalog: the smallest probability over the
    # seed-7 radius-3 catalog.
    pairs = hitting_pair_catalog(g5, 3.0, count=50, seed=7)
    vals = [hitting_probability(g5, HittingSpec(x=x, r=3.0), y) for x, y in pairs]
    assert min(vals) == pytest.approx(0.31144426447819967, rel=1e-6)


def test_hitting_probe_on_the_direct_path_matches_cg(g4, monkeypatch):
    # The r = 9 probes (765 to 1,961 unknowns) factor on their only solve;
    # with the direct path closed they run plain CG to the same answer.
    pairs = hitting_pair_catalog(g4, 9.0, count=4, seed=0)
    solves = []
    direct = [hitting_probability(g4, HittingSpec(x=x, r=9.0), y, solves=solves) for x, y in pairs]
    assert {s["path"] for s in solves} == {"SuperLU"}
    assert all(s["residual"] < 1e-10 for s in solves)
    monkeypatch.setattr(linalg, "DIRECT_MAX", 0)
    forced = []
    plain = [hitting_probability(g4, HittingSpec(x=x, r=9.0), y, solves=forced) for x, y in pairs]
    assert {s["path"] for s in forced} == {"CG"}
    assert [s["unknowns"] for s in forced] == [s["unknowns"] for s in solves]
    np.testing.assert_allclose(direct, plain, rtol=0.0, atol=1e-9)


# ------------------------------------------------------------------ exit time


def test_exit_time_zero_radius(g4):
    assert expected_exit_time(g4, vid(g4, 26, 26), 0.0) == 0.0


def test_exit_time_single_interior_cell():
    # Path of 3, exit from the midpoint at distance 1: one lazy step succeeds
    # with probability 1/2, so the wait is geometric with mean 2.
    path = make_path(3)
    assert expected_exit_time(path, 1, 1.0) == pytest.approx(2.0, abs=1e-10)


def test_exit_time_path_interval():
    # Midpoint of a 5-path, absorbed at distance 2: the classical interval
    # exit time is 4 non-lazy steps, so 8 lazy ones.
    path = make_path(5)
    assert expected_exit_time(path, 2, 2.0) == pytest.approx(8.0, abs=1e-9)


def test_exit_time_takes_an_array_of_radii(g4, g3d):
    # One call over many radii equals the scalar calls bit for bit, in the
    # array's shape, and a non-positive radius gives 0.
    for graph, x in ((g4, vid(g4, 26, 26)), (g3d, central_vertex(g3d))):
        radii = np.array([[3.0, 0.0, 1.5], [-2.0, 9.0, 4.5]])
        times = expected_exit_time(graph, x, radii)
        assert times.shape == radii.shape
        assert times.tolist() == [[expected_exit_time(graph, x, r) for r in row] for row in radii.tolist()]
        assert times[0, 1] == times[1, 0] == 0.0
        assert (times[radii > 0] > 0).all()


def test_exit_time_monotone_in_radius(g5):
    x = vid(g5, 80, 80)
    times = [expected_exit_time(g5, x, r) for r in (2.0, 4.0, 8.0)]
    assert times[0] < times[1] < times[2]


def test_distances_are_the_float_sum_of_squares(g3d4):
    # Squared offsets summed in int64 and one float64 sqrt give the bits of
    # the float64 sum of the squared float offsets: at the corner, the
    # central cell and the last cell of the 3-D level-4 carpet.
    for x in (0, central_vertex(g3d4), g3d4.num_vertices - 1):
        delta = (g3d4.coords - g3d4.coords[x]).astype(np.float64)
        want = np.sqrt((delta**2).sum(axis=1))
        got = _distances(g3d4, x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
