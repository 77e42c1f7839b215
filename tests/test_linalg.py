import itertools
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from carpetlab import linalg
from carpetlab.geometry import box_vertices, build_graph, validate_params
from carpetlab.harmonic import harnack_constant
from carpetlab.linalg import ConvergenceError, DirichletSystem
from carpetlab.resistance import _reached

from conftest import adjacency, checked_aggregates, graph_from_edges, held, make_path
from oracles import dirichlet_energy, operator_by_diags


def test_direct_path_matches_cg(g4):
    # One reused system takes the SuperLU path from its second solve on; each
    # column is checked against a fresh system's one-shot CG solve.
    part = box_vertices(g4, 4)
    reused = DirichletSystem(g4, part.interior)
    # boundary vertices with an interior neighbor carry nonzero data
    touching = [b for b in part.boundary if np.isin(g4.rows([b])[1], part.interior).any()]
    for i, b in enumerate(touching[:: len(touching) // 6][:6]):
        g = np.zeros(g4.num_vertices)
        g[b] = 1.0
        direct, info = reused.solve(g)
        assert (info.iterations == 0) == (i > 0)
        assert info.residual < 1e-10
        fresh = DirichletSystem(g4, part.interior)
        cg_values, cg_info = fresh.solve(g)
        assert cg_info.iterations > 0
        assert fresh._factor is None
        np.testing.assert_allclose(direct, cg_values, rtol=0.0, atol=1e-9)
    assert reused._factor is not None


def test_poisson_rhs_on_direct_path(g3):
    # Right-hand sides on the unknowns go through the factor too.  The solve
    # reads only the border, so data off it may be NaN, and come back as given.
    part = box_vertices(g3, 2)
    system = DirichletSystem(g3, part.interior)
    rhs = g3.degrees[part.interior].astype(np.float64)
    first, _ = system.solve(np.zeros(g3.num_vertices), rhs=rhs)
    border = np.setdiff1d(g3.rows(part.interior)[1], part.interior)
    assert len(border) < len(part.boundary)
    second, info = system.solve(held(g3, border, 0.0), rhs=rhs)
    assert info.iterations == 0
    np.testing.assert_allclose(second[part.interior], first[part.interior], rtol=1e-9)
    np.testing.assert_array_equal(np.delete(second, part.interior),
                                  np.delete(held(g3, border, 0.0), part.interior))


def test_singular_system_raises(g2, monkeypatch):
    # No fixed vertex: the Laplacian is singular, so no backend converges.
    # The 64 unknowns factor on the first solve; with the direct path closed
    # the first solve runs plain CG and the second factors.
    rhs = np.zeros(g2.num_vertices)
    rhs[0] = 1.0
    direct = DirichletSystem(g2, np.arange(g2.num_vertices))
    with pytest.raises(ConvergenceError, match=f"SuperLU.*{g2.num_vertices} unknowns"):
        direct.solve(np.zeros(g2.num_vertices), rhs=rhs)
    monkeypatch.setattr(linalg, "DIRECT_MAX", 0)
    system = DirichletSystem(g2, np.arange(g2.num_vertices))
    # CG meets p.Ap <= 0 long before its cap, and stops there: no division
    # by zero, no NaN iterations.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"^CG broke down at iteration (\d+) with "
                           rf"p\.Ap = .* \(cap {system._cap}, tol 1\.0e-10, 64 unknowns\)$") as err:
            system.solve(np.zeros(g2.num_vertices), rhs=rhs)
    k = int(re.search(r"iteration (\d+)", str(err.value)).group(1))
    history = err.value.residuals
    assert 1 < k < system._cap and len(history) == k - 1  # one entry per completed update
    assert np.isfinite(history).all()
    with pytest.raises(ConvergenceError, match=f"SuperLU.*{g2.num_vertices} unknowns"):
        system.solve(np.zeros(g2.num_vertices), rhs=rhs)
    # A longer singular path keeps p.Ap positive and stalls at the cap.
    n = 5000
    system = DirichletSystem(make_path(n), np.arange(n))
    rhs = np.zeros(n)
    rhs[0] = 1.0
    with pytest.raises(ConvergenceError, match=f"^CG stalled .* after {system._cap} iterations"):
        system.solve(np.zeros(n), rhs=rhs)


@pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, np.nan, np.inf])
def test_tolerance_must_lie_in_the_unit_interval(g2, tol):
    # A NaN tolerance would stop CG at once with x = 0 as "converged".
    system = DirichletSystem(g2, np.arange(1, g2.num_vertices))
    with pytest.raises(ValueError, match=rf"tolerance must be in \(0, 1\), got {tol!r}"):
        system.solve(held(g2, [0], 1.0), tol=tol)


def test_exactly_singular_factor_raises(monkeypatch):
    # The factor of the singular path Laplacian hits an exactly zero pivot,
    # on the first solve of this small system.  Consistent data let plain CG
    # converge on it; the second solve's factor then fails the same way.
    rhs = np.array([1.0, 0.0, -1.0])
    with pytest.raises(ConvergenceError, match="SuperLU factor failed on 3 unknowns"):
        DirichletSystem(make_path(3), np.arange(3)).solve(np.zeros(3), rhs=rhs)
    monkeypatch.setattr(linalg, "DIRECT_MAX", 0)
    system = DirichletSystem(make_path(3), np.arange(3))
    assert system.solve(np.zeros(3), rhs=rhs)[1].path == "CG"
    with pytest.raises(ConvergenceError, match="SuperLU factor failed on 3 unknowns"):
        system.solve(np.zeros(3), rhs=rhs)


def test_factor_pivots_on_the_diagonal(g4):
    # SuperLU's symmetric mode orders rows and columns alike and pivots on
    # the diagonal, so the row and column permutations agree.
    part = box_vertices(g4, 4)
    system = DirichletSystem(g4, part.interior)
    assert system.factor_nnz == 0
    factor = system._factored()
    np.testing.assert_array_equal(factor.perm_r, factor.perm_c)
    assert system.factor_nnz == factor.L.nnz + factor.U.nnz > 0


def test_small_systems_factor_on_their_first_solve(g4, monkeypatch):
    # 3,935 unknowns start on CG; the level-3 box (459 unknowns) factors at
    # once, and its answer is the plain CG answer.
    part = box_vertices(g4, 4)
    g = np.ones(g4.num_vertices)
    assert DirichletSystem(g4, part.interior).solve(g)[1].path == "CG"
    part = box_vertices(g4, 3)
    g = held(g4, part.boundary, np.linspace(0.0, 1.0, len(part.boundary)))
    direct, info = DirichletSystem(g4, part.interior).solve(g)
    assert (len(part.interior), info.path, info.iterations) == (459, "SuperLU", 0)
    monkeypatch.setattr(linalg, "DIRECT_MAX", 0)
    plain, info = DirichletSystem(g4, part.interior).solve(g)
    assert info.path == "CG" and info.iterations > 0
    np.testing.assert_allclose(direct, plain, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("level, path", [(3, "SuperLU"), (4, "CG")])
def test_data_must_be_finite(g4, level, path):
    # A NaN or an infinity on the border, or in the rhs, is rejected before
    # the solve on either first-solve path; a vertex system checks its
    # (singleton) orbits too, which a NaN would fail with a misleading message.
    part = box_vertices(g4, level)
    system = DirichletSystem(g4, part.interior)
    border = np.setdiff1d(g4.rows(part.interior)[1], part.interior)
    for bad in (np.nan, np.inf, -np.inf):
        g = np.ones(g4.num_vertices)
        g[border[len(border) // 2]] = bad
        with pytest.raises(ValueError, match="^fixed values must be finite on the border$"):
            system.solve(g)
        rhs = np.zeros(len(part.interior))
        rhs[-1] = bad
        with pytest.raises(ValueError, match="^rhs must be finite on the unknowns$"):
            system.solve(np.ones(g4.num_vertices), rhs=rhs)
    values, info = system.solve(held(g4, border, 1.0))
    assert info.path == path
    np.testing.assert_allclose(values[part.interior], 1.0, rtol=0.0, atol=1e-9)


def test_system_without_unknowns_returns_its_data(g3):
    # Nothing to solve: the data come back as given, on the general path.
    values = np.linspace(0.0, 1.0, g3.num_vertices)
    for orbits in (None, g3.orbits(g3.symmetries([0]))):
        system = DirichletSystem(g3, np.array([], dtype=np.int64), orbits=orbits)
        solved, info = system.solve(values, rhs=np.zeros(0))
        np.testing.assert_array_equal(solved, values)
        assert (info.residual, info.iterations, info.path) == (0.0, 0, "none")


# ------------------------------------------------------- multigrid-preconditioned CG


def _face_system(graph):
    """The face-to-face resistance layout: 1 on the x_0 = 0 face, 0 on the far face."""
    first = graph.coords[:, 0]
    unknown = np.nonzero((first > 0) & (first < graph.side - 1))[0]
    return DirichletSystem(graph, unknown), (first == 0).astype(np.float64)


def test_multigrid_matches_plain_cg(g5, monkeypatch):
    # Second method: the same 32,282-unknown system on both one-shot paths.
    system, values = _face_system(g5)
    assert len(system.unknown) > linalg.MULTIGRID_MIN
    mg, mg_info = system.solve(values)
    monkeypatch.setattr(linalg, "MULTIGRID_MIN", len(system.unknown))
    plain, plain_info = _face_system(g5)[0].solve(values)
    assert mg_info.iterations < 40 < plain_info.iterations
    assert max(mg_info.residual, plain_info.residual) < 1e-10
    np.testing.assert_allclose(mg, plain, rtol=0.0, atol=1e-8)
    assert dirichlet_energy(g5, mg) == pytest.approx(dirichlet_energy(g5, plain), rel=1e-9)


@pytest.mark.parametrize("d, k, a, n", [(2, 3, 1, 5), (2, 3, 1, 6), (3, 3, 1, 4), (2, 5, 3, 4)])
def test_multigrid_iterations_stay_flat_across_levels(d, k, a, n):
    # Plain CG needs 1,083 iterations at 2-D level 5 and 3,329 at level 6.
    system, values = _face_system(build_graph(n, validate_params(d, k, a)))
    assert len(system.unknown) > linalg.MULTIGRID_MIN
    _, info = system.solve(values)
    assert info.residual < 1e-10
    assert 0 < info.iterations <= 40


def test_non_carpet_graph_takes_the_multigrid_path():
    # A 40,000-vertex path with its ends held at 0 and 1: the potential is
    # linear.  Plain CG would need about 20,000 iterations, beyond its cap.
    n = 40_000
    system = DirichletSystem(make_path(n), np.arange(1, n - 1))
    values, info = system.solve(held(make_path(n), [0, n - 1], [0.0, 1.0]))
    assert info.iterations <= 40
    np.testing.assert_allclose(values, np.arange(n) / (n - 1), rtol=0.0, atol=1e-8)


def test_multigrid_stall_names_the_method(monkeypatch):
    # A singular path Laplacian with inconsistent data never converges; a
    # lowered threshold puts this small system on the preconditioned path.
    monkeypatch.setattr(linalg, "MULTIGRID_MIN", 1000)
    n = 2000
    system = DirichletSystem(make_path(n), np.arange(n))
    rhs = np.zeros(n)
    rhs[0] = 1.0
    cycles = []
    v_cycle = linalg._v_cycle
    monkeypatch.setattr(linalg, "_v_cycle", lambda *args: cycles.append(1) or v_cycle(*args))
    with pytest.raises(ConvergenceError) as err:
        system.solve(np.zeros(n), rhs=rhs)
    message = str(err.value)
    cap = system._cap
    assert message.startswith("multigrid-preconditioned CG stalled")
    assert f"after {cap} iterations (cap {cap}," in message
    assert f"{n} unknowns" in message
    # CG ran once, one V-cycle per update.  The history is that run's own,
    # one entry per update, and it ends at the residual the message quotes.
    assert len(cycles) == len(err.value.residuals) == cap
    assert f"residual {err.value.residuals[-1]:.3e} after" in message


def test_bytes_do_not_depend_on_the_blas_thread_count():
    # BLAS splits long dot products across its threads, and the solver's sums
    # do not go through it: the 2-D level-5 face resistance, a CG solve on
    # tens of thousands of unknowns, has the same bits at 1 and at 2 threads.
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("from carpetlab.geometry import build_graph, validate_params\n"
            "from carpetlab.resistance import face_resistance\n"
            "print(repr(face_resistance(build_graph(5, validate_params(2, 3, 1)))))")
    printed = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        printed.append(proc.stdout)
    assert printed[0] == printed[1]
    assert float(printed[0]) == pytest.approx(3.52509072955230, rel=1e-12)


def test_singular_coarsest_factor_raises():
    # 186 disjoint components, each a connected 2 x 3^4 grid inside one 3^5
    # coordinate block, and no fixed vertex: the Galerkin operator of the 186
    # blocks is exactly zero.
    coords, edges = [], []
    cells = list(itertools.product(range(2), *[range(3)] * 4))
    for block in range(186):
        index = {cell: len(coords) + i for i, cell in enumerate(cells)}
        edges += [(index[c], index[c[:axis] + (c[axis] + 1,) + c[axis + 1:]])
                  for c in cells for axis in range(5) if c[axis] + 1 < (2, 3, 3, 3, 3)[axis]]
        coords += [(3 * block + c[0], *c[1:]) for c in cells]
    graph = graph_from_edges(coords, edges)
    system = DirichletSystem(graph, np.arange(graph.num_vertices))
    rhs = np.zeros(graph.num_vertices)
    rhs[0] = 1.0
    with pytest.raises(ConvergenceError, match="multigrid coarsest factor failed on 186 of "
                                               "30132 unknowns: Factor is exactly singular"):
        system.solve(np.zeros(graph.num_vertices), rhs=rhs)


def test_hierarchy_stops_where_aggregation_stalls(monkeypatch):
    # Every other vertex of a path fixed: the 1,000 unknowns have no unknown
    # neighbor, so no aggregate merges two rows, and the hierarchy factors
    # the diagonal operator at the fine level instead of looping.
    monkeypatch.setattr(linalg, "MULTIGRID_MIN", 0)
    n = 2001
    system = DirichletSystem(make_path(n), np.arange(1, n, 2))
    g = np.arange(0, n, 2) ** 2.0
    values, info = system.solve(np.arange(n) ** 2.0)
    assert (info.path, info.iterations) == ("V-cycle", 1)
    np.testing.assert_allclose(values[1::2], (g[:-1] + g[1:]) / 2, rtol=1e-12)


def test_aggregates_are_connected():
    # Two adjacent unknowns of degree 2, each alone in its 3 x 3 block, join
    # one aggregate; the block (0, 0) splits into its two connected pieces.
    lap = sp.csr_matrix(np.array([[2.0, -1, 0, 0, 0],
                                  [-1, 2, 0, 0, 0],
                                  [0, 0, 2, 0, -1],
                                  [0, 0, 0, 2, 0],
                                  [0, 0, -1, 0, 2]]))
    coords = np.array([[3, 0], [6, 0], [0, 0], [2, 2], [1, 0]])
    agg, blocks = linalg._aggregate(lap, coords)
    assert agg.tolist() == [2, 2, 0, 1, 0]
    assert blocks.tolist() == [[0, 0], [0, 0], [1, 0]]


def _resistance_layout(graph, source, ground):
    """Unknowns and orbits of ``effective_resistance(graph, source, ground)``'s solve."""
    source = np.asarray(source)
    least = graph.orbits(graph.symmetries(source, ground))
    reached = _reached(graph, least, source, ground)[0]
    reached[source] = False
    return np.flatnonzero(reached), least


def _3d_layout(graph, name):
    """One of the resist experiment's two multigrid systems on the 3-D level-4
    carpet: "face", or "R_4", the corner cell grounded at the level-4 box faces."""
    if name == "R_4":
        return _resistance_layout(graph, [0], box_vertices(graph, 4).boundary)
    first = graph.coords[:, 0]
    return _resistance_layout(graph, np.flatnonzero(first == 0), np.flatnonzero(first == graph.side - 1))


@pytest.mark.parametrize("layout, sizes", [("face", [57_454, 2_456]), ("R_4", [74_894, 3_188])])
def test_aggregates_match_the_link_list_reference(g3d4, layout, sizes, monkeypatch):
    # At both levels of each hierarchy, the aggregation that builds its
    # links in int32 and straight into CSR numbers the same aggregates as
    # the one from int64 rows, int64 keys and float64 weights.
    unknown, orbits = _3d_layout(g3d4, layout)
    system = DirichletSystem(g3d4, unknown, orbits=orbits)
    seen = checked_aggregates(monkeypatch)
    linalg._hierarchy(system._lap, g3d4.coords[system._reps])
    assert seen == sizes


def test_setup_memory_stays_in_its_budget(g3d4):
    # Python-heap peak (tracemalloc) of building the 3-D level-4 face system
    # (443,854 unknowns, 57,454 orbits) and its multigrid hierarchy, the
    # resist experiment's set-up.  Measured at 18.7 MB; the bound adds 15%.
    # With int64 ids, int64/float64 link lists in the aggregation and
    # |V|-long int64 tables in the constructor it peaked at 26.9 MB.
    unknown, orbits = _3d_layout(g3d4, "face")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        system = DirichletSystem(g3d4, unknown, orbits=orbits)
        hierarchy = linalg._hierarchy(system._lap, g3d4.coords[system._reps])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(hierarchy[0]) == 2
    assert peak < 1.15 * 18.7e6, f"set-up peaked at {peak / 1e6:.1f} MB"


# ------------------------------------------------------------- orbit quotient


def _face_orbits(graph):
    """The face layout of :func:`_face_system` and the orbits of the face pair's symmetries."""
    system, values = _face_system(graph)
    first = graph.coords[:, 0]
    rows = graph.symmetries(np.nonzero(first == 0)[0], np.nonzero(first == graph.side - 1)[0])
    return system.unknown, values, graph.orbits(rows)


def test_orbit_quotient_of_the_3d_face_system(g3d4):
    # 443,854 vertex unknowns lump to 57,454 orbits under the 8 symmetries;
    # the V-cycle still solves them in about 30 iterations.
    unknown, values, orbits = _face_orbits(g3d4)
    system = DirichletSystem(g3d4, unknown, orbits=orbits)
    assert (len(system.unknown), system.orbit_unknowns) == (443_854, 57_454)
    solved, info = system.solve(values)
    assert info.path == "V-cycle" and info.iterations <= 40
    assert info.residual < 1e-10
    assert 1.0 / dirichlet_energy(g3d4, solved) == pytest.approx(0.016204859222619692, rel=1e-9)


def test_orbit_sets_must_be_unions_of_orbits(g3):
    unknown, _, orbits = _face_orbits(g3)
    split = np.nonzero(orbits[unknown] != unknown)[0][0]  # a vertex whose orbit has another
    with pytest.raises(ValueError, match="unknown vertex set is not a union of orbits"):
        DirichletSystem(g3, np.delete(unknown, split), orbits=orbits)
    with pytest.raises(ValueError, match="orbits must give every vertex its orbit"):
        DirichletSystem(g3, unknown, orbits=orbits[:-1])


def test_orbit_data_must_be_constant_on_orbits(g3):
    # Data that vary on an orbit of the border raise; off the border (a face
    # cell whose only neighbors lie on its face) they are never read.
    unknown, values, orbits = _face_orbits(g3)
    system = DirichletSystem(g3, unknown, orbits=orbits)
    border = np.setdiff1d(g3.rows(unknown)[1], unknown)
    paired = np.flatnonzero(orbits != np.arange(g3.num_vertices))  # orbits with another vertex
    broken = values.copy()
    broken[np.intersect1d(paired, border)[0]] = 0.5
    with pytest.raises(ValueError, match="fixed values are not constant on orbits"):
        system.solve(broken)
    broken[np.intersect1d(paired, border)[0]] = np.nan  # finiteness is checked first
    with pytest.raises(ValueError, match="fixed values must be finite on the border"):
        system.solve(broken)
    solved, _ = system.solve(values)
    broken = values.copy()
    broken[np.setdiff1d(paired, np.union1d(unknown, border))[0]] = 0.5
    np.testing.assert_array_equal(system.solve(broken)[0][unknown], solved[unknown])
    rhs = np.zeros(len(unknown))
    rhs[np.nonzero(orbits[unknown] != unknown)[0][0]] = 1.0
    with pytest.raises(ValueError, match="rhs are not constant on orbits"):
        system.solve(values, rhs=rhs)
    with pytest.raises(ValueError, match="rhs must align"):
        system.solve(values, rhs=rhs[:-1])
    # Orbit-constant data pass, and the solution is constant on orbits.
    rhs = g3.degrees[unknown].astype(np.float64)
    solved, _ = system.solve(values, rhs=rhs)
    np.testing.assert_array_equal(solved[orbits[unknown]], solved[unknown])


def test_vertex_basis_is_the_plain_assembly(g4):
    # Without orbits, and with singleton orbits, the operator and the
    # coupling are the sliced Laplacian exactly as a plain Dirichlet solve
    # builds it, entry for entry, so the level-4 Harnack sweep is unchanged
    # to the last bit (values frozen from the sweep before orbit solves, and
    # again when CG took its sums pairwise; C_H and rho lie within 6.3e-10
    # and 1.6e-9 relative of an all-SuperLU sweep's 1.4947579888243514 and
    # 0.011391894344923562).
    # The coupling reads the border alone: 106 of the 161 boundary cells.
    part = box_vertices(g4, 4)
    rows = adjacency(g4)[part.interior]
    lap = sp.diags(g4.degrees[part.interior].astype(np.float64)) - rows[:, part.interior]
    border = np.setdiff1d(rows.indices, part.interior)
    assert (len(border), len(part.boundary)) == (106, 161)
    coupling = rows[:, border]
    for orbits in (None, g4.orbits([0])):
        system = DirichletSystem(g4, part.interior, orbits=orbits)
        np.testing.assert_array_equal(np.unique(system._coupling.indices), border)
        for built, plain in ((system._lap, lap), (system._coupling[:, border], coupling)):
            for attr in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(built, attr), getattr(plain, attr))
    report = harnack_constant(g4, 4)
    assert (report.constant, report.rho) == (1.4947579897559962, 0.011391894362335786)
    assert report.witness == report.rho_witness == (98, 1456, 80)
    assert report.max_residual == 9.556978180121467e-11
    assert len(report.degenerate) == 55


@pytest.mark.parametrize("layout", ["face", "R_4"])
def test_orbit_basis_is_the_sparse_assembly(g3d4, layout):
    # On the 3-D level-4 orbit systems the operator is diags(deg) - offdiag
    # bit for bit, dtypes included, and each orbit's coupling row is its
    # representative's adjacency row on the border, by vertex id.
    unknown, orbits = _3d_layout(g3d4, layout)
    system = DirichletSystem(g3d4, unknown, orbits=orbits)
    assert system.orbit_unknowns < len(unknown)
    rows = adjacency(g3d4)[system._reps]
    border = np.setdiff1d(rows.indices, unknown)
    np.testing.assert_array_equal(np.unique(system._coupling.indices), border)
    want = operator_by_diags(g3d4, unknown, orbits)
    for attr in ("indptr", "indices", "data"):
        got, expect = getattr(system._lap, attr), getattr(want, attr)
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes(), attr
        np.testing.assert_array_equal(getattr(system._coupling[:, border], attr),
                                      getattr(rows[:, border], attr))
