import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from carpetlab import geometry
from carpetlab.geometry import (
    CapacityError,
    box_vertices,
    build_graph,
    count_cells,
    hausdorff_dimension,
    read_graph,
    signed_permutations,
    validate_params,
    write_graph,
)
from carpetlab.coupling import run_coupled_walk
from carpetlab.harmonic import HittingSpec, expected_exit_time, hitting_probability
from carpetlab.harness import ExperimentConfig, run_suite
from carpetlab.heat import TransitionOperator, central_vertex, fit_regimes, kernel_entries, walk_kernel
from carpetlab.linalg import DirichletSystem
from carpetlab.resistance import effective_resistance, face_resistance, resistance_to_infinity

from conftest import adjacency, graph_from_edges, make_path, vid
from oracles import survival_mask


# ---------------------------------------------------------------- parameters


def test_validate_params_accepts_known_families():
    p = validate_params(2, 3, 1)
    assert (p.d, p.k, p.a) == (2, 3, 1)
    assert list(p.central_range) == [1]
    assert validate_params(3, 3, 1).d == 3
    assert validate_params(2, 4, 2).central_range == range(1, 3)
    assert validate_params(2, 5, 3).central_range == range(1, 4)


@pytest.mark.parametrize(
    "d,k,a",
    [
        (1, 3, 1),  # need at least two dimensions
        (2, 3, 3),  # a must be smaller than k
        (2, 3, 0),  # a must be positive
        (2, 3, 2),  # a + k must be even
        (2, 4, 1),
        (2, 2, 1),
        (0, 3, 1),
    ],
)
def test_validate_params_rejects(d, k, a):
    with pytest.raises(ValueError):
        validate_params(d, k, a)


def test_cells_per_level(params2, params3):
    assert params2.cells_per_level == 8
    assert params3.cells_per_level == 26


# ------------------------------------------------------------------ survival


def test_center_cell_is_removed(params2):
    cells = np.array([(x, y) for x in range(3) for y in range(3)])
    alive = survival_mask(cells, 1, params2)
    assert [tuple(c) for c in cells[~alive]] == [(1, 1)]


def test_survival_is_checked_at_every_level(params2):
    # A dead digit anywhere along the address kills the cell: the base-3
    # digit vectors are (1,1)(0,0), (0,0)(1,1) and (0,2)(2,0).
    cells = np.array([(3, 3), (1, 1), (2, 6)])
    assert survival_mask(cells, 2, params2).tolist() == [False, False, True]


def test_survival_mask_matches_pointwise():
    # The brute-force survival test over the whole window marks exactly the
    # cells that build_graph's line tables keep.
    for d, k, a, n in [(2, 3, 1, 2), (2, 3, 1, 3), (2, 4, 2, 2), (2, 5, 1, 2), (2, 5, 3, 2), (3, 3, 1, 2)]:
        params = validate_params(d, k, a)
        window = np.indices((k**n,) * d).reshape(d, -1).T
        alive = survival_mask(window, n, params)
        np.testing.assert_array_equal(window[alive], build_graph(n, params).coords,
                                      err_msg=f"(d, k, a, n) = {(d, k, a, n)}")


def test_count_cells(params2, params3):
    assert [count_cells(n, params2) for n in range(6)] == [1, 8, 64, 512, 4096, 32768]
    assert count_cells(1, params3) == 26
    assert count_cells(3, params3) == 17576
    # Plain integer power: no silent wraparound at large levels.
    assert count_cells(30, params2) == 8**30


def test_hausdorff_dimension(params2, params3):
    assert hausdorff_dimension(params2) == pytest.approx(1.892789260714372, abs=1e-15)
    assert hausdorff_dimension(params3) == pytest.approx(math.log(26) / math.log(3), abs=1e-15)
    assert hausdorff_dimension(validate_params(2, 4, 2)) == pytest.approx(
        math.log(12) / math.log(4), abs=1e-15
    )


# -------------------------------------------------------------- construction


def test_level_counts_2d(g1, g2, g3, g4, g5):
    assert (g1.num_vertices, g1.num_edges) == (8, 8)
    assert (g2.num_vertices, g2.num_edges) == (64, 88)
    assert (g3.num_vertices, g3.num_edges) == (512, 776)
    assert (g4.num_vertices, g4.num_edges) == (4096, 6424)
    assert (g5.num_vertices, g5.num_edges) == (32768, 52040)


def test_level_counts_3d(params3, g3d):
    g1 = build_graph(1, params3)
    assert (g1.num_vertices, g1.num_edges) == (26, 48)
    assert (g3d.num_vertices, g3d.num_edges) == (17576, 47568)


def test_level_one_is_a_cycle(g1):
    assert (g1.degrees == 2).all()
    ncomp, _ = connected_components(adjacency(g1), directed=False)
    assert ncomp == 1


def test_connected(g3, g3d):
    for g in (g3, g3d):
        ncomp, _ = connected_components(adjacency(g), directed=False)
        assert ncomp == 1


def test_coords_are_lex_sorted_and_unique(g3):
    keys = g3.coords[:, 0] * g3.side + g3.coords[:, 1]
    assert (np.diff(keys) > 0).all()


def test_edges_join_unit_distance_cells(g2, g3d):
    for g in (g2, g3d):
        i, j = g.edges()
        diffs = np.abs(g.coords[i] - g.coords[j])
        assert (diffs.sum(axis=1) == 1).all()
        assert (i < j).all()


def test_degrees_bounded_by_2d(g4, g3d):
    assert g4.degrees.max() <= 4
    assert g3d.degrees.max() <= 6
    assert g4.degrees.min() >= 1


def test_vertex_id_round_trip(g2):
    for i in range(g2.num_vertices):
        assert vid(g2, *g2.coords[i]) == i
    absent = [[1, 1],  # removed cell
              [9, 0],  # outside the window
              [-1, 10]]  # outside, with the key of (0, 1)
    assert g2.vertex_ids(np.array(absent)).tolist() == [-1, -1, -1]


def test_vertex_ids_vectorized(g2):
    queries = np.array([[0, 0], [1, 1], [8, 8], [99, 0]])
    got = g2.vertex_ids(queries)
    assert got[0] == 0
    assert got[1] == -1
    assert got[2] == g2.num_vertices - 1
    assert got[3] == -1


def test_nesting(g2, g3):
    # The level-2 corner box of the level-3 graph is the level-2 graph.
    inside = (g3.coords < 9).all(axis=1)
    np.testing.assert_array_equal(g3.coords[inside], g2.coords)
    i3, j3 = g3.edges()
    keep = inside[i3] & inside[j3]
    # Vertex ids agree because both orders are lexicographic.
    relabel = np.cumsum(inside) - 1
    inner_edges = set(zip(relabel[i3[keep]].tolist(), relabel[j3[keep]].tolist()))
    assert inner_edges == set(zip(*(ends.tolist() for ends in g2.edges())))


def test_reflection_symmetry(g3):
    # The cell set is invariant under axis swap and under reflection of any
    # single axis through the window midplane.
    keys = {tuple(map(int, row)) for row in g3.coords}
    assert {(y, x) for x, y in keys} == keys
    assert {(g3.side - 1 - x, y) for x, y in keys} == keys


@pytest.mark.parametrize("d, k, a, n", [(2, 3, 1, 3), (3, 3, 1, 2), (2, 4, 2, 2), (4, 3, 1, 1)])
def test_symmetry_groups_of_the_resistance_problems(d, k, a, n):
    graph = build_graph(n, validate_params(d, k, a))
    perms, signs = signed_permutations(d)
    first = graph.coords[:, 0]
    # The two faces keep axis 0 and its direction, also on an even side
    # such as (2,4,2), where no vertex sits on the window's midplane.
    face = graph.symmetries(np.nonzero(first == 0)[0], np.nonzero(first == graph.side - 1)[0])
    np.testing.assert_array_equal(face, np.nonzero((perms[:, 0] == 0) & (signs[:, 0] == 1))[0])
    assert len(face) == 2 ** (d - 1) * math.factorial(d - 1)
    # A corner target and the faces of its box keep the axis permutations
    # that map the target onto itself.
    ground = box_vertices(graph, n).boundary
    unsigned = (signs == 1).all(axis=1)
    np.testing.assert_array_equal(graph.symmetries([0], ground), np.nonzero(unsigned)[0])
    pair = [0, vid(graph, 1, *[0] * (d - 1))]
    np.testing.assert_array_equal(graph.symmetries(pair, ground),
                                  np.nonzero(unsigned & (perms[:, 0] == 0))[0])


def test_orbits_are_least_vertices(g3d):
    least = g3d.orbits(g3d.symmetries([0]))
    assert (least <= np.arange(g3d.num_vertices)).all()
    np.testing.assert_array_equal(least[least], least)
    # (1, 2, 0) lies in the orbit of the 6 axis permutations of (0, 1, 2).
    assert least[vid(g3d, 1, 2, 0)] == vid(g3d, 0, 1, 2)
    assert np.bincount(least).max() == 6
    # The identity alone, and any plain vertex graph, give singleton orbits.
    np.testing.assert_array_equal(g3d.orbits([0]), np.arange(g3d.num_vertices))
    path = make_path(5)
    np.testing.assert_array_equal(path.symmetries([2]), [0])
    np.testing.assert_array_equal(path.orbits(path.symmetries([2])), np.arange(5))


def test_symmetries_reject_ids_outside_the_graph(g4):
    # An id outside [0, |V|) is named, not wrapped to the last vertex or
    # left to empty the group.
    for ids in ([-1], [0, g4.num_vertices]):
        with pytest.raises(ValueError, match=rf"vertex id {ids[-1]} is outside \[0, 4096\)"):
            g4.symmetries(ids)
    with pytest.raises(ValueError, match=r"vertex id -1 is outside \[0, 4096\)"):
        g4.symmetries([0], [-1, 1])
    # The solvers that take their group from the ids they are given.
    for call in (lambda: expected_exit_time(g4, -1, 3.0),
                 lambda: resistance_to_infinity(g4, [-1], [1, 2, 3]),
                 lambda: walk_kernel(g4, -1, [], [4], [16])):
        with pytest.raises(ValueError, match=r"vertex id -1 is outside \[0, 4096\)"):
            call()


ENTRY_POINTS = {
    "hitting x": lambda g, v: hitting_probability(g, HittingSpec(x=v, r=3.0), 4091),
    "hitting y": lambda g, v: hitting_probability(g, HittingSpec(x=0, r=3.0), [10, v]),
    "exit time": lambda g, v: expected_exit_time(g, v, 3.0),
    "effective resistance": lambda g, v: effective_resistance(g, [v], [0]),
    "resistance to infinity": lambda g, v: resistance_to_infinity(g, [v], [1, 2, 3]),
    "coupled walk x": lambda g, v: run_coupled_walk(g, v, 0, 2, trials=1),
    "coupled walk y": lambda g, v: run_coupled_walk(g, 0, v, 2, trials=1),
    "kernel source": lambda g, v: next(kernel_entries(TransitionOperator(g), v, [0], [1])),
    "kernel ids": lambda g, v: walk_kernel(g, 0, [v], [64], []),
    "regime source": lambda g, v: fit_regimes(g, v, [(1, 16, 0.01)], ds=1.8, dw=2.1),
    "regime samples": lambda g, v: fit_regimes(g, 0, [(1, 16, 0.01), (v, 16, 0.01)], ds=1.8, dw=2.1),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [-1, 4096])
def test_entry_points_reject_ids_outside_the_graph(g4, entry, bad):
    # Every library call that indexes with a vertex id names a bad one: a
    # negative id is not wrapped to the last vertex, nor |V| left to numpy.
    with pytest.raises(ValueError, match=rf"vertex id {bad} is outside \[0, 4096\)"):
        ENTRY_POINTS[entry](g4, bad)


def test_vertex_graph_symmetries_reject_ids_outside_the_graph():
    path = make_path(5)
    for bad in (-1, 5):
        with pytest.raises(ValueError, match=rf"vertex id {bad} is outside \[0, 5\)"):
            path.symmetries([2], [bad])
        with pytest.raises(ValueError, match=rf"vertex id {bad} is outside \[0, 5\)"):
            walk_kernel(path, bad, [], [4], [16])


def test_box_partition(g3):
    sizes = {}
    for j in (1, 2, 3):
        bp = box_vertices(g3, j)
        annulus = np.setdiff1d(bp.interior, bp.inner)
        sizes[j] = (len(bp.inner), len(annulus), len(bp.boundary))
        combined = np.concatenate([bp.inner, annulus, bp.boundary])
        assert len(np.unique(combined)) == len(combined) == len(bp.box)
        assert set(combined.tolist()) == set(bp.box.tolist())
        # Boundary layer = box cells on the high faces.
        on_face = (g3.coords[bp.box] == 3**j - 1).any(axis=1)
        np.testing.assert_array_equal(np.sort(bp.box[on_face]), np.sort(bp.boundary))
        assert set(bp.interior.tolist()) == set(bp.box.tolist()) - set(bp.boundary.tolist())
    assert sizes == {1: (1, 2, 5), 2: (8, 39, 17), 3: (64, 395, 53)}
    with pytest.raises(ValueError):
        box_vertices(g3, 4)


@pytest.mark.parametrize("d,k,a,n", [(3, 3, 1, 3), (2, 5, 3, 2), (2, 5, 1, 2), (4, 3, 1, 2),
                                     (2, 3, 1, 4), (2, 5, 3, 3), (2, 4, 2, 3)])
def test_box_sets_follow_the_coordinate_rule(d, k, a, n):
    # Read off each cell's largest coordinate, the sets must be the sorted
    # ids of the coordinate-wise definitions.
    graph = build_graph(n, validate_params(d, k, a))
    c = graph.coords
    for j in range(n + 1):
        bp = box_vertices(graph, j)
        in_box = (c < k**j).all(axis=1)
        on_face = in_box & (c == k**j - 1).any(axis=1)
        inner = in_box & (c < (k ** (j - 1) if j else 0)).all(axis=1) & ~on_face
        np.testing.assert_array_equal(bp.box, np.flatnonzero(in_box))
        np.testing.assert_array_equal(bp.boundary, np.flatnonzero(on_face))
        np.testing.assert_array_equal(bp.inner, np.flatnonzero(inner))
        np.testing.assert_array_equal(bp.interior, np.flatnonzero(in_box & ~on_face))
        annulus = np.setdiff1d(bp.interior, bp.inner)
        np.testing.assert_array_equal(annulus, np.flatnonzero(in_box & ~on_face & ~inner))


def test_boundary_is_one_step_exit_layer(g4):
    # From a boundary cell of the level-2 box the walk can leave the box in
    # one step; from interior cells it cannot.
    bp = box_vertices(g4, 2)
    in_box = np.zeros(g4.num_vertices, dtype=bool)
    in_box[bp.box] = True
    for v in bp.boundary:
        assert any(not in_box[w] for w in g4.rows([v])[1])
    for v in bp.interior:
        assert all(in_box[w] for w in g4.rows([v])[1])


# ----------------------------------------------------------------- adjacency


def test_rows_gather_as_scipy_indexes(g3):
    # Unsorted, repeated and empty id lists, and a graph with an isolated
    # vertex (id 3) whose row is empty.
    isolated = graph_from_edges([(0, 0), (1, 0), (2, 0), (5, 5), (2, 1)], [(0, 1), (1, 2), (2, 4)])
    cases = [(g3, [511, 0, 7, 300]), (g3, [5, 5, 0, 5]), (g3, []), (g3, np.arange(g3.num_vertices)),
             (isolated, [3]), (isolated, [2, 3, 3, 0])]
    for graph, ids in cases:
        want = adjacency(graph)[np.asarray(ids, dtype=np.int64)]
        indptr, indices = graph.rows(ids)
        assert indptr.dtype == indices.dtype == np.int32
        np.testing.assert_array_equal(indptr, want.indptr)
        np.testing.assert_array_equal(indices, want.indices)


def test_the_csr_is_the_only_adjacency(params3):
    # After every solver and walk has read the graph, it holds no scipy matrix
    # and no other array as large as its indices (2E entries), such as a
    # cached adjacency or edge list.
    graph = build_graph(2, params3)
    part = box_vertices(graph, 2)
    DirichletSystem(graph, part.interior).solve(np.zeros(graph.num_vertices))
    face_resistance(graph)
    resistance_to_infinity(graph, [0], [1, 2])
    walk_kernel(graph, central_vertex(graph), [0], [4], [16])
    kept = [(name, value) for name, value in vars(graph).items() if name != "indices"]
    kept += [(f"{name}[{key}]", item) for name, value in kept if isinstance(value, dict)
             for key, item in value.items()]
    for name, value in kept:
        assert not sp.issparse(value), name
        assert not (isinstance(value, np.ndarray) and value.size >= len(graph.indices)), name


def scipy_modules_after_import(*modules, then: str = "") -> str:
    """The scipy modules loaded by importing ``modules`` in a fresh interpreter
    and then running the statements ``then``, as the last line printed."""
    src = os.path.dirname(os.path.dirname(geometry.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (f"import sys, {', '.join(modules)}\n{then}\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return proc.stdout.splitlines(keepends=True)[-1]


def test_geometry_imports_no_scipy():
    assert scipy_modules_after_import("carpetlab.geometry") == "[]\n"


def _config(tmp_path, experiments: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(f"levels = 2,3,4\nexperiments = {experiments}\n")
    return repr(str(path))


def test_building_and_coupling_import_no_scipy(tmp_path):
    # The coupled walk needs no solver: its modules leave scipy unloaded, and
    # so do the command line and the suite until something solves.
    graph = repr(str(tmp_path / "g.txt"))
    build = f"carpetlab.cli.main(['build', '--n', '3', '--out', {graph}])"
    cases = [
        (("carpetlab.geometry", "carpetlab.seeding", "carpetlab.coupling"), ""),
        (("carpetlab.cli", "carpetlab.harness"),
         f"carpetlab.harness.config_from_sources({_config(tmp_path, 'build,couple')})"),
        (("carpetlab.cli",), build),
        (("carpetlab.cli",),
         f"{build}\ncarpetlab.cli.main(['couple', 'run', '--graph', {graph}, '--n', '2', '--trials', '20'])"),
    ]
    for modules, then in cases:
        assert scipy_modules_after_import(*modules, then=then) == "[]\n", then


def test_the_report_loads_no_solver(tmp_path):
    # The report quotes the fits the suite wrote: a manifest of every solving
    # experiment renders, figure files included, with scipy unloaded.
    run_suite(ExperimentConfig(levels=(2, 4), experiments=("harnack", "heat", "hitting", "resist"),
                               output_dir=str(tmp_path)))
    report = f"assert carpetlab.cli.main(['report', '--manifest', {str(tmp_path / 'manifest.json')!r}]) == 0"
    assert scipy_modules_after_import("carpetlab.cli", then=report) == "[]\n"
    assert (tmp_path / "report_heat_diag.csv").exists()


@pytest.mark.parametrize("experiment", ["harnack", "heat", "hitting", "resist"])
def test_a_solving_config_loads_the_solver_at_the_check(tmp_path, experiment):
    # The config check imports the solver, so no suite phase pays for it.
    then = (f"carpetlab.harness.config_from_sources({_config(tmp_path, 'build,' + experiment)})\n"
            "assert 'carpetlab.linalg' in sys.modules")
    assert "'scipy.sparse'" in scipy_modules_after_import("carpetlab.harness", then=then)


# ------------------------------------------------------------------ capacity


def test_budget_guard(params2):
    with pytest.raises(CapacityError, match="budget"):
        build_graph(5, params2, budget=10_000)


def test_key_width_guard(params3):
    with pytest.raises(CapacityError, match="key"):
        build_graph(14, params3, budget=10**30)


def test_int32_id_guard(params2, params3, monkeypatch):
    # A carpet whose 2d |V| bound on its CSR entries reaches 2^31 is refused
    # before anything is allocated, however large the budget; one just below
    # the limit passes the guard.  CarpetGraph is stubbed, so nothing is built.
    built = []
    monkeypatch.setattr(geometry, "CarpetGraph", lambda params, n: built.append((params, n)))
    with pytest.raises(CapacityError, match="int32"):
        build_graph(11, params2, budget=10**10)  # 8^11 vertices
    with pytest.raises(CapacityError, match="4294967296 CSR entries"):
        build_graph(10, params2, budget=10**10)  # 4 * 8^10 = 2^32
    with pytest.raises(CapacityError, match="int32"):
        build_graph(7, params3, budget=10**10)
    with pytest.raises(CapacityError, match="int32"):
        build_graph(5, validate_params(2, 8, 2), budget=10**10)  # d |V| < 2^31 <= 2d |V|
    assert built == []
    build_graph(9, params2, budget=10**10)  # 4 * 8^9 < 2^31
    build_graph(6, params3, budget=10**10)  # 6 * 26^6 < 2^31
    assert built == [(params2, 9), (params3, 6)]


def test_ids_and_coordinates_are_int32(tmp_path, g2, g3d):
    # Every vertex id and coordinate array is int32, also after a graph file
    # round trip; coordinate keys stay int64, since side^d can pass 2^31.
    path = tmp_path / "g.txt"
    write_graph(g2, path)
    part = box_vertices(g3d, 2)
    arrays = [*g3d.rows([0, 5, 5]), g3d.orbits(g3d.symmetries([0])), g3d.unit_steps(),
              g3d.vertex_ids(g3d.coords[:4]), part.inner, part.interior, part.boundary, part.box]
    for graph in (g3d, read_graph(path)):
        arrays += [graph.coords, graph.indptr, graph.indices, graph.top, graph.start, *graph.edges()]
    assert [a.dtype for a in arrays] == [np.int32] * len(arrays)
    assert all(keys.dtype == np.int64 for keys in g3d.image_keys([0, 1]))


def test_negative_level_rejected(params2):
    with pytest.raises(ValueError):
        build_graph(-1, params2)


# ------------------------------------------------------------------- file io


def test_graph_file_round_trip(tmp_path, g2):
    path = tmp_path / "g2.txt"
    write_graph(g2, path)
    back = read_graph(path)
    assert back.level == 2
    assert (back.params.d, back.params.k, back.params.a) == (2, 3, 1)
    np.testing.assert_array_equal(back.coords, g2.coords)
    np.testing.assert_array_equal(back.edges(), g2.edges())


def test_graph_file_header_text(tmp_path, g1):
    path = tmp_path / "g1.txt"
    write_graph(g1, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "carpet 2 3 1 1 8 8"
    assert lines[1] == "v 0 0 0"
    assert sum(1 for l in lines if l.startswith("e ")) == 8


def test_graph_file_is_the_same_in_any_chunk_size(tmp_path, g3, monkeypatch):
    # Records are formatted a chunk of rows at a time; a chunk of 7 rows
    # splits both record kinds unevenly and must give the same lines.
    lines = ["carpet 2 3 1 3 512 776"]
    lines += [f"v {i} {x} {y}" for i, (x, y) in enumerate(g3.coords.tolist())]
    lines += [f"e {i} {j}" for i, j in zip(*(ends.tolist() for ends in g3.edges()))]
    for rows in (7, 1 << 16):
        monkeypatch.setattr(geometry, "_WRITE_ROWS", rows)
        path = tmp_path / f"g{rows}.txt"
        write_graph(g3, path)
        assert path.read_text() == "\n".join(lines) + "\n"


def with_edges(text, change):
    """Apply ``change`` to the edge records, keeping the header count in step."""
    lines = text.splitlines(keepends=True)
    edges = change([line for line in lines if line.startswith("e ")])
    head = lines[0].split()
    head[-1] = str(len(edges))
    rest = [line for line in lines[1:] if not line.startswith("e ")]
    return " ".join(head) + "\n" + "".join(rest + edges)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda t: t.replace("carpet", "zebra", 1), "header"),
        (lambda t: t.replace("v 0 0 0", "v 5 0 0", 1), "consecutive"),
        (lambda t: t.replace("e 0 1", "e 1 0", 1), "id1 < id2"),
        (lambda t: t + "q 1 2\n", "unexpected record"),
        (lambda t: t.replace("e 0 1\n", "e 0 999\n", 1), "out of range"),
        (lambda t: t + "e 0 1\n", "counts disagree"),
        (lambda t: with_edges(t, lambda e: e[1:]), "edge list differs"),
        (lambda t: with_edges(t, lambda e: e + e[:1]), "duplicated edge"),
    ],
)
def test_graph_file_rejects_corruption(tmp_path, g2, mutate, message):
    path = tmp_path / "bad.txt"
    write_graph(g2, path)
    path.write_text(mutate(path.read_text()))
    with pytest.raises(ValueError, match=message):
        read_graph(path)


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("v 1 0 1\n", "v 1 0 1 7\n", "2 coordinates"),
        ("v 1 0 1\n", "v 1 0\n", "2 coordinates"),
        ("e 0 1\n", "e 0 1 2\n", "e id1 id2"),
        ("e 0 1\n", "e 0\n", "e id1 id2"),
        ("v 1 0 1\n", "v 1 0 x\n", "decimal integers"),
        ("v 1 0 1\n", "v 1 0 -1\n", "decimal integers"),
        ("v 1 0 1\n", "vv 1 0 1\n", "unexpected record 'vv'"),
    ],
    ids=["extra-coordinate", "missing-coordinate", "extra-endpoint", "missing-endpoint",
         "letter", "negative", "long-record-name"],
)
def test_graph_file_rejects_malformed_records(tmp_path, g2, old, new, message):
    path = tmp_path / "bad.txt"
    write_graph(g2, path)
    path.write_text(path.read_text().replace(old, new, 1))
    with pytest.raises(ValueError, match=message):
        read_graph(path)


def test_graph_file_parses_in_chunks_of_whole_lines(tmp_path, g3, monkeypatch):
    # Blank lines, tabs and leading blanks separate tokens as in str.split(),
    # and a record never straddles two parsed chunks.
    path = tmp_path / "g3.txt"
    write_graph(g3, path)
    path.write_text(path.read_text().replace("\ne ", "\n\n \te\t ").replace("\n", "\r\n"))
    monkeypatch.setattr(geometry, "_CHUNK", 50)
    back = read_graph(path)
    np.testing.assert_array_equal(back.coords, g3.coords)
    np.testing.assert_array_equal(back.edges(), g3.edges())


def test_graph_file_rejects_dead_cells(tmp_path):
    # The header's count of 8 cells, consecutive ids in lexicographic order
    # and unit-distance edges, but the removed cell (1, 1) stands in for (2, 2).
    cells = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]
    edges = [(0, 1), (0, 3), (1, 2), (2, 5), (3, 4), (3, 6), (4, 5), (6, 7)]
    path = tmp_path / "dead.txt"
    path.write_text("carpet 2 3 1 1 8 8\n" + "".join(f"v {i} {x} {y}\n" for i, (x, y) in enumerate(cells))
                    + "".join(f"e {i} {j}\n" for i, j in edges))
    with pytest.raises(ValueError, match="cells differ from the carpet named in the header"):
        read_graph(path)
