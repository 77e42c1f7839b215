"""Property tests over small valid carpets, not only (2,3,1) and (3,3,1)."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from carpetlab import linalg
from carpetlab.coupling import origin_pair
from carpetlab.geometry import (
    HOLD,
    box_vertices,
    build_graph,
    count_cells,
    signed_permutations,
    validate_params,
)
from carpetlab.harness import _regime_targets
from carpetlab.heat import TransitionOperator, central_vertex, kernel_entries, walk_kernel
from carpetlab.linalg import DirichletSystem
from carpetlab.resistance import _reached

from conftest import adjacency, checked_aggregates, held
from oracles import operator_by_diags, reached_by_vertex_bfs, regime_targets_by_full_sort, survival_mask

MAX_VERTICES = 5000


@st.composite
def carpets(draw):
    """A carpet graph of at most MAX_VERTICES cells."""
    d = draw(st.integers(2, 3))
    k = draw(st.integers(3, 7))
    a = draw(st.sampled_from([a for a in range(1, k) if (a + k) % 2 == 0]))
    n = draw(st.integers(1, 3))
    params = validate_params(d, k, a)
    assume(count_cells(n, params) <= MAX_VERTICES)
    return build_graph(n, params)


# Carpets beyond (2,3,1) and (3,3,1) that the symmetry and solver properties
# must cover, built at levels 1 and 2.
NAMED = [(2, 5, 1), (2, 4, 2), (3, 3, 1), (4, 3, 1)]


@st.composite
def small_carpets(draw):
    """A carpet from :func:`carpets`, or one of NAMED at level 1 or 2."""
    if draw(st.booleans()):
        return draw(carpets())
    d, k, a = draw(st.sampled_from(NAMED))
    return build_graph(draw(st.integers(1, 2)), validate_params(d, k, a))


@st.composite
def carpet_and_source(draw):
    """A small carpet and a source vertex: any vertex, or one on the main diagonal."""
    graph = draw(small_carpets())
    diagonal = np.nonzero((graph.coords == graph.coords[:, :1]).all(axis=1))[0]
    x = draw(st.one_of(st.integers(0, graph.num_vertices - 1), st.sampled_from(list(diagonal))))
    return graph, x


@st.composite
def carpet_and_pair(draw):
    """A carpet of at most MAX_VERTICES cells and two of its vertices."""
    graph = draw(carpets())
    x = draw(st.integers(0, graph.num_vertices - 1))
    y = draw(st.integers(0, graph.num_vertices - 1))
    return graph, x, y


def _with_named_carpets(test):
    """Add each NAMED carpet at level 2 as an explicit example of ``test``."""
    for d, k, a in NAMED:
        test = example(build_graph(2, validate_params(d, k, a)))(test)
    return test


@settings(deadline=None)
@given(carpets())
@_with_named_carpets
def test_census_matches_formula_and_graph_is_connected(graph):
    assert graph.num_vertices == count_cells(graph.level, graph.params)
    n_components, _ = connected_components(adjacency(graph), directed=False)
    assert n_components == 1

    # Brute force: the surviving window cells, in lexicographic order, are
    # the vertices, and row v lists the ascending ids of the cells at unit
    # distance from v.
    d = graph.params.d
    window = np.indices((graph.side,) * d).reshape(d, -1).T
    cells = window[survival_mask(window, graph.level, graph.params)]
    np.testing.assert_array_equal(graph.coords, cells)
    degrees, cols = [], []
    for start in range(0, len(cells), 128):
        unit = np.abs(cells[start:start + 128, None, :] - cells[None, :, :]).sum(axis=2) == 1
        degrees.append(unit.sum(axis=1))
        cols.append(np.nonzero(unit)[1])  # row by row, ascending
    assert graph.indices.dtype == graph.indptr.dtype == np.int32
    np.testing.assert_array_equal(graph.indptr, np.cumsum([0, *np.concatenate(degrees)]))
    np.testing.assert_array_equal(graph.indices, np.concatenate(cols))


@settings(deadline=None)
@given(carpets())
def test_levels_nest(graph):
    # The level-n graph restricted to the corner box [0, k^(n-1))^d is the
    # level-(n-1) graph: same coordinates in the same (lexicographic) order,
    # and the same edges once ids are relabelled.
    coarse = build_graph(graph.level - 1, graph.params)
    inside = (graph.coords < coarse.side).all(axis=1)
    np.testing.assert_array_equal(graph.coords[inside], coarse.coords)
    i, j = graph.edges()
    keep = inside[i] & inside[j]
    relabel = np.cumsum(inside) - 1
    np.testing.assert_array_equal((relabel[i[keep]], relabel[j[keep]]), coarse.edges())


@settings(deadline=None)
@given(carpet_and_pair())
def test_lazy_walk_conserves_mass_and_is_reversible(case):
    # deg(x) p_t(x, y) == deg(y) p_t(y, x) for t <= 6, and no mass is lost.
    graph, x, y = case
    op = TransitionOperator(graph)
    times = range(7)
    every = np.arange(graph.num_vertices)
    rows_x = [p for _, p, _ in kernel_entries(op, x, every, times)]
    rows_y = [p for _, p, _ in kernel_entries(op, y, every, times)]
    deg = graph.degrees
    for px, py in zip(rows_x, rows_y):
        assert px.sum() == pytest.approx(1.0, rel=1e-12)
        assert py.sum() == pytest.approx(1.0, rel=1e-12)
        assert deg[x] * px[y] == pytest.approx(deg[y] * py[x], rel=1e-12, abs=0.0)
        assert (px >= 0).all()


@settings(deadline=None)
@given(carpet_and_source())
def test_squared_sums_give_the_doubled_return_probability(case):
    # The walk is reversible with respect to the degree, so the squared sum
    # over the orbit values at t is the walked p_2t(x, x); the d_s points
    # of walk_kernel are those sums and its self-check sees no gap.
    graph, x = case
    op = TransitionOperator(graph, graph.orbits(graph.symmetries([x])))
    walked = [float(p[0]) for _, p, _ in kernel_entries(op, x, [x], range(17))]
    walk = walk_kernel(graph, x, [], [], range(0, 17, 2))
    for T, p in walk.diag:
        assert p == pytest.approx(walked[T], rel=1e-12, abs=0.0)
    assert walk.steps == 8
    assert walk.gap <= 1e-12


@settings(deadline=None)
@given(carpets())
def test_signed_permutations_map_survivors_to_survivors(graph):
    # Inside every S_m cube, each signed permutation of the local coordinates
    # (about the cube's center) carries surviving cells onto surviving cells:
    # the fact the coupling's witness tables rest on.
    d = graph.params.d
    for m in range(1, graph.level + 1):
        side = graph.params.k ** m
        corner = graph.coords - graph.coords % side
        loc2 = 2 * (graph.coords % side) + 1 - side
        for perm in itertools.permutations(range(d)):
            for signs in itertools.product((1, -1), repeat=d):
                image = corner + (np.array(signs) * loc2[:, list(perm)] + side - 1) // 2
                assert (graph.vertex_ids(image) >= 0).all()


def _named_central(d, k, a):
    graph = build_graph(2, validate_params(d, k, a))
    return graph, central_vertex(graph)


@settings(deadline=None)
@given(carpet_and_source())
@example(_named_central(2, 5, 1))
@example(_named_central(2, 4, 2))
@example(_named_central(3, 3, 1))
@example(_named_central(4, 3, 1))
def test_quotient_walk_matches_the_plain_walk(case):
    # The kernel walks the orbits of the symmetries fixing x; stepping every
    # vertex with op.step must give the same kernel.
    graph, x = case
    group = graph.symmetries([x])
    op = TransitionOperator(graph, graph.orbits(group))
    times = [0, 1, 2, 5, 9, 16]
    walked = {t: p for t, p, _ in kernel_entries(op, x, np.arange(graph.num_vertices), times)}
    plain_op = TransitionOperator(graph)
    plain = np.zeros(graph.num_vertices)
    plain[x] = 1.0
    for t in range(times[-1] + 1):
        if t in walked:
            p = walked[t]
            assert np.abs(p - plain).max() <= 1e-12 * plain.max()
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
        plain = plain_op.step(plain)
    assert op.orbit.shape == (graph.num_vertices,)
    assert op.states == len(np.unique(op.orbit))
    walk = walk_kernel(graph, x, [], [], [])
    assert (walk.states, walk.symmetry_order) == (op.states, len(group))

    # Every symmetry fixing x is a graph automorphism: it permutes the
    # vertices, fixes x and carries the edge set onto itself.
    edges = np.column_stack(graph.edges())
    perms, signs = signed_permutations(graph.params.d)
    for i in group:
        moved = graph.coords[:, perms[i]]
        ids = graph.vertex_ids(np.where(signs[i] < 0, graph.side - 1 - moved, moved))
        np.testing.assert_array_equal(np.sort(ids), np.arange(graph.num_vertices))
        assert ids[x] == x
        mapped = np.sort(ids[edges], axis=1)
        mapped = mapped[np.lexsort((mapped[:, 1], mapped[:, 0]))]
        np.testing.assert_array_equal(mapped, edges)


@settings(deadline=None)
@given(small_carpets(), st.integers(0, 2**32 - 1), st.floats(0.02, 0.5))
# An isolated unknown pair, each vertex alone in its coordinate block, once
# made the V-cycle's coarsest operator singular.
@example(build_graph(3, validate_params(2, 4, 2)), 0, 0.5)
def test_dirichlet_solutions_obey_the_maximum_principle(graph, seed, share):
    # A harmonic function takes its extremes on the fixed set: on every
    # solver path (plain CG, the multigrid V-cycle, SuperLU) each solved
    # value lies within [min, max] of the boundary data.
    rng = np.random.default_rng(seed)
    fixed_mask = rng.random(graph.num_vertices) < share
    fixed_mask[rng.integers(graph.num_vertices)] = True
    fixed = np.nonzero(fixed_mask)[0]
    unknown = np.nonzero(~fixed_mask)[0]
    assume(unknown.size > 0)
    g = rng.uniform(-1.0, 1.0, len(fixed))
    slack = 1e-9 * (g.max() - g.min()) + 1e-12
    data = held(graph, fixed, g)
    system = DirichletSystem(graph, unknown)
    solutions = [system.solve(data, tol=1e-12)[0], system.solve(data, tol=1e-12)[0]]
    for knob in ("MULTIGRID_MIN", "DIRECT_MAX"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, knob, 0)
            solutions.append(DirichletSystem(graph, unknown).solve(data, tol=1e-12)[0])
    for values in solutions:
        solved = values[unknown]
        assert solved.min() >= g.min() - slack
        assert solved.max() <= g.max() + slack


def _orbit_problem(graph, kind, level, pick):
    """One symmetric boundary-value problem of the resistance and exit-time code:
    ``(unknown, data, rhs, symmetry rows)``, the data NaN off the border."""
    d, side = graph.params.d, graph.side
    if kind == "face":
        source = np.nonzero(graph.coords[:, 0] == 0)[0]
        ground = np.nonzero(graph.coords[:, 0] == side - 1)[0]
        rows = graph.symmetries(source, ground)
    elif kind == "corner":
        # [0], [0 and its neighbor along axis 0] (not permutation-invariant)
        # or the corner cube of side 2.
        ground = box_vertices(graph, level).boundary
        source = [np.array([0]),
                  graph.vertex_ids([[0] * d, [1] + [0] * (d - 1)]),
                  np.nonzero((graph.coords < 2).all(axis=1))[0]][pick]
        rows = graph.symmetries(source, ground)
    else:
        on_plane = graph.coords.sum(axis=1) == side
        x = central_vertex(graph) if pick == 0 else int(np.argmax(on_plane))
        dist = np.sqrt(((graph.coords - graph.coords[x]) ** 2).sum(axis=1))
        inside = dist < side / 3.0
        unknown = np.nonzero(inside)[0]
        nbrs = np.unique(graph.rows(unknown)[1])
        data = held(graph, nbrs[~inside[nbrs]], 0.0)
        rhs = graph.degrees[unknown] / (1.0 - HOLD)
        return unknown, data, rhs, graph.symmetries([x])
    reached, _ = reached_by_vertex_bfs(graph, source, ground)
    reached[source] = False
    data = held(graph, ground, 0.0)
    data[source] = 1.0
    return np.nonzero(reached)[0], data, None, rows


@settings(deadline=None)
@given(small_carpets(), st.sampled_from(["face", "corner", "exit"]), st.integers(0, 2), st.data())
@example(build_graph(2, validate_params(3, 3, 1)), "corner", 1, None)
def test_orbit_solve_matches_the_plain_solve(graph, kind, pick, data):
    # A symmetric problem's solution is constant on orbits, so the solve on
    # the orbit quotient must give the plain vertex solve, and its residual,
    # recomputed on the full system, must meet the tolerance.
    level = graph.level if data is None else data.draw(st.integers(1, graph.level))
    pick %= 3 if kind == "corner" else 2
    unknown, g, rhs, rows = _orbit_problem(graph, kind, level, pick)
    assume(unknown.size > 0 and not np.isnan(g).all())
    tol = 1e-10
    plain, _ = DirichletSystem(graph, unknown).solve(g, rhs=rhs, tol=tol)
    orbits = graph.orbits(rows)
    system = DirichletSystem(graph, unknown, orbits=orbits)
    assert system.orbit_unknowns == len(np.unique(orbits[unknown]))
    lap = system._lap
    assert abs(lap - lap.T).max() <= 1e-12 * abs(lap).max()
    solves = []
    for knob in ("MULTIGRID_MIN", "DIRECT_MAX"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, knob, 0)
            forced = DirichletSystem(graph, unknown, orbits=orbits)
            solves.append(forced.solve(g, rhs=rhs, tol=tol))
    # the V-cycle, plain CG, then this system's first solve and its second,
    # which is SuperLU's
    solves += [system.solve(g, rhs=rhs, tol=tol), system.solve(g, rhs=rhs, tol=tol)]
    paths = [info.path for _, info in solves]
    assert (paths[1], paths[3]) == ("CG", "SuperLU")
    for values, info in solves:
        scale = max(1.0, np.abs(plain[unknown]).max())
        np.testing.assert_allclose(values[unknown], plain[unknown], rtol=0.0, atol=1e-9 * scale)
        np.testing.assert_array_equal(np.delete(values, unknown), np.delete(g, unknown))

        held = np.nan_to_num(g)
        held[unknown] = 0.0
        u = held.copy()
        u[unknown] = values[unknown]
        adj = adjacency(graph)
        poisson = 0.0 if rhs is None else rhs
        b = (adj @ held)[unknown] + poisson  # the data of (L u)_I = rhs on the unknowns
        residual = poisson - (graph.degrees * u - adj @ u)[unknown]
        full = np.linalg.norm(residual) / np.linalg.norm(b)
        assert full <= tol
        # The solver's residual, taken in the orbit basis, is this one up to
        # the rounding of either computation, about eps * |L| |u| / |b|.
        size = np.linalg.norm((graph.degrees * np.abs(u) + adj @ np.abs(u))[unknown])
        rounding = 100 * np.finfo(float).eps * (size + np.linalg.norm(b)) / np.linalg.norm(b)
        assert abs(info.residual - full) <= 1e-3 * full + rounding


@settings(deadline=None)
@given(carpets(), st.integers(0, 2**32 - 1))
def test_vertex_ids_match_a_dictionary(graph, seed):
    # The line tables against a plain dict of every cell, on removed cells,
    # cells outside the window and negative coordinates too.
    table = {tuple(c): v for v, c in enumerate(graph.coords.tolist())}
    rng = np.random.default_rng(seed)
    d, side = graph.params.d, graph.side
    queries = np.vstack([
        graph.coords,
        rng.integers(0, side, size=(200, d)),
        rng.integers(-2 * side, 2 * side, size=(200, d)),
        np.full((1, d), -1), np.full((1, d), side),
    ])
    want = [table.get(tuple(q), -1) for q in queries.tolist()]
    assert graph.vertex_ids(queries).tolist() == want


@settings(deadline=None)
@given(carpets())
def test_origin_pair_is_the_origin_and_its_last_axis_neighbor(graph):
    # From level 1 on the pair is the origin and e_{d-1}; at level 0 the neighbor is absent.
    d = graph.params.d
    assert origin_pair(build_graph(0, graph.params)) == (0, -1)
    for n in range(1, min(graph.level, 2) + 1):
        carpet = build_graph(n, graph.params)
        pair = origin_pair(carpet)
        assert pair == (0, 1) and all(type(v) is int for v in pair)
        assert carpet.coords[list(pair)].tolist() == [[0] * d, [0] * (d - 1) + [1]]


@settings(deadline=None)
@given(carpets())
def test_line_tables_hold_at_most_one_entry_per_vertex(graph):
    d, side, n = graph.params.d, graph.side, graph.level
    assert graph.pattern.shape == (side ** (d - 1),)
    assert graph.within.shape == (2 ** n, side)
    assert graph.start.shape == (side ** (d - 1),)
    for table in (graph.pattern, graph.within, graph.start):
        assert table.size <= graph.num_vertices
        assert not table.flags.writeable


@settings(deadline=None)
@given(carpet_and_source(), st.sampled_from([3, 24]))
def test_regime_targets_sort_only_the_near_vertices(case, count):
    # The heat experiment's targets, sorted only within half the window, are
    # the targets of a stable sort of every vertex.
    graph, x = case
    assert _regime_targets(graph, x, count) == regime_targets_by_full_sort(graph, x, count)


def _random_pair(graph, rng, kind):
    """Disjoint source and ground sets: the two faces, the corner cell or the
    corner cube of side 2 against a box's boundary, or random vertices."""
    if kind == "face":
        return (np.nonzero(graph.coords[:, 0] == 0)[0],
                np.nonzero(graph.coords[:, 0] == graph.side - 1)[0])
    if kind == "corner":
        ground = box_vertices(graph, int(rng.integers(1, graph.level + 1))).boundary
        source = [0] if rng.integers(2) else np.nonzero((graph.coords < 2).all(axis=1))[0]
        return np.setdiff1d(source, ground), ground
    ids = rng.permutation(graph.num_vertices)[:int(rng.integers(2, 12))]
    cut = int(rng.integers(1, len(ids)))
    return ids[:cut], ids[cut:]


@settings(deadline=None)
@given(carpets(), st.sampled_from(["face", "corner", "random"]), st.integers(0, 2**32 - 1))
def test_orbit_search_matches_the_vertex_search(graph, kind, seed):
    # The resistance search steps over the orbits of the symmetries that keep
    # source and ground; it must reach what a search over every vertex reaches.
    source, ground = _random_pair(graph, np.random.default_rng(seed), kind)
    assume(len(source) and len(ground))
    least = graph.orbits(graph.symmetries(source, ground))
    reached, grounded = _reached(graph, least, source, ground)
    want, want_grounded = reached_by_vertex_bfs(graph, source, ground)
    np.testing.assert_array_equal(reached, want)
    assert grounded == want_grounded


def _assert_same_csr(lap, oracle):
    """The same CSR arrays, dtype and bits, entry for entry."""
    for name in ("indptr", "indices", "data"):
        got, want = getattr(lap, name), getattr(oracle, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


@settings(deadline=None)
@given(carpets(), st.sampled_from(["plain", "face", "corner", "classes"]), st.integers(0, 2**32 - 1))
@example(build_graph(2, validate_params(2, 4, 2)), "face", 0)
def test_operator_matches_the_sparse_difference(graph, kind, seed):
    # The operator built in one pass is, bit for bit, diags(deg) - offdiag:
    # on plain systems, on symmetry orbits (on a carpet of even side, the
    # mirror pairs across the middle are neighbors in one orbit, so their
    # row merges a count into its diagonal), and on random vertex classes,
    # whose rows can merge every neighbor into the diagonal and cancel it.
    rng = np.random.default_rng(seed)
    if kind == "classes":
        labels = rng.integers(0, max(1, graph.num_vertices // int(rng.integers(1, 5))),
                              graph.num_vertices)
        first = np.full(labels.max() + 1, graph.num_vertices)
        np.minimum.at(first, labels, np.arange(graph.num_vertices))
        orbits = first[labels]
        kept = np.flatnonzero(rng.random(len(first)) < 0.7)
        unknown = np.flatnonzero(np.isin(labels, kept))  # a union of classes
    else:
        source, ground = _random_pair(graph, rng, "face" if kind == "plain" else kind)
        assume(len(source))
        free = np.ones(graph.num_vertices, dtype=bool)
        free[source] = free[ground] = False
        unknown = np.flatnonzero(free)
        orbits = None if kind == "plain" else graph.orbits(graph.symmetries(source, ground))
    assume(unknown.size)
    _assert_same_csr(DirichletSystem(graph, unknown, orbits=orbits)._lap,
                     operator_by_diags(graph, unknown, orbits))


@settings(deadline=None)
@given(carpets(), st.sampled_from(["plain", "face", "corner", "random"]), st.integers(0, 2**32 - 1))
def test_aggregates_match_the_link_list_reference(graph, kind, seed):
    # At every level of a small carpet's hierarchy, built down to where the
    # aggregation stops merging rows, the int32 aggregation with its CSR
    # link matrix gives the reference's aggregates and block coordinates.
    source, ground = _random_pair(graph, np.random.default_rng(seed), "face" if kind == "plain" else kind)
    assume(len(source) and len(ground))
    free = np.ones(graph.num_vertices, dtype=bool)
    free[source] = free[ground] = False
    orbits = None if kind == "plain" else graph.orbits(graph.symmetries(source, ground))
    system = DirichletSystem(graph, np.flatnonzero(free), orbits=orbits)
    assume(system.orbit_unknowns > 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "MULTIGRID_COARSEST", 1)
        sizes = checked_aggregates(patch)
        linalg._hierarchy(system._lap, graph.coords[system._reps])
    assert sizes[0] == system.orbit_unknowns


def test_operator_merges_and_drops_diagonals_as_the_sparse_difference():
    # The level-0 cell alone has degree 0, so its diagonal is 0 and dropped;
    # (2,4,2)'s face system has rows whose diagonal takes a merged neighbor.
    single = build_graph(0, validate_params(2, 3, 1))
    lap = DirichletSystem(single, [0])._lap
    assert lap.nnz == 0
    _assert_same_csr(lap, operator_by_diags(single, [0]))
    graph = build_graph(2, validate_params(2, 4, 2))
    inner = np.flatnonzero((graph.coords[:, 0] > 0) & (graph.coords[:, 0] < graph.side - 1))
    faces = [np.flatnonzero(graph.coords[:, 0] == x) for x in (0, graph.side - 1)]
    orbits = graph.orbits(graph.symmetries(*faces))
    system = DirichletSystem(graph, inner, orbits=orbits)
    reps = system._reps
    assert (system._lap.diagonal() != graph.degrees[reps]).any()
    _assert_same_csr(system._lap, operator_by_diags(graph, inner, orbits))
