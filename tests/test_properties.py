"""Property tests over small valid carpets, not only (2,3,1) and (3,3,1)."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from carpetlab.geometry import build_graph, count_cells, validate_params
from carpetlab.heat import TransitionOperator, kernel_walk

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


@st.composite
def carpet_and_pair(draw):
    """A carpet of at most MAX_VERTICES cells and two of its vertices."""
    graph = draw(carpets())
    x = draw(st.integers(0, graph.num_vertices - 1))
    y = draw(st.integers(0, graph.num_vertices - 1))
    return graph, x, y


@settings(deadline=None)
@given(carpets())
def test_census_matches_formula_and_graph_is_connected(graph):
    assert graph.num_vertices == count_cells(graph.level, graph.params)
    n_components, _ = connected_components(graph.adjacency(), directed=False)
    assert n_components == 1


@settings(deadline=None)
@given(carpets())
def test_levels_nest(graph):
    # The level-n graph restricted to the corner box [0, k^(n-1))^d is the
    # level-(n-1) graph: same coordinates in the same (lexicographic) order,
    # and the same edges once ids are relabelled.
    coarse = build_graph(graph.level - 1, graph.params)
    inside = (graph.coords < coarse.side).all(axis=1)
    np.testing.assert_array_equal(graph.coords[inside], coarse.coords)
    edges = graph.edge_array()
    keep = inside[edges[:, 0]] & inside[edges[:, 1]]
    relabel = np.cumsum(inside) - 1
    np.testing.assert_array_equal(relabel[edges[keep]], coarse.edge_array())


@settings(deadline=None)
@given(carpet_and_pair())
def test_lazy_walk_conserves_mass_and_is_reversible(case):
    # deg(x) p_t(x, y) == deg(y) p_t(y, x) for t <= 6, and no mass is lost.
    graph, x, y = case
    op = TransitionOperator(graph)
    times = range(7)
    rows_x = [p for _, p in kernel_walk(op, x, times)]
    rows_y = [p for _, p in kernel_walk(op, y, times)]
    deg = graph.degrees
    for px, py in zip(rows_x, rows_y):
        assert px.sum() == pytest.approx(1.0, rel=1e-12)
        assert py.sum() == pytest.approx(1.0, rel=1e-12)
        assert deg[x] * px[y] == pytest.approx(deg[y] * py[x], rel=1e-12, abs=0.0)
        assert (px >= 0).all()


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
