"""Shared fixtures: carpet graphs at the levels the tests probe.

Graph construction is deterministic, so session scope is safe; the level-5
planar graph (32768 vertices) and the level-4 spatial graph (456976 vertices)
are built at most once per run, and only if a test actually asks for them.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from carpetlab import linalg
from carpetlab.geometry import CarpetParams, VertexGraph, build_graph, validate_params
from carpetlab.heat import (
    TransitionOperator,
    carpet_saturation_time,
    central_vertex,
    ds_fit_times,
    fit_ds,
    kernel_entries,
    walk_kernel,
)

from oracles import aggregate_by_link_lists


@pytest.fixture(scope="session")
def params2() -> CarpetParams:
    return validate_params(2, 3, 1)


@pytest.fixture(scope="session")
def params3() -> CarpetParams:
    return validate_params(3, 3, 1)


@pytest.fixture(scope="session")
def g1(params2):
    return build_graph(1, params2)


@pytest.fixture(scope="session")
def g2(params2):
    return build_graph(2, params2)


@pytest.fixture(scope="session")
def g3(params2):
    return build_graph(3, params2)


@pytest.fixture(scope="session")
def g4(params2):
    return build_graph(4, params2)


@pytest.fixture(scope="session")
def g5(params2):
    return build_graph(5, params2)


@pytest.fixture(scope="session")
def g3d(params3):
    return build_graph(3, params3)


@pytest.fixture(scope="session")
def g3d4(params3):
    return build_graph(4, params3)


def graph_from_edges(coords, edges) -> VertexGraph:
    """A vertex graph on ``coords`` (points, or ints on one axis) with the undirected ``edges``."""
    coords = np.asarray(list(coords), dtype=np.int64)
    if coords.ndim == 1:
        coords = coords[:, None]
    n = coords.shape[0]
    pairs = sorted(set((min(i, j), max(i, j)) for i, j in edges))
    rows = np.array([p for e in pairs for p in e], dtype=np.int64)
    cols = np.array([p for e in pairs for p in reversed(e)], dtype=np.int64)
    adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
    adj.sort_indices()
    return VertexGraph(coords, adj.indptr, adj.indices)


def adjacency(graph) -> sp.csr_matrix:
    """The graph's 0/1 adjacency as a scipy CSR matrix, built from its ``indptr`` and ``indices``."""
    n = graph.num_vertices
    return sp.csr_matrix((np.ones(len(graph.indices)), graph.indices, graph.indptr), shape=(n, n))


def checked_aggregates(monkeypatch) -> list:
    """Make every ``linalg._aggregate`` call compare its aggregates and block
    coordinates with ``oracles.aggregate_by_link_lists``; the returned list
    collects the size of each operator aggregated."""
    sizes, aggregate = [], linalg._aggregate

    def checked(a, coords):
        agg, blocks = aggregate(a, coords)
        want_agg, want_blocks = aggregate_by_link_lists(a, coords)
        np.testing.assert_array_equal(agg, want_agg)
        np.testing.assert_array_equal(blocks, want_blocks)
        sizes.append(a.shape[0])
        return agg, blocks

    monkeypatch.setattr(linalg, "_aggregate", checked)
    return sizes


def make_path(n: int) -> VertexGraph:
    """Path on n vertices embedded along the first axis."""
    coords = [(i, 0) for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    return graph_from_edges(coords, edges)


def make_cycle(n: int) -> VertexGraph:
    coords = [(i, 0) for i in range(n)]
    edges = [(i, (i + 1) % n) for i in range(n)]
    return graph_from_edges(coords, edges)


def make_torus(side: int) -> VertexGraph:
    """side x side grid with periodic wrap; degree 4 everywhere."""
    coords = [(i, j) for i in range(side) for j in range(side)]
    idx = {c: v for v, c in enumerate(coords)}
    edges = []
    for i, j in coords:
        edges.append((idx[(i, j)], idx[((i + 1) % side, j)]))
        edges.append((idx[(i, j)], idx[(i, (j + 1) % side)]))
    return graph_from_edges(coords, edges)


def kernel_row(op: TransitionOperator, x: int, t: int) -> np.ndarray:
    """p_t(x, .) at every vertex, read through kernel_entries; the row must carry unit mass."""
    [(_, row, _)] = kernel_entries(op, x, np.arange(op.graph.num_vertices), [t])
    assert abs(row.sum() - 1.0) <= 1e-12, f"kernel row lost mass: sum = {row.sum()!r} at t = {t}"
    return row


def diag_fit(graph, x=None, times=None):
    """fit_ds over the d_s points of a walk from x, by default from the central
    cell at the carpet's d_s fit times, as the suite and the CLI fit them."""
    x = central_vertex(graph) if x is None else x
    if times is None:
        times = ds_fit_times(carpet_saturation_time(graph.params, graph.level))
    return fit_ds(walk_kernel(graph, x, [], [], times).diag)


def kernel_samples(op: TransitionOperator, x: int, pairs) -> list:
    """``(y, t, p_t(x, y))`` for each ``(y, t)`` pair, by time, read off one walk."""
    seen = {t: p for t, p, _ in kernel_entries(op, x, [y for y, _ in pairs], sorted({t for _, t in pairs}))}
    return [(y, t, float(seen[t][i])) for t in seen for i, (y, s) in enumerate(pairs) if s == t]


def held(graph, ids, data) -> np.ndarray:
    """Per-vertex boundary data for a solve: ``data`` on ``ids``, NaN elsewhere."""
    values = np.full(graph.num_vertices, np.nan)
    values[ids] = data
    return values


def vid(graph, *coords) -> int:
    """Vertex id at integer coordinates; fails the test if absent."""
    v = int(graph.vertex_ids(np.asarray([coords], dtype=np.int64))[0])
    assert v >= 0, f"no vertex at {coords}"
    return v
