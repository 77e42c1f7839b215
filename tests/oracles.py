"""Second methods behind the acceptance claims: the carpet's cells by a
digit-by-digit survival test, Monte Carlo exit times, the coupled walk's
marginal law and pair catalog, the capacity-constant probe, the edge-sum
energy of a vertex potential, the heat experiment's targets by a full sort,
the resistance search vertex by vertex, the solver's operator as a
sparse difference and its multigrid aggregates from int64 and float64
link lists.

The suite and the CLI do not run these; tests compare them against what the
package computes (solver exit times, heat-kernel rows, frozen capacity
values).  Import them as ``from oracles import ...``, as with ``conftest``.
"""

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from carpetlab.coupling import _Coupler
from carpetlab.geometry import CarpetGraph, CarpetParams, VertexGraph
from carpetlab.harmonic import HOLD, _distances
from carpetlab.linalg import DEFAULT_TOL, DirichletSystem
from carpetlab.resistance import resistance_to_infinity
from carpetlab.seeding import derive_rng

_EXIT_STEP_CAP = 1_000_000  # sample_exit_times gives up on walkers still inside


def survival_mask(coords: np.ndarray, level: int, params: CarpetParams) -> np.ndarray:
    """Which of the (N, d) integer cells survive to ``level``: a cell dies iff
    at some base-k digit position every coordinate's digit is central.  The
    line tables of ``CarpetGraph`` must keep exactly these cells."""
    lo = params.central_range.start
    hi = params.central_range.stop
    rem = np.asarray(coords, dtype=np.int64).copy()
    alive = np.ones(rem.shape[0], dtype=bool)
    for _ in range(level):
        digits = rem % params.k
        central = ((digits >= lo) & (digits < hi)).all(axis=1)
        alive &= ~central
        rem //= params.k
    return alive


def dirichlet_energy(graph: VertexGraph, f: np.ndarray) -> float:
    """Sum of squared potential differences over edges, in fixed edge order."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (graph.num_vertices,):
        raise ValueError("potential must assign a value to every vertex")
    i, j = graph.edges()
    diffs = f[i] - f[j]
    return float(np.add.reduce(diffs * diffs))


def unit_potential(graph: VertexGraph, source, ground, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The potential 1 on ``source``, 0 on ``ground``, harmonic at every other
    vertex, solved on the vertices with no orbits and no reach pruning."""
    values = np.zeros(graph.num_vertices)
    values[source] = 1.0
    free = np.ones(graph.num_vertices, dtype=bool)
    free[source] = free[ground] = False
    return DirichletSystem(graph, np.flatnonzero(free)).solve(values, tol=tol)[0]


def source_flux(graph: VertexGraph, source, potential: np.ndarray) -> float:
    """Current out of ``source`` at unit potential, sum_{a in A} sum_{y ~ a} (1 - u_y);
    by Green's identity the energy of the exact harmonic potential."""
    flux = 1.0 - potential[graph.rows(np.asarray(source, dtype=np.int64))[1]]
    return float(np.add.reduce(flux))


def sample_exit_times(
    graph: VertexGraph,
    x: int,
    r: float,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Batched Monte Carlo exit times from B(x, r); cross-check for the solver."""
    dist = _distances(graph, x)
    inside = dist < r
    if not inside.any() or inside.all():
        raise ValueError("ball is empty or covers the whole graph")
    rng = derive_rng(seed, "exit-time-sample")
    pos = np.full(trials, x, dtype=np.int64)
    exit_at = np.zeros(trials, dtype=np.int64)
    active = np.ones(trials, dtype=bool)
    indptr = graph.indptr
    indices = graph.indices
    deg = graph.degrees
    for t in range(1, _EXIT_STEP_CAP + 1):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        coins = rng.random(idx.size)
        draws = rng.random(idx.size)
        movers = coins >= HOLD
        mi = idx[movers]
        if mi.size:
            offs = (draws[movers] * deg[pos[mi]]).astype(np.int64)
            pos[mi] = indices[indptr[pos[mi]] + offs]
        newly_out = ~inside[pos[idx]]
        exit_at[idx[newly_out]] = t
        active[idx[newly_out]] = False
    if active.any():
        raise RuntimeError(f"{int(active.sum())} walkers still inside after {_EXIT_STEP_CAP} steps")
    return exit_at


def sample_marginal(
    graph: CarpetGraph,
    x0: int,
    y0: int,
    steps: int,
    trials: int,
    seed: int = 0,
) -> np.ndarray:
    """Empirical position counts of the second walker after ``steps`` steps.

    The coupled pair is advanced without any stopping rule; the returned
    length-|V| array counts where the mirrored walker landed, for comparison
    against the heat-kernel row (the marginal-law contract).
    """
    eng = _Coupler(graph, graph.level)
    done = eng.run(seed, "marginal-trial", trials, steps,
                   lambda states: (np.full(len(states), x0), np.full(len(states), y0)))
    return np.bincount(done["y"], minlength=graph.num_vertices)


def catalog(eng: _Coupler, m: int, side: int) -> list[tuple[int, int]]:
    """Every ordered m-associated pair (x != y) inside ``[0, side)^d``, listed
    class by class from ``eng.classes``: x ascending, then y ascending.  The
    listing that ``upgrade_statistics`` decodes its drawn indices from."""
    members, sizes = eng.classes(m, side)
    return [(x, y) for cls in np.split(members, np.cumsum(sizes)[:-1])
            for x in cls.tolist() for y in cls.tolist() if x != y]


def pair_catalog(graph: CarpetGraph, m: int, n: int) -> list[tuple[int, int]]:
    """All ordered m-associated pairs (x != y) inside the level-(n-1) box,
    read from an engine of its own (``upgrade_statistics`` decodes its draws
    from the same catalog of the engine it walks on).

    Cubes tile the window, so every S_{m+1} cube is decidable whenever
    m + 1 <= build level; nothing near the window edge needs excluding.
    """
    if m < 0:
        raise ValueError(f"association level m must be nonnegative, got {m}")
    if graph.level < max(n, m + 1):
        raise ValueError("built region too small for this catalog")
    return catalog(_Coupler(graph, max(n, m + 1)), m, graph.params.k ** (n - 1))


def regime_targets_by_full_sort(graph: VertexGraph, x: int, count: int = 24) -> list[int]:
    """The heat experiment's targets from a stable sort of every vertex by
    distance from x: x itself skipped, then ``count`` evenly spaced targets
    out to half the window (all of them if there are no more)."""
    dist = _distances(graph, x)
    order = np.argsort(dist, kind="stable")
    pool = order[dist[order] <= graph.side / 2.0][1:]
    if len(pool) <= count:
        return pool.tolist()
    return pool[np.linspace(0, len(pool) - 1, count).astype(np.int64)].tolist()


def reached_by_vertex_bfs(graph: VertexGraph, source_ids, ground_ids) -> tuple[np.ndarray, bool]:
    """Mask of the vertices the source reaches without crossing the ground
    (source included), breadth first over every vertex, and whether it met
    the ground; the orbit search in ``resistance`` must give the same."""
    ground = np.zeros(graph.num_vertices, dtype=bool)
    ground[ground_ids] = True
    reached = np.zeros(graph.num_vertices, dtype=bool)
    reached[source_ids] = True
    frontier = np.flatnonzero(reached)
    grounded = False
    while frontier.size:
        nbrs = graph.rows(frontier)[1]
        grounded = grounded or bool(ground[nbrs].any())
        frontier = np.unique(nbrs[~reached[nbrs] & ~ground[nbrs]])
        reached[frontier] = True
    return reached, grounded


def operator_by_diags(graph: VertexGraph, unknown_ids, orbits=None):
    """The orbit operator of ``DirichletSystem(graph, unknown_ids, orbits)`` as
    ``diags(deg) - offdiag``: the off-diagonal counts merged by orbit and
    scaled by ``sqrt(|O| / |O'|)``, then subtracted from the degrees by scipy."""
    unknown = np.asarray(unknown_ids, dtype=np.intp)
    inside = np.zeros(graph.num_vertices, dtype=bool)
    inside[unknown] = True
    least = np.arange(graph.num_vertices) if orbits is None else np.asarray(orbits, dtype=np.intp)
    reps = unknown[least[unknown] == unknown]
    column = np.empty(graph.num_vertices, dtype=np.int64)
    column[reps] = np.arange(len(reps))
    column = column[least]
    indptr, nbrs = graph.rows(reps)
    into = inside[nbrs]
    split = np.concatenate([[0], np.cumsum(into)])[indptr]
    offdiag = sp.csr_matrix((np.ones(split[-1]), column[nbrs[into]], split), shape=(len(reps),) * 2)
    root = np.sqrt(np.bincount(column[unknown], minlength=len(reps)))
    offdiag.sum_duplicates()
    row = np.repeat(np.arange(len(reps)), np.diff(offdiag.indptr))
    offdiag.data *= root[row]
    offdiag.data *= (1.0 / root)[offdiag.indices]
    return sp.diags(graph.degrees[reps].astype(np.float64)) - offdiag


def aggregate_by_link_lists(a, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The aggregates of ``linalg._aggregate(a, coords)``, from int64 row ids,
    int64 block keys and a float64 weight for every entry of ``a``, with each
    link set handed to ``connected_components`` as a COO list.

    An aggregate is a connected piece of a 3^d block ``coords // 3`` in the
    graph of ``a``'s off-diagonal nonzeros; a row alone in its piece joins
    the piece of its strongest neighbor (lowest row on ties); aggregates are
    numbered by block key, then by their least row, preferring rows that
    were not alone, and take that row's block."""
    def components(n, i, j):
        links = sp.csr_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
        return connected_components(links, directed=False)[1]

    blocks = coords // 3
    shifted = blocks - blocks.min(axis=0)
    keys = np.zeros(len(blocks), dtype=np.int64)
    for column, extent in zip(shifted.T, shifted.max(axis=0) + 1):
        keys = keys * extent + column
    n = len(keys)
    row = np.repeat(np.arange(n), np.diff(a.indptr))
    col, weight = a.indices, np.abs(a.data)
    link = (row != col) & (weight != 0)
    inside = link & (keys[row] == keys[col])
    piece = components(n, row[inside], col[inside])
    lone = np.bincount(piece)[piece] == 1
    out = np.flatnonzero(link & lone[row])
    out = out[np.lexsort((col[out], -weight[out], row[out]))]
    out = out[np.diff(row[out], prepend=-1) != 0]
    piece = components(piece.max() + 1, piece[row[out]], piece[col[out]])[piece]
    ranked = np.argsort(lone, kind="stable")
    rep = ranked[np.unique(piece[ranked], return_index=True)[1]]
    order = np.lexsort((rep, keys[rep]))
    return np.argsort(order)[piece], blocks[rep[order]]


class HypothesisError(RuntimeError):
    """A check was invoked outside the regime where its statement applies."""


@dataclass
class CapacityReport:
    zeta: float
    ds: float
    sensitivity: float  # |d zeta / d ds|, error-amplification of the exponent
    sizes: list
    resistances: list
    constants: list
    max_constant: float
    spread: float
    reports: list = field(default_factory=list)


def theorem5_check(
    graph: CarpetGraph,
    targets: Sequence,
    ds: float,
    levels: Optional[Sequence[int]] = None,
    tolerance: float = DEFAULT_TOL,
) -> CapacityReport:
    """Capacity-inequality probe: c_i = |A_i| * R(A_i)^zeta across targets.

    Requires a transient estimate (ds > 2); zeta = ds / (ds - 2).  The spread
    max c_i / min c_i measures how uniform the bound's constant would have to
    be.  Divergent resistance sequences abort the check — they contradict the
    transience hypothesis.
    """
    if ds <= 2.0:
        raise HypothesisError(
            f"capacity check needs spectral dimension > 2, estimate is {ds:.4f}"
        )
    if levels is None:
        levels = list(range(2, graph.level + 1))
    zeta = ds / (ds - 2.0)
    sensitivity = 2.0 / (ds - 2.0) ** 2

    sizes = []
    resist = []
    constants = []
    reports = []
    for A in targets:
        rep = resistance_to_infinity(graph, A, levels, tolerance=tolerance)
        if rep.divergent or rep.extrapolated is None:
            raise HypothesisError(
                "resistance to infinity did not converge for a target; "
                "transience hypothesis looks violated"
            )
        sizes.append(int(len(np.unique(np.asarray(A)))))
        resist.append(float(rep.extrapolated))
        constants.append(sizes[-1] * resist[-1] ** zeta)
        reports.append(rep)
    return CapacityReport(
        zeta=zeta,
        ds=ds,
        sensitivity=sensitivity,
        sizes=sizes,
        resistances=resist,
        constants=constants,
        max_constant=max(constants),
        spread=max(constants) / min(constants),
        reports=reports,
    )
