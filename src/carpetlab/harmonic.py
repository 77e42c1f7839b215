"""Dirichlet problems on carpet boxes: Harnack ratios, hitting
probabilities, and expected exit times.

A function on graph vertices is harmonic at ``v`` when it equals the mean of
its neighbor values; the mean uses the true vertex degree, so the walk
reflects at the carpet boundary without ghost cells.  Every quantity here is
one linear solve against the graph Laplacian restricted to a set of unknowns,
through :class:`carpetlab.linalg.DirichletSystem`, the only solve entry
point; a solve reads only the vertices that border its unknowns.

The walk is the lazy nearest-neighbour walk that holds with probability
``HOLD`` = 1/2, geometry's constant, which the heat kernel and coupling share.

Ball-based quantities (hitting probability, exit time) are computed for the
random walk on the *built* graph.  When every non-fixed vertex of the problem
stays clear of the window's high faces this coincides with the walk on the
unbounded carpet; the standard experiment catalogs enforce that margin when
sampling centers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import DEFAULT_TOL, HOLD, CarpetGraph, box_vertices
from .linalg import DirichletSystem
from .seeding import derive_rng

__all__ = [
    "HarnackReport",
    "HittingSpec",
    "harnack_constant",
    "hitting_probability",
    "expected_exit_time",
    "hitting_pair_catalog",
]

DEGENERATE_FLOOR = 1e-300
# Sweep values within this relative distance of an extremum count as ties, so
# witnesses do not depend on solver rounding between mirror-symmetric maxima.
WITNESS_RTOL = 1e-9


@dataclass
class HarnackReport:
    level: int
    constant: float
    rho: float
    witness: tuple[int, int, int]  # (argmax x, argmin y, boundary vertex b)
    rho_witness: tuple[int, int, int]
    max_residual: float
    degenerate: list
    solves: int = 0  # sweep solves, one per boundary vertex with nonzero data
    first_path: str = "none"  # solver path of the first solve
    factor_nnz: int = 0  # entries in the SuperLU factors L + U


@dataclass(frozen=True)
class HittingSpec:
    """Inner ball of radius ``r`` around ``x``, absorbing shell at ``c2 * r``.

    Starting points are admitted within ``c1 * r``; the defaults leave an
    annulus of width ``2 r`` between the inner ball and the absorbing shell.
    """

    x: int
    r: float
    c1: float = 2.0
    c2: float = 4.0

    def __post_init__(self):
        if not np.isfinite([self.r, self.c1, self.c2]).all():
            raise ValueError(f"radii must be finite, got r={self.r}, c1={self.c1}, c2={self.c2}")
        if self.r <= 0:
            raise ValueError("inner radius must be positive")
        if not (self.c2 > self.c1 > 1.0):
            raise ValueError("radius factors must satisfy c2 > c1 > 1")


def _max_principle_check(values, interior, lo, hi, tolerance):
    if interior.size == 0:
        return
    inner_vals = values[interior]
    slack = max(1e-12, 1e3 * tolerance) * max(1.0, hi - lo, abs(hi), abs(lo))
    if inner_vals.min() < lo - slack or inner_vals.max() > hi + slack:
        raise RuntimeError(
            f"maximum principle violated: interior range "
            f"[{inner_vals.min():.6g}, {inner_vals.max():.6g}] vs boundary "
            f"[{lo:.6g}, {hi:.6g}]"
        )


def harnack_constant(graph: CarpetGraph, n: int, tolerance: float = DEFAULT_TOL) -> HarnackReport:
    """Worst sup/inf ratio over the inner box, by exhaustive boundary sweep.

    For each boundary vertex ``b`` of the level-``n`` box, the harmonic
    measure ``h_b`` is solved and its max/min over the level-``n-1`` inner box
    recorded.  Every positive harmonic function on the box is a nonnegative
    combination of the ``h_b``, and a ratio of nonnegative combinations is
    bounded by the worst component ratio, so the sweep maximum is the exact
    Harnack constant of the box.  The oscillation ratio ``rho`` (worst inner
    oscillation over box supremum, same sweep) rides along in the report.
    Each witness is the first boundary vertex in sweep order, and the first
    inner vertices, within ``WITNESS_RTOL`` of the extremum, so mirror-image
    maximizers resolve the same way whatever the solver's rounding.  The
    report counts the solves, names the first one's solver path and gives
    the size of the factor that the later ones reuse.
    """
    if not 1 <= n <= graph.level:
        raise ValueError(f"need 1 <= n <= graph level, got n={n}")
    part = box_vertices(graph, n)
    system = DirichletSystem(graph, part.interior)
    inner = part.inner
    box = part.box

    count = len(part.boundary)
    ratios = np.full(count, np.nan)  # inner max/min per boundary vertex, NaN if degenerate
    oscs = np.full(count, np.nan)
    pairs = np.empty((count, 2), dtype=np.int64)  # (argmax x, argmin y) per boundary vertex
    max_residual = 0.0
    degenerate: list[tuple[int, int]] = []
    paths = []

    g = np.zeros(graph.num_vertices)
    for idx, b in enumerate(part.boundary):
        g[b] = 1.0
        values, info = system.solve(g, tol=tolerance)
        g[b] = 0.0
        max_residual = max(max_residual, info.residual)
        paths.append(info.path)

        inner_vals = values[inner]
        hi = float(inner_vals.max())
        lo = float(inner_vals.min())
        pairs[idx] = inner[_first_near(inner_vals, hi)], inner[_first_near(inner_vals, lo)]
        sup_box = float(values[box].max())

        if sup_box > 0.0:
            oscs[idx] = (hi - lo) / sup_box
        if lo < DEGENERATE_FLOOR:
            degenerate.append((int(b), int(pairs[idx, 1])))
        else:
            ratios[idx] = hi / lo

    constant = float(np.fmax.reduce(ratios, initial=1.0))
    rho = float(np.fmax.reduce(oscs, initial=0.0))
    at = _first_near(ratios, constant)
    rho_at = _first_near(oscs, rho)
    return HarnackReport(
        level=n,
        constant=constant,
        rho=rho,
        witness=(int(pairs[at, 0]), int(pairs[at, 1]), int(part.boundary[at])),
        rho_witness=(int(pairs[rho_at, 0]), int(pairs[rho_at, 1]), int(part.boundary[rho_at])),
        max_residual=max_residual,
        degenerate=degenerate,
        solves=count - paths.count("none"),
        first_path=next((p for p in paths if p != "none"), "none"),
        factor_nnz=system.factor_nnz,
    )


def _first_near(scores: np.ndarray, best: float) -> int:
    """Index of the first score within ``WITNESS_RTOL`` of ``best`` (0 if none)."""
    hits = np.flatnonzero(np.abs(scores - best) <= WITNESS_RTOL * abs(best))
    return int(hits[0]) if hits.size else 0


def _distances(graph, x: int) -> np.ndarray:
    """Euclidean distance of every vertex from vertex ``x``.

    The squared offsets are summed axis by axis in int64, exactly (the
    float64 sum of the same squares is exact too while it stays below
    2^53), and one float64 ``sqrt`` follows: no (|V|, d) temporary."""
    origin = graph.coords[graph.check_ids(x)]
    square = np.zeros(graph.num_vertices, dtype=np.int64)
    for axis, at in enumerate(origin.tolist()):
        delta = graph.coords[:, axis] - np.int64(at)
        delta *= delta
        square += delta
    return np.sqrt(square, dtype=np.float64)


def _require_absorbing_shell(graph, x, radius):
    """The built graph must reach distance ``radius`` from ``x``."""
    dist = _distances(graph, x)
    if dist.max() < radius:
        hint = ""
        if isinstance(graph, CarpetGraph):
            k = graph.params.k
            need = int(np.ceil(np.log(graph.top[x] + radius + 1) / np.log(k)))
            hint = f"; build level >= {need}"
        raise ValueError(f"no vertex at distance >= {radius:g} from vertex {x}{hint}")
    return dist


def hitting_probability(
    graph, spec: HittingSpec, y, tolerance: float = DEFAULT_TOL, solves: Optional[list] = None
):
    """Probability the walk from ``y`` enters B(x, r) before leaving B(x, c2*r).

    Solves the Dirichlet problem with value 1 on vertices strictly within
    distance ``r`` of ``x`` and value 0 at distance >= ``c2 * r`` (ties at the
    exact radius count as outside the inner ball).  ``y`` is one start, which
    gives a float, or an array of starts, which gives an array of its shape;
    every start reads the same solve.  A ``solves`` list receives the
    solve's unknowns, solver path and residual; starts that all lie inside
    the inner ball or beyond the shell need no solve and add nothing.
    """
    dist = _require_absorbing_shell(graph, spec.x, spec.c2 * spec.r)
    starts = graph.check_ids(y)
    far = starts[dist[starts] > spec.c1 * spec.r]
    if far.size:
        raise ValueError(f"start vertex {far[0]} at distance {dist[far[0]]:.4g} exceeds "
                         f"c1*r = {spec.c1 * spec.r:.4g}")
    inner = dist < spec.r
    outer = dist >= spec.c2 * spec.r
    values = inner.astype(np.float64)
    if not (inner | outer)[starts].all():
        unknown = np.nonzero(~(inner | outer))[0]
        values, info = DirichletSystem(graph, unknown).solve(values, tol=tolerance)
        _max_principle_check(values, unknown, 0.0, 1.0, tolerance)
        if solves is not None:
            solves.append({"unknowns": len(unknown), "path": info.path, "residual": info.residual})
    p = values[starts]
    return float(p) if p.ndim == 0 else p


def expected_exit_time(graph, x: int, r, tolerance: float = DEFAULT_TOL):
    """Mean number of lazy-walk steps for the walk from ``x`` to reach distance ``r``.

    Solves the Poisson problem (L u = degree / (1 - HOLD) inside the ball,
    u = 0 at distance >= r) on the orbits of the graph symmetries that fix
    ``x``: they keep the ball, its border and the degrees.  A non-positive
    radius puts ``x`` itself on the exit set, so the answer is 0.  ``r`` is
    one radius, which gives a float, or an array of radii, which gives an
    array of its shape; the radii share one distance pass and one orbit
    partition, and each positive radius takes one solve.
    """
    radii = np.asarray(r, dtype=np.float64)
    times = np.zeros(radii.shape)
    if (radii > 0).any():
        dist = _require_absorbing_shell(graph, x, radii[radii > 0].max())
        orbits = graph.orbits(graph.symmetries([x]))
        for i in np.ndindex(radii.shape):
            if not radii[i] > 0:
                continue
            unknown = np.nonzero(dist < radii[i])[0]
            rhs = graph.degrees[unknown].astype(np.float64) / (1.0 - HOLD)
            values, _ = DirichletSystem(graph, unknown, orbits=orbits).solve(
                np.zeros(graph.num_vertices), rhs=rhs, tol=tolerance)
            times[i] = values[x]
    return float(times) if times.ndim == 0 else times


def hitting_pair_catalog(
    graph: CarpetGraph,
    r: float,
    c1: float = 2.0,
    c2: float = 4.0,
    count: int = 50,
    seed: int = 0,
) -> list[tuple[int, int]]:
    """Seeded catalog of (center, start) pairs for hitting-probability probes.

    Centers are drawn only where the whole outer ball stays clear of the
    window's high faces (so the built-graph walk agrees with the unbounded
    one); starts are drawn from the annulus r <= |y - x| <= c1*r, where the
    probe is nontrivial.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    HittingSpec(x=0, r=r, c1=c1, c2=c2)  # checks the radii before any draw
    rng = derive_rng(seed, "hitting-pair-catalog", index=int(round(r)))
    eligible = np.flatnonzero(graph.top + c2 * r <= graph.side - 1)
    if eligible.size == 0:
        raise ValueError(f"no admissible centers at r={r:g}; build a larger graph")
    pairs: list[tuple[int, int]] = []
    guard = 0
    while len(pairs) < count:
        guard += 1
        if guard > 100 * count:
            raise RuntimeError("pair sampling stalled; annulus too sparse")
        x = int(eligible[rng.integers(eligible.size)])
        dist = _distances(graph, x)
        ys = np.nonzero((dist >= r) & (dist <= c1 * r))[0]
        if ys.size == 0:
            continue
        y = int(ys[rng.integers(ys.size)])
        pairs.append((x, y))
    return pairs
