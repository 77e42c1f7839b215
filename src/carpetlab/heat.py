"""Lazy random-walk heat kernel: iteration, exponent fits, regime fits.

The walk holds in place with probability ``HOLD`` = 1/2 (killing bipartite
parity) and otherwise moves to a uniformly random neighbor.  On-diagonal decay
p_t(x,x) ~ t^(-d_s/2) yields the spectral dimension; exit-time scaling
E[tau(x,r)] ~ r^(d_w) yields the walk dimension; off-diagonal decay is fitted
separately in the near regime (|x-y| <= t) and the far regime (|x-y| > t).

One :class:`TransitionOperator` steps the walk on the orbits of a group of
graph symmetries, the trivial group giving the plain walk, and every kernel
iteration goes through :func:`kernel_entries`.  :func:`walk_kernel` walks
the orbits of the symmetries fixing the source: p_t(x, .) is constant on
each orbit, so one sparse matrix-vector product per step on one value per
orbit gives the kernel exactly (on the 3-D level-4 carpet the central
source's stabilizer has order 6 and the walk steps 78,216 orbits for
456,976 vertices).  Only the vertices a caller asks for are gathered from
the orbit values.  Memory stays O(|V|).

The walk is reversible with respect to the degree (Levin-Peres-Wilmer,
*Markov Chains and Mixing Times*, ch. 1), so a walk to t also gives

    p_2t(x, x) = deg(x) sum_y p_t(x, y)^2 / deg(y) = sum_O w_O v_O^2,

summed over the orbit values v_O with w_O = deg(x) |O| / deg(O).
:func:`walk_kernel` takes every d_s fit point at T from this squared sum at
T/2, so the walk ends at max(last fit time / 2, the last asked time), half
the steps a walk to the last fit time would take.  Where the walk passes a
fit time anyway it compares the walked p_T(x, x) with the squared sum and
reports the worst relative gap.  The fits (:func:`fit_ds`,
:func:`fit_regimes`) take the values read off that one walk: d_s from the
points at :func:`ds_fit_times`, the regimes from ``p_t(x, y)`` at chosen
targets and times.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .geometry import DEFAULT_TOL, HOLD, CarpetGraph, CarpetParams, VertexGraph
from .harmonic import expected_exit_time

__all__ = [
    "TransitionOperator",
    "kernel_entries",
    "KernelWalk",
    "walk_kernel",
    "ExponentEstimate",
    "RegimeFitReport",
    "FitError",
    "central_vertex",
    "carpet_saturation_time",
    "ds_fit_times",
    "fit_ds",
    "estimate_dw",
    "fit_regimes",
]

PROB_FLOOR = 1e-300
DS_MIN_POINTS = 4  # fewest on-diagonal points a d_s fit accepts


class FitError(RuntimeError):
    """Not enough usable points for a slope estimate."""


class TransitionOperator:
    """One-step operator of the lazy walk on the orbits of a group of graph symmetries.

    ``orbits`` gives the least vertex of each vertex's orbit, as
    :meth:`VertexGraph.orbits` gives it; ``None`` gives every vertex its own
    orbit and the plain walk.  ``orbit[v]`` numbers v's orbit by its least
    vertex ``reps[orbit[v]]``, and :meth:`step` moves the common value of
    each orbit.  The chain lumps exactly when it is invariant under the
    group (Kemeny-Snell, *Finite Markov Chains*, 1960, 6.3): the orbit
    masses m step by ``S Q S^T diag(1/|O|)``, S the orbit indicator matrix
    and ``Q = (1 - HOLD) A D^-1``.  The operator steps the values ``m / |O|``
    instead, with the similar matrix ``diag(1/|O|) S Q S^T``, whose row O is
    Q's row at O's least vertex with columns relabelled by orbit and left
    unmerged, so each step's sum is the plain step's sum at that vertex,
    term by term, and no division enters it.  A step is one product with
    ``Q`` plus the hold, HOLD (1 on an isolated vertex), as the last entry of
    each row: the product sums each row left to right from 0, so the step is
    ``hold * p + Q @ p`` to the last digit.
    """

    def __init__(self, graph: VertexGraph, orbits=None):
        self.graph = graph
        n = graph.num_vertices
        least = np.arange(n) if orbits is None else np.asarray(orbits)
        if least.shape != (n,):
            raise ValueError("orbits must give every vertex its orbit")
        is_rep = least == np.arange(n)
        self.reps = np.flatnonzero(is_rep)
        # the rank of v's least vertex among the reps
        self.orbit = (np.cumsum(is_rep, dtype=np.int32) - 1)[least]
        self.states = len(self.reps)
        deg = graph.degrees.astype(np.float64)
        indptr, nbrs = graph.rows(self.reps)
        # The entry at neighbor j is (1 - HOLD) / deg(j), and each row ends with its hold.
        ends = indptr[1:]
        data = np.insert((1.0 - HOLD) / deg[nbrs], ends, np.where(deg[self.reps] > 0, HOLD, 1.0))
        cols = np.insert(self.orbit[nbrs], ends, np.arange(self.states))
        self._q = sp.csr_matrix((data, cols, indptr + np.arange(self.states + 1)), shape=(self.states,) * 2)

    def step(self, dist: np.ndarray) -> np.ndarray:
        """Apply one lazy-walk step to the orbit values ``dist``."""
        return self._q @ np.asarray(dist, dtype=np.float64)


def kernel_entries(op: TransitionOperator, x: int, ids, times: Iterable[int]) -> Iterator[tuple]:
    """Yield ``(t, p, v)`` for each of the ascending ``times``: ``p[i]`` is
    p_t(x, ids[i]) and ``v[O]`` is p_t(x, y) for every y in orbit O of ``op``.

    The only loop that applies a step.  It walks ``op``, whose symmetries
    must fix ``x``, from the value 1 on x's orbit (x alone) and 0 elsewhere,
    advances between consecutive times, and gathers only the vertices
    ``ids`` from the orbit values.
    """
    if np.count_nonzero(op.orbit == op.orbit[op.graph.check_ids(x)]) != 1:
        raise ValueError(f"the walk's symmetries move the source {x}")
    read = op.orbit[op.graph.check_ids(ids)]
    values = np.zeros(op.states)
    values[op.orbit[x]] = 1.0
    t_cur = 0
    for t in times:
        if t < t_cur:
            raise ValueError("times must be nonnegative and ascending")
        for _ in range(t - t_cur):
            values = op.step(values)
        t_cur = t
        yield t, values[read], values


@dataclass
class KernelWalk:
    """What :func:`walk_kernel` reads off one walk from x.

    ``entries[t][i]`` is p_t(x, ids[i]) at each asked time; ``diag`` holds
    the d_s points ``(T, p_T(x, x))``, each from the squared sum at T/2;
    ``gap`` is the worst relative gap between that sum and the walked
    p_T(x, x) over the fit times the walk reaches (0 if none); ``steps`` is
    the walk's length, ``states`` the number of orbits it steps and
    ``symmetry_order`` the order of the group fixing x.
    """

    entries: dict
    diag: list
    gap: float
    steps: int
    states: int
    symmetry_order: int


def walk_kernel(graph: VertexGraph, x: int, ids, times: Iterable[int],
                fit_times: Sequence[int]) -> KernelWalk:
    """Walk once from ``x`` to max(``times``, last of ``fit_times`` / 2).

    The walk runs on the orbits of the graph symmetries that fix ``x``.  The
    fit times must be even, as :func:`ds_fit_times` are.  The squared sum
    is numpy's pairwise sum over the orbits, whose order does not depend on
    the thread count, taken only at the half fit times.
    """
    odd = [t for t in fit_times if t % 2]
    if odd:
        raise ValueError(f"d_s fit times must be even, got {odd[0]}")
    group = graph.symmetries([x])
    op = TransitionOperator(graph, graph.orbits(group))
    # w_O = deg(x) |O| / deg(O); an isolated orbit other than x's is never
    # reached and weighs 0, and x's own orbit weighs 1 even when x is isolated.
    deg = graph.degrees[op.reps].astype(np.float64)
    weight = np.zeros(op.states)
    np.divide(deg[op.orbit[x]] * np.bincount(op.orbit), deg, out=weight, where=deg > 0)
    weight[op.orbit[x]] = 1.0

    times = sorted(set(times))
    half = {t // 2 for t in fit_times}
    steps = max([*times, *half], default=0)
    checked = [t for t in fit_times if t <= steps]
    entries, walked, doubled = {}, {}, {}
    for t, p, v in kernel_entries(op, x, [x, *ids], sorted({*times, *half, *checked})):
        entries[t] = p[1:]
        walked[t] = float(p[0])
        if t in half:
            doubled[2 * t] = float((v * v * weight).sum())
    gap = max((abs(doubled[t] - walked[t]) / walked[t] for t in checked), default=0.0)
    return KernelWalk({t: entries[t] for t in times}, [(t, doubled[t]) for t in fit_times], gap, steps,
                      op.states, len(group))


def central_vertex(graph: CarpetGraph) -> int:
    """Surviving cell farthest from the window boundary (ties: lowest id).

    Default source for on-diagonal estimates, minimizing boundary
    contamination of the kernel.
    """
    # distance from cell center to the nearest window wall, doubled to stay
    # in integers: min(2c+1, 2(side-c)-1) over the axes, read off the least
    # coordinate and the largest (``top``)
    least = functools.reduce(np.minimum, graph.coords.T)
    near = np.minimum(2 * least + 1, 2 * (graph.side - graph.top) - 1)
    return int(np.argmax(near))


def carpet_saturation_time(params: CarpetParams, level: int) -> int:
    """Heuristic cap before finite-size saturation of the level-``level`` carpet,
    (diameter/4)^2, computed without building it."""
    diam = (params.k ** level - 1) * math.sqrt(params.d)
    return max(1, int((diam / 4.0) ** 2))


def ds_fit_times(cap: int) -> list[int]:
    """The default d_s fit times: the powers of two from 16 up to the saturation ``cap``."""
    return [2 ** i for i in range(4, int(cap).bit_length())]


@dataclass
class ExponentEstimate:
    value: float
    standard_error: float
    window: tuple[float, float]
    r_squared: float
    n_points: int
    points: list = field(default_factory=list)
    degenerate: bool = False


def _estimate(points: list, xs: np.ndarray, ys: np.ndarray, scale: float = 1.0) -> ExponentEstimate:
    """The OLS fit of ``ys`` on ``xs`` as an exponent: ``scale`` times the slope,
    with its standard error and r^2.

    The window spans the first entries of ``points``, in their own type.
    """
    xbar = xs.mean()
    ybar = ys.mean()
    sxx = float(((xs - xbar) ** 2).sum())
    if sxx == 0.0:
        raise FitError("all abscissae coincide; cannot fit a slope")
    slope = float(((xs - xbar) * (ys - ybar)).sum() / sxx)
    resid = ys - (ybar + slope * (xs - xbar))
    ss_res = float((resid ** 2).sum())
    ss_tot = float(((ys - ybar) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    se = math.sqrt(ss_res / (len(xs) - 2) / sxx) if len(xs) > 2 else 0.0
    absc = [a for a, _ in points]
    return ExponentEstimate(value=scale * slope, standard_error=abs(scale) * se,
                            window=(min(absc), max(absc)), r_squared=r2,
                            n_points=len(points), points=points)


def fit_ds(diag: Sequence[tuple[int, float]]) -> ExponentEstimate:
    """Spectral dimension from an on-diagonal series ``(t, p_t(x,x))``: d_s = -2 * slope.

    Fewer than 4 points, or fewer than 4 above the probability floor, is a
    fit error; a flat series is returned with value 0 and flagged degenerate.
    """
    if len(diag) < DS_MIN_POINTS:
        raise FitError(f"need at least {DS_MIN_POINTS} fit points, have {len(diag)}")
    usable = [(t, p) for t, p in diag if p > PROB_FLOOR]
    if len(usable) < DS_MIN_POINTS:
        raise FitError(f"only {len(usable)} points above the probability floor")
    xs = np.log([t for t, _ in usable])
    ys = np.log([p for _, p in usable])
    if np.allclose(ys, ys[0]):
        return ExponentEstimate(value=0.0, standard_error=0.0, window=(usable[0][0], usable[-1][0]),
                                r_squared=1.0, n_points=len(usable), points=usable, degenerate=True)
    return _estimate(usable, xs, ys, scale=-2.0)


def estimate_dw(graph: CarpetGraph, x: int, tolerance: float = DEFAULT_TOL) -> ExponentEstimate:
    """Walk dimension from exit-time scaling: slope of log E[tau] vs log r.

    Exit times come from deterministic Poisson solves, not sampling, at the
    radii k^m that fit between ``x`` and the window's high faces.
    """
    k, room = graph.params.k, graph.side - 1 - graph.top[graph.check_ids(x)]
    radii = [float(k ** m) for m in range(1, graph.level + 1) if k ** m <= room]
    if len(radii) < 3:
        raise FitError(f"need at least 3 radii, have {len(radii)}")
    taus = expected_exit_time(graph, x, radii, tolerance=tolerance).tolist()
    if any(t <= 0 for t in taus):
        raise FitError("non-positive exit time in the radius list")
    return _estimate(list(zip(radii, taus)), np.log(radii), np.log(taus))


@dataclass
class RegimeFitReport:
    """Near/far off-diagonal decay fits against their model abscissae.

    ``sub_gaussian`` covers pairs with |x-y| <= t (abscissa
    (|x-y|^d_w / t)^(1/(d_w-1)), ordinate -log(p * t^(d_s/2))); ``gaussian``
    covers |x-y| > t (abscissa |x-y|^2 / t, ordinate -log p).  An empty
    regime is reported as None (not-fit), never an error.
    """

    sub_gaussian: Optional[ExponentEstimate]
    gaussian: Optional[ExponentEstimate]
    n_sub: int
    n_gauss: int
    n_floor_excluded: int


def fit_regimes(
    graph: VertexGraph,
    x: int,
    samples: Sequence[tuple[int, int, float]],
    ds: float,
    dw: float,
) -> RegimeFitReport:
    """Fit both heat-kernel decay regimes to kernel samples ``(y, t, p_t(x,y))``.

    Every sample time must be at least 1: both model abscissae divide by t.
    """
    if not (math.isfinite(ds) and math.isfinite(dw)):
        raise ValueError(f"exponents must be finite, got ds={ds}, dw={dw}")
    if dw <= 1.0:
        raise ValueError("walk dimension must exceed 1")
    early = [t for _, t, _ in samples if t < 1]
    if early:
        raise ValueError(f"sample times must be at least 1, got {early[0]}")
    graph.check_ids([x, *(y for y, _, _ in samples)])
    origin = graph.coords[x].astype(np.float64)  # only the rows read go to float64, not the carpet
    sub_pts: list[tuple[float, float]] = []
    gauss_pts: list[tuple[float, float]] = []
    floored = 0

    for y, t, p in samples:
        sep = float(np.linalg.norm(graph.coords[y] - origin))
        if p <= PROB_FLOOR:
            floored += 1
            continue
        if sep <= t:
            absc = (sep ** dw / t) ** (1.0 / (dw - 1.0))
            sub_pts.append((absc, -math.log(p * t ** (ds / 2.0))))
        else:
            gauss_pts.append((sep ** 2 / t, -math.log(p)))

    def _regime(points):
        return _estimate(points, *np.array(points).T) if len(points) >= 2 else None

    return RegimeFitReport(
        sub_gaussian=_regime(sub_pts),
        gaussian=_regime(gauss_pts),
        n_sub=len(sub_pts),
        n_gauss=len(gauss_pts),
        n_floor_excluded=floored,
    )
