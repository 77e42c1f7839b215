"""Shared sparse Dirichlet/Poisson solver on vertex graphs.

All potential-theoretic quantities reduce to one primitive: given a value
at every vertex, keep the values outside a set of unknowns, optionally add a
right-hand side on the unknowns, and solve the graph Laplacian system
``(L u)_I = rhs_I`` restricted to the unknowns.  The solve reads only the
border: the vertices outside the unknowns that neighbor one.  The interior
block of ``L = D - A`` is symmetric positive definite whenever every unknown
component touches the border.  There are three solver paths, and one
reduction that applies to each:

* A system with at most ``DIRECT_MAX`` unknowns, and every system from its
  second solve on, is factored once by SuperLU, and each solve is two
  triangular solves.  The operator is SPD, so SuperLU runs in its symmetric
  mode: one ``MMD_AT_PLUS_A`` ordering applied to rows and columns alike,
  and pivots taken on the diagonal (X. S. Li, ACM TOMS 31, 2005).  On the
  2-D level-5 box (32,283 unknowns) that factors in 0.08 s, where the
  default mode's row pivoting and column re-ordering took 6.6 s for the
  same fill, and small 2-D systems factor faster than CG converges on them.
  A factor fills in badly on large 3-D systems, so larger systems factor
  only when they are reused, as in a boundary sweep.
* A larger system solved once runs this module's conjugate-gradient (CG)
  loop from zero, to the solver contract's relative-residual tolerance or
  its cap of 50 * sqrt(#unknowns) iterations.  Its inner products, and every
  norm here, are numpy's pairwise sums, not BLAS calls, whose threads split
  long sums: no bit depends on the BLAS thread count (Higham 2002, ch. 4).
* A system solved once with more than ``MULTIGRID_MIN`` unknowns runs the
  same CG, preconditioned by a smoothed-aggregation V-cycle (Vanek, Mandel,
  Brezina, Computing 56, 1996).  The aggregates are the connected pieces of
  the 3^d coordinate blocks ``coords // 3`` (on a k = 3 carpet, the parent
  cells), so the carpet supplies its own coarse grids; the hierarchy stops
  at ``MULTIGRID_COARSEST`` unknowns, where SuperLU solves.  Plain CG needs
  more iterations at every level (3,329 on the 2-D level-6 face system);
  the V-cycle keeps the count near 20-35 at every level, but each of its
  iterations costs about five fine-level matrix-vector products, so smaller
  systems stay on plain CG.
* A problem that a group of graph symmetries maps onto itself (unknowns
  and border data) has a solution constant on the group's orbits,
  so it is solved exactly on one unknown per orbit.  The operator is taken
  in the orthonormal basis ``S diag(|O|)^-1/2`` of orbit-constant vectors;
  it stays symmetric, so the three paths above run on it unchanged, and its
  residual norm is the full system's.  The 3-D level-4 face system shrinks
  from 443,854 to 57,454 unknowns under the 8 symmetries that keep both
  faces.

The set-up holds ids in int32 wherever a count fits (vertex ids, orbit
columns, CSR offsets, the aggregation's row ids and block keys) and drops
every |V|-long or entry-long temporary after its last use.  On the 3-D
level-4 face and R_4 systems (57,454 and 74,894 orbit unknowns) a system
keeps 8 bytes per unknown vertex and about 100 per orbit unknown; its
constructor peaks at 31-38 bytes per graph vertex, and the multigrid
hierarchy keeps about 85 bytes per orbit unknown and peaks at about 170
while it builds (tracemalloc).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .geometry import DEFAULT_TOL

__all__ = ["SolveInfo", "ConvergenceError", "DirichletSystem"]

# The V-cycle beats plain CG from about 4,000 unknowns in 2-D (4x at 34k in a
# sweep of carpet ball systems).  In 3-D, on the level-4 face and R_N orbit
# systems (57,454 and 74,894 unknowns, one BLAS thread), it takes 30-31
# iterations and 0.19-0.30 s where plain CG takes 423-463 and 0.31-0.49 s.
# Coarsest levels of 64 to 2,048 unknowns cost the same; 8,192 is slow in 3-D.
MULTIGRID_MIN = 30_000
# From a size sweep of one-shot carpet annulus systems (40 to 16,000
# unknowns, one BLAS thread): the symmetric-mode factor plus one solve beats
# plain CG at every size in 2-D (4x at 100 to 200 unknowns, 2-3x from 1,800
# to 16,000), but in 3-D only up to about 450 (2x slower at 1,058, 4.7x at
# 1,942, 14x at 12,710).  2,500 puts the 2-D hitting probes at r = 9 (765 to 1,961
# unknowns) on the factor; the 3-D scale suite's one-shot systems that it
# moves there (at most 2,246 orbit unknowns) cost about 9 ms more in all.
DIRECT_MAX = 2_500
MULTIGRID_COARSEST = 512
_OMEGA = 2.0 / 3.0  # Jacobi damping in the prolongator smoother and the cycle
_GALERKIN_BLOCKS = 8  # row blocks per coarse product, to bound its transient memory


class ConvergenceError(RuntimeError):
    """CG broke down or hit its cap, or SuperLU met a singular factor or missed the tolerance."""

    def __init__(self, message: str, residuals: Optional[list[float]] = None):
        super().__init__(message)
        self.residuals = residuals or []


@dataclass
class SolveInfo:
    residual: float
    iterations: int
    path: str = "none"  # "CG", "V-cycle" or "SuperLU"; "none" when nothing needed solving


class DirichletSystem:
    """One boundary-value problem layout, solved for any number of data.

    The operator and the border coupling are built once, from the rows of
    the unknowns.  The first :meth:`solve` runs the module's CG loop, with
    the multigrid V-cycle above ``MULTIGRID_MIN`` unknowns (built for that
    solve and dropped after it), or factors the operator with SuperLU if
    there are at most ``DIRECT_MAX`` unknowns.  A CG run that breaks down or
    stalls raises :class:`ConvergenceError` with its own residual history.
    Any later solve factors the operator if it is not factored yet, and
    keeps the factor, so that solve and every later one cost two triangular
    solves.  This makes boundary sweeps (one solve per boundary vertex)
    affordable, while a large system solved once never pays for a factor.

    The problem is solved on the orbits O of a group of graph automorphisms
    (the trivial group without ``orbits``) that maps the unknown set, its
    border and every solve's border data onto themselves, in the orthonormal
    basis ``S diag(|O|)^-1/2`` (S the orbit indicator matrix).  Row O of the
    operator is the Laplacian row at O's least vertex with columns merged by
    orbit and scaled by ``sqrt(|O| / |O'|)``; its residual norm is the full
    system's, so ``tol`` and :attr:`SolveInfo.residual` keep their meaning.

    Parameters
    ----------
    graph : VertexGraph
        The ambient graph.
    unknown_ids : int array
        The vertices solved for.  Reflection at missing cells is encoded by
        the true vertex degrees.
    orbits : int array, optional
        The least vertex of each vertex's orbit, as :meth:`VertexGraph.orbits`
        gives it.  The unknown set must be a union of orbits (checked), and
        each solve checks that the data it reads are finite and constant on
        orbits.  ``None`` gives every vertex its own orbit.
    """

    def __init__(self, graph, unknown_ids, orbits=None):
        self.graph = graph
        self.unknown = np.asarray(unknown_ids, dtype=np.int32)  # like every vertex id of the graph
        num = graph.num_vertices
        inside = np.zeros(num, dtype=bool)
        inside[self.unknown] = True

        # The system's unknowns: one representative vertex per orbit.  The
        # graph's int32 orbit table is kept as it is, not copied, and read
        # only where an id needs its orbit: no |V|-long id table is made.
        least = np.arange(num, dtype=np.int32) if orbits is None else np.asarray(orbits)
        if least.shape != (num,):
            raise ValueError("orbits must give every vertex its orbit")
        if not np.array_equal(inside[least], inside):
            raise ValueError("the unknown vertex set is not a union of orbits")
        self._least = least
        self._reps = reps = self.unknown[least[self.unknown] == self.unknown]
        column = np.empty(num, dtype=np.int32)  # set at the representatives only
        column[reps] = np.arange(len(reps), dtype=np.int32)
        self._orbit = column[least[self.unknown]]  # an orbit's unknowns share their representative's column

        # One pass over the representatives' rows, whose neighbors are images
        # of every unknown's: the unknown neighbors make the operator, merged
        # by orbit, and the others are the border, coupled by vertex id.
        indptr, nbrs = graph.rows(reps)
        into = inside[nbrs]
        del inside
        split = _kept_indptr(indptr, into)  # row starts of the unknown neighbors
        self._coupling = sp.csr_matrix((np.ones(len(nbrs) - split[-1]), nbrs[~into], indptr - split),
                                       shape=(len(reps), num))
        hit = np.zeros(num, dtype=bool)
        hit[least[self._coupling.indices]] = True
        self._read = np.flatnonzero(hit[least])  # the whole border, a union of orbits
        offdiag = sp.csr_matrix((np.ones(split[-1]), column[least[nbrs[into]]], split),
                                shape=(len(reps),) * 2)
        del hit, column, nbrs, into, split  # the id temporaries go before the operator's: a lower peak
        offdiag.sum_duplicates()  # merge each row's columns by orbit: integer counts, exact
        # Row O times sqrt|O|, column O' over sqrt|O'|: exact on singleton orbits.
        self._root = np.sqrt(np.bincount(self._orbit, minlength=len(reps)))
        offdiag.data *= np.repeat(self._root, np.diff(offdiag.indptr))
        offdiag.data *= (1.0 / self._root)[offdiag.indices]
        # L = D - A as scipy's difference of two canonical CSR matrices, one
        # C merge: -a off the diagonal, deg - a on it, an entry that is 0 dropped.
        diagonal = np.arange(len(reps) + 1, dtype=np.int32)
        self._lap = sp.csr_matrix((np.diff(indptr).astype(np.float64), diagonal[:-1], diagonal),
                                  shape=offdiag.shape) - offdiag
        self._cap = max(1, math.ceil(50.0 * math.sqrt(len(reps))))
        self._solves = 0
        self._factor = None

    @property
    def orbit_unknowns(self) -> int:
        """Size of the solved system: one unknown per orbit."""
        return len(self._reps)

    @property
    def factor_nnz(self) -> int:
        """Entries in the SuperLU factors L + U, or 0 while the operator is unfactored."""
        return 0 if self._factor is None else int(self._factor.L.nnz + self._factor.U.nnz)

    def solve(self, values: np.ndarray, rhs: Optional[np.ndarray] = None,
              tol: float = DEFAULT_TOL) -> tuple[np.ndarray, SolveInfo]:
        """Solve for the unknowns with one boundary value per vertex.

        Only the border values are read, and must be finite; the rest may be
        anything, NaN included.  ``tol``, the relative residual to reach,
        must lie in (0, 1).  Returns a float64 copy of ``values`` with the
        unknowns filled in.
        """
        if not 0.0 < tol < 1.0:
            raise ValueError(f"tolerance must be in (0, 1), got {tol!r}")
        # Read in place, in the caller's dtype (a mask will do): the float64
        # copy that is returned is made after the solve, so it never sits
        # beside the solver's temporaries.
        values = np.asarray(values)
        border = values[self._read]
        if not np.isfinite(border).all():
            raise ValueError("fixed values must be finite on the border")
        if not np.array_equal(values[self._least[self._read]], border):
            raise ValueError("fixed values are not constant on orbits")
        b = self._coupling @ values
        if rhs is not None:
            if np.shape(rhs) != (len(self.unknown),):
                raise ValueError("rhs must align with the unknown vertex set")
            rhs = np.asarray(rhs, dtype=np.float64)
            if not np.isfinite(rhs).all():
                raise ValueError("rhs must be finite on the unknowns")
            at_reps = rhs[self._least[self.unknown] == self.unknown]  # in column order
            if not np.array_equal(at_reps[self._orbit], rhs):
                raise ValueError("rhs are not constant on orbits")
            b = b + at_reps
        b = self._root * b  # coordinates of the orbit-constant b in the orthonormal basis
        bnorm = math.sqrt(_dot(b, b))
        if bnorm == 0.0:
            values = values.astype(np.float64)
            values[self.unknown] = 0.0
            return values, SolveInfo(residual=0.0, iterations=0)

        self._solves += 1
        # At the shipped constants (MULTIGRID_MIN > DIRECT_MAX) the first test
        # never decides; it does when a test lowers MULTIGRID_MIN below
        # DIRECT_MAX, as the multigrid stall tests do, so keep it.
        if self._solves == 1 and (len(b) > MULTIGRID_MIN or len(b) > DIRECT_MAX):
            u, iters, path = self._solve_cg(b, bnorm, tol)
        else:
            u, iters, path = self._factored().solve(b), 0, "SuperLU"
        r = b - self._lap @ u
        residual = math.sqrt(_dot(r, r)) / bnorm
        if path == "SuperLU" and not residual <= tol:
            raise ConvergenceError(f"SuperLU solve reached relative residual {residual:.3e} on "
                                   f"{len(u)} unknowns (tol {tol:.1e})", [residual])
        values = values.astype(np.float64)
        values[self.unknown] = (u / self._root)[self._orbit]
        return values, SolveInfo(residual=residual, iterations=iters, path=path)

    def _solve_cg(self, b, bnorm, tol) -> tuple[np.ndarray, int, str]:
        """Preconditioned CG from zero (Saad 2003, section 9.2) until ``||r|| <
        tol ||b||`` or ``_cap`` updates, keeping ``||r|| / ||b||`` after each."""
        n, precond = len(b), None
        if n > MULTIGRID_MIN:
            precond = functools.partial(_v_cycle, *_hierarchy(self._lap, self.graph.coords[self._reps]))
        u, r, p, buf = np.zeros(n), b.copy(), np.zeros(n), np.empty(n)
        rr, rho, history = _dot(r, r, buf), 1.0, []  # p starts at zero: the first beta is void
        for k in range(1, self._cap + 1):
            z = r if precond is None else precond(r)  # without the V-cycle, rho is r.r
            rho, rho_prev = rr if precond is None else _dot(r, z, buf), rho
            p *= rho / rho_prev
            p += z
            q = self._lap @ p
            pq = _dot(p, q, buf)
            if not (math.isfinite(pq) and pq > 0.0):
                failure = f"broke down at iteration {k} with p.Ap = {pq:.3e}"
                break
            alpha = rho / pq
            u += np.multiply(p, alpha, out=buf)
            r -= np.multiply(q, alpha, out=buf)
            del z, q  # the next V-cycle runs without them: a lower peak
            rr = _dot(r, r, buf)
            history.append(math.sqrt(rr) / bnorm)
            if math.sqrt(rr) < tol * bnorm:
                return u, k, "CG" if precond is None else "V-cycle"
        else:
            failure = f"stalled at relative residual {history[-1]:.3e} after {k} iterations"
        method = "CG" if precond is None else "multigrid-preconditioned CG"
        raise ConvergenceError(f"{method} {failure} (cap {self._cap}, tol {tol:.1e}, {n} unknowns)",
                               history)

    def _factored(self):
        """The SuperLU factor of the operator, computed on first use."""
        if self._factor is None:
            self._factor = _spd_factor(self._lap, f"SuperLU factor failed on {len(self._reps)} unknowns")
        return self._factor


def _dot(u, v, out=None) -> float:
    """u.v as numpy's pairwise sum, in an order that no BLAS thread count changes."""
    return float(np.add.reduce(np.multiply(u, v, out=out)))


def _spd_factor(a, failure: str):
    """SuperLU's symmetric mode for an SPD operator: one ``MMD_AT_PLUS_A``
    ordering for rows and columns, and pivots on the diagonal.  A failed
    factor raises :class:`ConvergenceError` as ``failure: <SuperLU's reason>``."""
    try:
        return splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise ConvergenceError(f"{failure}: {exc}") from exc


def _kept_indptr(indptr, keep) -> np.ndarray:
    """CSR row starts of the entries that the mask ``keep`` selects from the rows ``indptr``."""
    # int32: no operator has more off-diagonal entries than the graph's int32 CSR
    before = np.zeros(len(keep) + 1, dtype=np.int32)
    np.cumsum(keep, dtype=np.int32, out=before[1:])
    return before[indptr]


def _aggregate(a, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate number of each row, and the block coordinates of each aggregate.

    An aggregate is a connected piece of a 3^d block ``coords // 3`` in the
    graph of the CSR operator ``a``'s off-diagonal nonzeros, and a row alone
    in its piece joins the piece of its strongest neighbor (lowest row on
    ties).  So every aggregate is connected: a lone pair of adjacent degree-2
    rows would otherwise smooth to equal prolongator columns and a singular
    coarse operator.  Each aggregate takes the block of its least row,
    preferring rows that were not alone, and aggregates are numbered by
    block key, then by that row.  Row ids and block keys are int32 when
    they fit, and the links within blocks go straight into a CSR matrix.
    """
    blocks = coords // 3
    low, high = blocks.min(axis=0).tolist(), blocks.max(axis=0).tolist()
    extents = [hi - lo + 1 for lo, hi in zip(low, high)]  # keys from offsets keep the blocks aligned
    keys = np.zeros(len(blocks), dtype=np.int32 if math.prod(extents) < 2**31 else np.int64)
    for column, lo, extent in zip(blocks.T, low, extents):
        keys = keys * extent + (column - lo)
    n = len(keys)
    row = np.repeat(np.arange(n, dtype=np.int32), np.diff(a.indptr))
    col = a.indices
    link = (row != col) & (a.data != 0)
    inside = link & (keys[row] == keys[col])
    piece = _components(sp.csr_matrix((np.ones(np.count_nonzero(inside)), col[inside],
                                       _kept_indptr(a.indptr, inside)), shape=(n, n)))
    del inside
    lone = np.bincount(piece)[piece] == 1
    out = np.flatnonzero(link & lone[row])  # the links of lone rows, strongest first per row
    out = out[np.lexsort((col[out], -np.abs(a.data[out]), row[out]))]
    out = out[np.diff(row[out], prepend=-1) != 0]
    m = piece.max() + 1
    piece = _components(sp.csr_matrix((np.ones(len(out)), (piece[row[out]], piece[col[out]])),
                                      shape=(m, m)))[piece]
    ranked = np.argsort(lone, kind="stable")  # rows that were not alone first, in row order
    rep = ranked[np.unique(piece[ranked], return_index=True)[1]]  # first ranked row per aggregate
    order = np.lexsort((rep, keys[rep]))
    return np.argsort(order)[piece], blocks[rep[order]]


def _components(links) -> np.ndarray:
    """Connected component of each node of the graph of the sparse matrix ``links``."""
    # imported here: csgraph adds about 1 MB to every run that never aggregates
    from scipy.sparse.csgraph import connected_components

    return connected_components(links, directed=False)[1]


def _hierarchy(lap, coords):
    """Smoothed-aggregation levels ``(A, P, P^T, omega / diag A)``, fine to coarse,
    and the SuperLU factor of the coarsest operator.  The hierarchy stops
    early where aggregation no longer merges rows."""
    levels = []
    a = lap.tocsr()
    while a.shape[0] > MULTIGRID_COARSEST:
        agg, block_coords = _aggregate(a, coords)
        n = a.shape[0]
        if len(block_coords) == n:
            break
        coords = block_coords
        tentative = sp.csr_matrix((np.ones(n), agg, np.arange(n + 1)), shape=(n, len(coords)))
        scale = _OMEGA / a.diagonal()
        p = (tentative - sp.diags(scale) @ (a @ tentative)).tocsr()
        bounds = np.linspace(0, n, _GALERKIN_BLOCKS + 1).astype(np.int64)
        coarse = sum(p[lo:hi].T @ (a[lo:hi] @ p) for lo, hi in zip(bounds[:-1], bounds[1:]))
        levels.append((a, p, p.T.tocsr(), scale))  # P^T as CSR once: one row pass per restriction
        a = coarse.tocsr()
    return levels, _spd_factor(a, f"multigrid coarsest factor failed on {a.shape[0]} of "
                                  f"{lap.shape[0]} unknowns")


def _v_cycle(levels, coarsest, r: np.ndarray) -> np.ndarray:
    """One V(1,1) cycle from a zero guess: a damped Jacobi sweep before and
    after each coarse correction, so the preconditioner is symmetric.

    A loop, not a recursive closure: a closure that calls itself is a
    reference cycle, which would keep every hierarchy alive until the
    garbage collector runs.
    """
    down = []
    for a, _, pt, scale in levels:
        x = scale * r
        down.append((r, x))
        r = pt @ _residual(a, x, r)
    x = coarsest.solve(r)
    for (a, p, _, scale), (r, x_pre) in zip(reversed(levels), reversed(down)):
        x_pre += p @ x  # the same sums as x_pre + p @ x, in the pre-smoothed vector itself
        x = x_pre
        correction = _residual(a, x, r)
        correction *= scale
        x += correction
    return x


def _residual(a, x, r) -> np.ndarray:
    """r - a @ x, in the array of the product."""
    ax = a @ x
    return np.subtract(r, ax, out=ax)
