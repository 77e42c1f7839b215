"""Shared sparse Dirichlet/Poisson solver on vertex graphs.

All potential-theoretic quantities reduce to one primitive: fix values on a
set of vertices, optionally add a right-hand side on the unknowns, and solve
the graph Laplacian system ``(L u)_I = rhs_I`` restricted to the unknowns.
The interior block of ``L = D - A`` is symmetric positive definite whenever
every unknown component touches a fixed vertex.  A system solved once runs a
conjugate-gradient iteration; the relative-residual tolerance and the
iteration cap (50 * sqrt(#unknowns)) follow the solver contract.  A system
solved a second time is factored once by SuperLU with ``MMD_AT_PLUS_A``
ordering (X. S. Li, ACM TOMS 31, 2005), and that solve and every later one
are triangular solves.  A factor costs several CG solves and fills in badly
on large 3-D systems, so it pays only when it is reused, as in a boundary
sweep; one-shot systems never factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg, splu

__all__ = ["SolveInfo", "ConvergenceError", "DirichletSystem"]

DEFAULT_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """CG stalled within its cap, or SuperLU met a singular factor or missed the tolerance."""

    def __init__(self, message: str, residuals: Optional[list[float]] = None):
        super().__init__(message)
        self.residuals = residuals or []


@dataclass
class SolveInfo:
    residual: float
    iterations: int


class DirichletSystem:
    """One boundary-value problem layout, solved for any number of data.

    The sliced operator is built once.  The first :meth:`solve` runs CG; the
    second factors the operator with SuperLU and keeps the factor, so that
    solve and every later one cost two triangular solves.  This is what makes
    boundary sweeps (one solve per boundary vertex) affordable, while a
    system solved once never pays for a factor.

    Parameters
    ----------
    graph : VertexGraph
        The ambient graph.
    unknown_ids, fixed_ids : int arrays
        Disjoint vertex sets; every neighbor of an unknown vertex must lie in
        ``unknown_ids | fixed_ids`` (checked), so the restriction is
        self-contained and reflection at missing cells is encoded by the true
        vertex degrees.
    """

    def __init__(self, graph, unknown_ids, fixed_ids):
        self.graph = graph
        self.unknown = np.asarray(unknown_ids, dtype=np.int64)
        self.fixed = np.asarray(fixed_ids, dtype=np.int64)
        if np.intersect1d(self.unknown, self.fixed).size:
            raise ValueError("unknown and fixed vertex sets overlap")

        adj = graph.adjacency()
        domain_mask = np.zeros(graph.num_vertices, dtype=bool)
        domain_mask[self.unknown] = True
        domain_mask[self.fixed] = True
        rows = adj[self.unknown]
        if rows.nnz and not domain_mask[rows.indices].all():
            raise ValueError("an unknown vertex has a neighbor outside the domain")

        deg = graph.degrees[self.unknown].astype(np.float64)
        self._coupling = rows[:, self.fixed]
        self._lap = sp.diags(deg) - rows[:, self.unknown]
        self._cap = max(1, math.ceil(50.0 * math.sqrt(len(self.unknown))))
        self._solves = 0
        self._factor = None

    def solve(
        self,
        fixed_values: np.ndarray,
        rhs: Optional[np.ndarray] = None,
        tol: float = DEFAULT_TOL,
    ) -> tuple[np.ndarray, SolveInfo]:
        """Solve and scatter into a full-length array (NaN off-domain)."""
        g = np.asarray(fixed_values, dtype=np.float64)
        if g.shape != (len(self.fixed),):
            raise ValueError("fixed_values must align with the fixed vertex set")
        values = np.full(self.graph.num_vertices, np.nan)
        values[self.fixed] = g
        if len(self.unknown) == 0:
            return values, SolveInfo(residual=0.0, iterations=0)

        b = self._coupling @ g
        if rhs is not None:
            b = b + np.asarray(rhs, dtype=np.float64)
        bnorm = float(np.linalg.norm(b))
        if bnorm == 0.0:
            values[self.unknown] = 0.0
            return values, SolveInfo(residual=0.0, iterations=0)

        self._solves += 1
        direct = self._solves > 1
        if direct:
            u, iters = self._factored().solve(b), 0
        else:
            u, iters = self._solve_cg(b, bnorm, tol)
        residual = float(np.linalg.norm(b - self._lap @ u) / bnorm)
        if direct and not residual <= tol:
            raise ConvergenceError(
                f"SuperLU solve reached relative residual {residual:.3e} on "
                f"{len(self.unknown)} unknowns (tol {tol:.1e})",
                residuals=[residual],
            )
        values[self.unknown] = u
        return values, SolveInfo(residual=residual, iterations=iters)

    def _solve_cg(self, b, bnorm, tol) -> tuple[np.ndarray, int]:
        iters = 0

        def _count(_):
            nonlocal iters
            iters += 1

        u, info = cg(self._lap, b, rtol=tol, atol=0.0, maxiter=self._cap, callback=_count)
        if info != 0:
            residual = float(np.linalg.norm(b - self._lap @ u) / bnorm)
            history = self._residual_history(b, bnorm, tol)
            raise ConvergenceError(
                f"CG stalled at relative residual {residual:.3e} after {iters} iterations "
                f"(cap {self._cap}, tol {tol:.1e}, {len(self.unknown)} unknowns)",
                residuals=history,
            )
        return u, iters

    def _factored(self):
        """The SuperLU factor of the operator, computed on first use."""
        if self._factor is None:
            try:
                self._factor = splu(self._lap.tocsc(), permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise ConvergenceError(
                    f"SuperLU factor failed on {len(self.unknown)} unknowns: {exc}"
                ) from exc
        return self._factor

    def _residual_history(self, b, bnorm, tol) -> list[float]:
        """Re-run with residual tracking for the failure diagnostic."""
        history: list[float] = []
        lap = self._lap

        def _track(xk):
            history.append(float(np.linalg.norm(b - lap @ xk) / bnorm))

        cg(lap, b, rtol=tol, atol=0.0, maxiter=self._cap, callback=_track)
        return history
