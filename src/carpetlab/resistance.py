"""Electrical quantities on carpet graphs: effective resistance, resistance
to infinity and face resistance.

Every edge has unit conductance.  Effective resistance between two vertex
sets is 1/energy of the potential that is 1 on the source set, 0 on the
ground set, and harmonic elsewhere (the Dirichlet principle).  "Infinity" is
exhausted by grounding successively larger box boundaries and extrapolating
the geometric tail of the resistance sequence; in the recurrent regime the
sequence keeps growing and is flagged divergent instead.  Every potential
is solved on the orbits of the graph symmetries that keep its source and
its ground (see :mod:`carpetlab.linalg`), and its energy is read off the
orbits' least vertices; a plain vertex graph has only singleton orbits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geometry import DEFAULT_TOL, CarpetGraph, box_vertices
from .linalg import DirichletSystem

__all__ = [
    "ResistanceReport",
    "effective_resistance",
    "resistance_to_infinity",
    "face_resistance",
]

# Successive resistance increments must shrink at least this fast before the
# geometric extrapolation is trusted.
MIN_DECAY = 1.05


@dataclass
class ResistanceReport:
    target: list  # the sorted target vertex ids
    levels: list
    resistances: list
    extrapolated: Optional[float]
    divergent: bool
    gamma: Optional[float] = None
    note: str = ""
    solves: list = field(default_factory=list)  # counters of each level's solve


def _reached(graph, least, source_ids, ground_ids) -> tuple[np.ndarray, bool]:
    """Mask of the vertices the source reaches without crossing the ground
    (source included), found breadth first, and whether it met the ground.

    Source and ground are unions of the orbits ``least`` (each vertex's least
    orbit vertex), so the reached set is one too: the search runs over the
    orbits' least vertices, taking each neighbor to its orbit's."""
    ground = np.zeros(graph.num_vertices, dtype=bool)
    ground[ground_ids] = True
    reached = np.zeros(graph.num_vertices, dtype=bool)
    reached[least[source_ids]] = True
    # Each ring keeps one copy of every new orbit, with no sort: every copy
    # writes its own stamp, and whichever copy's stamp survives is kept, so
    # the ring does not depend on the order NumPy assigns repeated indices.
    stamp = np.empty(graph.num_vertices, dtype=np.int32)
    frontier = np.flatnonzero(reached)
    grounded = False
    while frontier.size:
        # Cast once to intp: a ring indexes with its neighbors five times,
        # and numpy recasts an int32 index array at each use.
        nbrs = least[graph.rows(frontier)[1]].astype(np.intp)
        grounded = grounded or bool(ground[nbrs].any())
        nbrs = nbrs[~reached[nbrs] & ~ground[nbrs]]
        order = np.arange(nbrs.size, dtype=np.int32)
        stamp[nbrs] = order
        frontier = nbrs[stamp[nbrs] == order]
        reached[frontier] = True
    return reached[least], grounded


def _no_solve(order: int) -> dict:
    """The solve counters of a potential that needed no solve."""
    return {"unknowns": 0, "orbit_unknowns": 0, "symmetry_order": order,
            "iterations": 0, "path": "none"}


def effective_resistance(
    graph, A, B, tolerance: float = DEFAULT_TOL, solves: Optional[list] = None
) -> float:
    """Effective resistance between vertex sets A and B at unit conductance.

    Solves the unit potential, 1 on A and 0 on B.  Only the vertices A
    reaches without crossing B are unknowns; every other vertex sits at
    potential 0.  When B is out of reach no current flows, and the
    resistance is inf.  The solve runs on the orbits of
    ``graph.symmetries(A, B)``, the symmetries that map A and B onto
    themselves, and the potential is constant on them, so the energy
    E = 1/2 sum_O |O| sum_{y ~ rep(O)} (u_rep - u_y)^2 reads only the rows
    of the orbits' least vertices; the resistance is 1/E.  Sets that share
    a vertex are a short: 0, with no solve and no group, once every id is
    checked.  A ``solves`` list receives the counters of the solve: vertex
    unknowns, orbit unknowns, group order, iterations and solver path.
    """
    A = np.unique(np.asarray(A, dtype=np.int64))
    B = np.unique(np.asarray(B, dtype=np.int64))
    if A.size == 0 or B.size == 0:
        raise ValueError("resistance needs nonempty vertex sets")
    if np.intersect1d(A, B).size:
        graph.check_ids(np.concatenate([A, B]))
        if solves is not None:
            solves.append(_no_solve(1))
        return 0.0
    group = graph.symmetries(A, B)  # checks every id before _reached indexes with it
    least = graph.orbits(group)
    reached, grounded = _reached(graph, least, A, B)
    counters = _no_solve(len(group))
    energy = 0.0
    if grounded:
        reached[A] = False
        unknown = np.flatnonzero(reached)
        reached[A] = True  # the border data: 1 on A, 0 on the ground and beyond reach
        system = DirichletSystem(graph, unknown, orbits=least)
        del unknown
        pot, info = system.solve(reached, tol=tolerance)
        counters.update(unknowns=len(system.unknown), orbit_unknowns=system.orbit_unknowns,
                        iterations=info.iterations, path=info.path)
        del system, reached  # the solver's arrays go before the energy pass's: a lower peak
        reps = np.flatnonzero(least == np.arange(graph.num_vertices, dtype=np.int32))
        size = np.bincount(least)[reps].astype(np.int32)  # |O| of each orbit
        indptr, nbrs = graph.rows(reps)
        counts = np.diff(indptr)
        # |O| (u_rep - u_y)^2 in place: the same products as |O| * (diff * diff)
        terms = np.repeat(pot[reps], counts)
        terms -= pot[nbrs]
        terms *= terms
        terms *= np.repeat(size, counts)
        # numpy's pairwise sum, not BLAS: no bit depends on the thread count
        energy = 0.5 * float(np.add.reduce(terms))
    if solves is not None:
        solves.append(counters)
    return 1.0 / energy if energy > 0.0 else float("inf")


def resistance_to_infinity(
    graph: CarpetGraph,
    A,
    levels: Sequence[int],
    tolerance: float = DEFAULT_TOL,
) -> ResistanceReport:
    """Resistance from A to the boundaries of growing boxes, extrapolated.

    R_N grounds the face cells of the level-N box; whenever the target meets
    the ground, :func:`effective_resistance` reads a short: 0.  With at
    least three levels the geometric tail R_inf = R_last + delta * gamma /
    (1 - gamma) is extrapolated from the last two increments, unless the
    increments decay slower than the trust factor — then the sequence is
    flagged divergent (the recurrent regime) and no finite value is
    fabricated.
    """
    A = np.unique(np.asarray(A, dtype=np.int64))
    if A.size == 0:
        raise ValueError("target set is empty")
    levels = sorted(int(N) for N in levels)
    if not levels:
        raise ValueError("need at least one ground level")
    repeated = [N for N, M in zip(levels, levels[1:]) if N == M]
    if repeated:
        # a repeat would make an increment 0 and fake a finite limit
        raise ValueError(f"ground level {repeated[0]} is repeated")
    if levels[-1] > graph.level:
        raise ValueError(f"ground level {levels[-1]} exceeds the built graph")

    solves = []
    resistances = [effective_resistance(graph, A, box_vertices(graph, N).boundary, tolerance, solves)
                   for N in levels]
    report = functools.partial(ResistanceReport, target=A.tolist(), levels=levels,
                               resistances=resistances, solves=solves)

    if len(levels) < 3:
        return report(extrapolated=None, divergent=False,
                      note="refused extrapolation: fewer than 3 levels")

    d_prev = resistances[-2] - resistances[-3]
    d_last = resistances[-1] - resistances[-2]
    if d_last <= 0.0:
        # Sequence already flat (to solver noise); the last value is the limit.
        return report(extrapolated=resistances[-1], divergent=False, gamma=0.0,
                      note="increments vanished; limit taken as the last value")
    gamma = d_last / d_prev if d_prev > 0 else 1.0
    if gamma >= 1.0 / MIN_DECAY:
        return report(extrapolated=None, divergent=True, gamma=gamma,
                      note=f"increments decay slower than {MIN_DECAY}x; recurrent regime")
    extrapolated = resistances[-1] + d_last * gamma / (1.0 - gamma)
    return report(extrapolated=extrapolated, divergent=False, gamma=gamma)


def face_resistance(
    graph: CarpetGraph, tolerance: float = DEFAULT_TOL, solves: Optional[list] = None
) -> float:
    """Resistance across the whole carpet ``graph`` between opposite coordinate faces.

    The source is every cell with first coordinate 0, the ground every cell
    with first coordinate k^n - 1, n = ``graph.level``.  At n = 0 the two
    faces coincide in the single cell, which :func:`effective_resistance`
    reads as a short: 0.  The potential is solved on the orbits of the
    window symmetries that keep both faces (those that fix axis 0 and its
    direction).  A ``solves`` list receives the counters of the solve.
    """
    A = np.nonzero(graph.coords[:, 0] == 0)[0]
    B = np.nonzero(graph.coords[:, 0] == graph.side - 1)[0]
    return effective_resistance(graph, A, B, tolerance=tolerance, solves=solves)
