"""Generalized Sierpinski carpet geometry and graph construction.

The carpet is parametrized by the ambient dimension ``d >= 2``, the
subdivision factor ``k`` and the width ``a`` of the removed central block
(``1 <= a < k``, ``a + k`` even).  At every refinement level each surviving
cube is split into ``k^d`` subcubes and the central ``a^d`` block is removed.
The level-``n`` graph has one vertex per surviving unit cell of the corner box
``[0, k^n)^d``; two vertices are adjacent iff their cells are at unit
Euclidean distance (differ by 1 in exactly one coordinate).

Cell membership is decided by exact integer arithmetic: a cell survives iff at
no base-``k`` digit position the digit vector lies inside the central range in
every coordinate.  This test is level-consistent, so the level-(n+1) graph
restricted to the corner box reproduces the level-n graph verbatim.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Iterator, Optional

import numpy as np

__all__ = [
    "CapacityError",
    "CarpetParams",
    "validate_params",
    "count_cells",
    "hausdorff_dimension",
    "signed_permutations",
    "VertexGraph",
    "CarpetGraph",
    "build_graph",
    "BoxPartition",
    "box_vertices",
    "write_graph",
    "read_graph",
    "DEFAULT_VERTEX_BUDGET",
]

DEFAULT_VERTEX_BUDGET = 50_000_000

# Holding probability of the lazy walk (kills bipartite parity); the heat
# kernel, the exit times and the coupling all walk with it.
HOLD = 0.5

# Relative residual every Dirichlet solve must reach unless told otherwise;
# the suite config, the CLI's --tol and the solver all default to it.
DEFAULT_TOL = 1e-10

# int64 coordinate keys must not overflow: side^d < 2^62.
_KEY_BITS = 62
# Vertex ids, CSR offsets and coordinates are int32, so a carpet's 2d |V|
# bound on its CSR entries must stay below 2^31.
_ID_LIMIT = 2**31


class CapacityError(RuntimeError):
    """Raised when a requested construction exceeds the configured budget."""


@dataclass(frozen=True)
class CarpetParams:
    """Validated carpet parameters (construct via :func:`validate_params`)."""

    d: int
    k: int
    a: int

    @property
    def central_range(self) -> range:
        """Base-k digits belonging to the removed central block."""
        return range((self.k - self.a) // 2, (self.k + self.a) // 2)

    @property
    def cells_per_level(self) -> int:
        """Surviving subcells per refined cube, k^d - a^d."""
        return self.k**self.d - self.a**self.d


def validate_params(d: int, k: int, a: int) -> CarpetParams:
    """Check the carpet constraints and return a parameter object.

    Raises ValueError with a distinct message for each violated constraint:
    dimension (< 2), ordering (not 1 <= a < k) and parity (a + k odd).
    """
    if d < 2:
        raise ValueError(f"ambient dimension must be at least 2, got d={d}")
    if not (1 <= a < k):
        raise ValueError(f"block width must satisfy 1 <= a < k, got a={a}, k={k}")
    if (a + k) % 2 != 0:
        raise ValueError(f"a + k must be even so the removed block is centered, got a={a}, k={k}")
    return CarpetParams(d=d, k=k, a=a)


def count_cells(n: int, params: CarpetParams) -> int:
    """Exact number of surviving level-n cells, (k^d - a^d)^n."""
    if n < 0:
        raise ValueError(f"level must be nonnegative, got {n}")
    return params.cells_per_level**n


def hausdorff_dimension(params: CarpetParams) -> float:
    """log(k^d - a^d) / log k."""
    return math.log(params.cells_per_level) / math.log(params.k)


def signed_permutations(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2^d d! signed permutations of ``d`` axes as ``(perm, sign)`` rows.

    Element i maps a vector v to ``sign[i] * v[perm[i]]``.  Permutations
    ascend lexicographically, then signs with +1 before -1 per axis, so the
    identity comes first.
    """
    perms = np.array(list(permutations(range(d))), dtype=np.int64)
    signs = np.array(list(product((1, -1), repeat=d)), dtype=np.int64)
    return np.repeat(perms, len(signs), axis=0), np.tile(signs, (len(perms), 1))


class VertexGraph:
    """Generic immutable unit-edge graph on integer lattice points.

    Stores vertex coordinates plus a symmetric CSR adjacency structure, its
    only adjacency: :meth:`rows` gathers rows of it and :meth:`edges` lists
    the edges, and neither keeps a copy.  The carpet graph and the synthetic
    test graphs share this container so solvers can be exercised on both.
    Coordinates, ``indptr``, ``indices`` and every id array the graph hands
    out are int32, half the bytes of int64; coordinate keys are int64.
    """

    def __init__(self, coords: np.ndarray, indptr: np.ndarray, indices: np.ndarray):
        self.coords = np.ascontiguousarray(coords, dtype=np.int32)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int32)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        for arr in (self.coords, self.indptr, self.indices):
            arr.setflags(write=False)
        self.num_vertices = int(self.coords.shape[0])
        self.num_edges = int(len(self.indices) // 2)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def rows(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` of the rows ``ids``, in the order given."""
        ids = np.asarray(ids, dtype=np.intp)
        starts = self.indptr[ids]
        counts = self.indptr[ids + 1] - starts
        indptr = np.zeros(len(ids) + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        # int32 gather positions (every CSR offset fits): each row's shift plus a running count
        at = np.repeat(starts - indptr[:-1], counts)
        at += np.arange(indptr[-1], dtype=np.int32)
        return indptr, self.indices[at]

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The endpoints ``(i, j)`` of every edge, i < j, in lexicographic order (not cached)."""
        rows = np.repeat(np.arange(self.num_vertices, dtype=np.int32), self.degrees)
        upper = rows < self.indices
        return rows[upper], self.indices[upper]

    def check_ids(self, ids) -> np.ndarray:
        """``ids`` as int64; an id outside [0, |V|) is a ``ValueError``, not a wrapped index."""
        ids = np.asarray(ids, dtype=np.int64)
        bad = ids[(ids < 0) | (ids >= self.num_vertices)]
        if bad.size:
            raise ValueError(f"vertex id {bad[0]} is outside [0, {self.num_vertices})")
        return ids

    def symmetries(self, *vertex_sets) -> np.ndarray:
        """Rows of :func:`signed_permutations` that act on this graph and map each set onto itself.

        A plain vertex graph knows no symmetry but the identity, row 0.  An
        id outside [0, |V|) is a ``ValueError``.
        """
        for ids in vertex_sets:
            self.check_ids(ids)
        return np.zeros(1, dtype=np.int64)

    def orbits(self, rows) -> np.ndarray:
        """The least vertex of each vertex's orbit under the symmetries ``rows``.

        A plain vertex graph knows no symmetry but the identity, so every
        vertex is its own orbit.
        """
        return np.arange(self.num_vertices, dtype=np.int32)


class CarpetGraph(VertexGraph):
    """Level-n graphical carpet on its surviving cells, in lexicographic order; immutable.

    A *line* is the set of cells that share their first d - 1 coordinates;
    lines are numbered lexicographically.  Survival is decided digit by
    digit, so the last coordinates that survive on a line depend only on
    ``pattern[line]``, the bitmask of the levels j at which all d - 1 of the
    line's coordinates have a central digit.  ``within[pattern, x]`` is x's
    rank among the last coordinates that survive that pattern, -1 where x is
    cut, and ``start[line]`` is the line's first vertex id (every line is
    nonempty, since digit 0 is never central).  The cell x on a line is
    vertex ``start[line] + within[pattern[line], x]``: every coordinate
    lookup is O(1), from tables of side^(d-1) and 2^n side entries, each at
    most |V|.  The constructor writes the coordinates from the same tables.

    ``top`` is each cell's largest coordinate: a cell lies in the corner box
    ``[0, s)^d`` iff its ``top`` is below s, the one box rule that every
    box test reads.

    Its adjacency comes from one lookup of every cell's unit steps
    (:meth:`unit_steps`).  The step columns run -e_0 .. -e_{d-1},
    +e_{d-1} .. +e_0, in ascending id, so each row's neighbors already
    ascend and compress straight into CSR.
    """

    def __init__(self, params: CarpetParams, level: int):
        self.params = params
        self.level = int(level)
        d, k, side = params.d, params.k, params.k**self.level
        self.side = side
        self._strides = np.array([side ** (d - 1 - i) for i in range(d)], dtype=np.int64)
        # central[c]: the levels at which coordinate c has a central digit
        lo, hi = params.central_range.start, params.central_range.stop
        c = np.arange(side, dtype=np.int64)
        central = np.zeros(side, dtype=np.int64)
        for j in range(self.level):
            digit = c // k**j % k
            central |= ((digit >= lo) & (digit < hi)) << j
        self.pattern = functools.reduce(np.bitwise_and.outer, [central] * (d - 1)).ravel()
        alive = (central & np.arange(2**self.level)[:, None]) == 0
        self.within = np.where(alive, alive.cumsum(axis=1, dtype=np.int32) - 1, -1)
        count = alive.sum(axis=1)[self.pattern]
        self.start = np.zeros(len(count), dtype=np.int32)
        np.cumsum(count[:-1], out=self.start[1:])
        for arr in (self.pattern, self.within, self.start):
            arr.setflags(write=False)

        # Each line's cells: its d - 1 leading coordinates, then the
        # survivors of its pattern (alive's row) in ascending order.
        self.coords = np.empty((int(count.sum()), d), dtype=np.int32)
        self.coords[:, :-1] = np.repeat(np.indices((side,) * (d - 1), dtype=np.int32).reshape(d - 1, -1).T,
                                        count, axis=0)
        survivors = np.argsort(~alive, axis=1, kind="stable").ravel()
        pick = np.repeat(self.pattern * side - self.start, count)
        pick += np.arange(len(self.coords))
        self.coords[:, -1] = survivors[pick]
        del pick  # before the step lookup, which sets the peak
        # Column by column: a reduction along the short rows is several times slower.
        self.top = functools.reduce(np.maximum, self.coords.T)
        self.top.setflags(write=False)
        steps = self.unit_steps()
        present = steps >= 0
        indptr = np.zeros(len(steps) + 1, dtype=np.int32)
        np.cumsum(functools.reduce(np.add, present.T, 0), out=indptr[1:])
        super().__init__(self.coords, indptr, steps[present])
        self._orbits: dict[tuple, np.ndarray] = {}

    def _find(self, line: np.ndarray, x: np.ndarray, inside=True) -> np.ndarray:
        """Vertex id of the cell ``x`` on each ``line``, or -1 where it is cut or not ``inside`` the window.

        A line outside the table reads as its nearest line, so ``inside``
        must be false there; ``x`` must lie in [0, side).
        """
        # within[pattern[line], x], read from the flat table
        rank = self.within.take(self.pattern.take(line, mode="clip") * self.side + x)
        return np.where(inside & (rank >= 0), self.start.take(line, mode="clip") + rank, -1)

    def vertex_ids(self, coords: np.ndarray) -> np.ndarray:
        """The one cell lookup: vertex ids of the coordinate rows ``coords``, -1 where absent."""
        coords = np.asarray(coords, dtype=np.int64)
        inside = ((coords >= 0) & (coords < self.side)).all(axis=1)
        coords = np.where(inside[:, None], coords, 0)
        return self._find(coords[:, :-1] @ self._strides[1:], coords[:, -1], inside)

    def unit_steps(self, count: Optional[int] = None) -> np.ndarray:
        """Neighbor ids of the vertices ``0 .. count - 1`` (default all), -1 where absent.

        Column c < d steps by -e_c and column 2d - 1 - c by +e_c.
        """
        d = self.params.d
        coords = self.coords[:count]
        n = len(coords)
        steps = np.empty((n, 2 * d), dtype=np.int32)
        line, x = coords[:, :-1] @ self._strides[1:], coords[:, -1]
        for axis in range(d - 1):
            column, stride = coords[:, axis], self._strides[axis + 1]
            steps[:, axis] = self._find(line - stride, x, column > 0)
            steps[:, 2 * d - 1 - axis] = self._find(line + stride, x, column < self.side - 1)
        # Along e_{d-1} a neighbor is the next id on the line, and every line
        # starts at x = 0, so v and v + 1 are neighbors iff x rises by 1.
        rise = np.diff(self.coords[:n + 1, -1]) == 1
        steps[:, d - 1] = -1
        steps[1:, d - 1][rise[:n - 1]] = np.flatnonzero(rise[:n - 1])
        steps[:, d] = -1
        steps[:len(rise), d][rise] = np.flatnonzero(rise) + 1
        return steps

    def image_keys(self, rows, ids=None) -> Iterator[np.ndarray]:
        """Coordinate keys of the vertices ``ids`` (default all) under each window symmetry ``rows``.

        A key is sum_i c_i side^(d-1-i), so keys ascend with the vertex ids.
        ``rows`` index :func:`signed_permutations`.  The window symmetries are
        the signed permutations of the axes about the window center, where a
        reflected axis maps c to side - 1 - c.  The carpet is invariant under
        every one of them: reflection reverses each base-k digit, and the
        removed digit range is symmetric under reversal because a + k is even.
        Keys are summed axis by axis, with no image coordinate array, and in
        int64 (``_strides`` is int64), since side^d can pass 2^31.
        """
        perms, signs = signed_permutations(self.params.d)
        coords = self.coords if ids is None else self.coords[np.asarray(ids, dtype=np.int64)]
        cols = np.ascontiguousarray(coords.T)
        for i in rows:
            keys = np.zeros(len(coords), dtype=np.int64)
            for stride, axis, sign in zip(self._strides, perms[i], signs[i]):
                keys += stride * (cols[axis] if sign > 0 else self.side - 1 - cols[axis])
            yield keys

    def symmetries(self, *vertex_sets) -> np.ndarray:
        """Rows of :func:`signed_permutations` whose window symmetry keeps each vertex set.

        Identity first.  One vertex gives its stabilizer; the two faces
        x_0 = 0 and x_0 = side - 1 give the 2^(d-1) (d-1)! rows that keep
        axis 0 and its direction; a target in a corner box together with that
        box's outer faces gives the axis permutations that map the target
        onto itself.  An id outside [0, |V|) is a ``ValueError``.
        """
        rows = np.arange(2 ** self.params.d * math.factorial(self.params.d))
        for ids in vertex_sets:
            ids = self.check_ids(ids)
            member = np.zeros(self.num_vertices + 1, dtype=bool)  # slot -1: not a vertex
            member[ids] = True
            # An injective map of a finite set into itself is onto.  Images
            # stay in the window, so a key names a vertex iff it is found.
            keys = self.image_keys(rows, ids)
            rows = rows[np.array([member[self._find(*divmod(k, self.side))].all() for k in keys], dtype=bool)]
        return rows

    def orbits(self, rows) -> np.ndarray:
        """The least vertex of each vertex's orbit under the window symmetries ``rows``.

        The least coordinate key over a vertex's images is its orbit's key;
        vertex ids ascend with the key, so that key's vertex is the orbit's
        least vertex.  The result is read-only and kept per group, since the
        levels of one resistance series and the radii of one exit-time fit
        share their group.
        """
        group = tuple(int(i) for i in rows)
        if group not in self._orbits:
            keys = functools.reduce(np.minimum, self.image_keys(group))
            least = self._find(*divmod(keys, self.side))
            least.setflags(write=False)
            self._orbits[group] = least
        return self._orbits[group]


def build_graph(n: int, params: CarpetParams, budget: int = DEFAULT_VERTEX_BUDGET) -> CarpetGraph:
    """Construct the level-n graphical carpet.

    Writes the surviving cells line by line, in lexicographic vertex order,
    from :class:`CarpetGraph`'s line tables, in O(|V| d) with no sort and no
    search.  Refuses, with a CapacityError naming the limit and before it
    allocates anything, to build above ``budget`` vertices, or a carpet
    whose int32 ids or CSR entries (at most 2d per vertex) would reach 2^31.
    """
    expected = count_cells(n, params)  # rejects a negative level
    if expected > budget:
        raise CapacityError(
            f"level-{n} carpet needs {expected} vertices, above the budget of {budget}"
        )
    side = params.k**n
    if side**params.d >= 2**_KEY_BITS:
        raise CapacityError(
            f"coordinate keys for side {side}^{params.d} exceed the 62-bit key budget"
        )
    if 2 * params.d * expected >= _ID_LIMIT:
        raise CapacityError(
            f"level-{n} carpet needs up to {2 * params.d * expected} CSR entries "
            f"({expected} vertices), beyond int32 ids (below 2^31)"
        )

    return CarpetGraph(params, n)


@dataclass(frozen=True)
class BoxPartition:
    """The level-j corner box: interior (the Dirichlet unknowns), boundary layer, and inner box."""

    level: int
    inner: np.ndarray
    interior: np.ndarray
    boundary: np.ndarray
    box: np.ndarray = field(repr=False)


def box_vertices(graph: CarpetGraph, j: int) -> BoxPartition:
    """Split the corner box [0, k^j)^d into interior and boundary, and find its inner box.

    The box holds the cells whose largest coordinate c (``graph.top``) is
    below k^j.  The boundary layer is the set of box cells on the outer faces
    (c = k^j - 1); these are exactly the cells from which the walk can leave
    the box in one step, since the face-adjacent cell across each outer face
    always survives and the low faces border the global corner where the
    carpet ends.  The interior is the rest of the box (c < k^j - 1), and the
    inner set is the level-(j-1) corner box (c < k^(j-1)) inside it.  All
    four are sorted int32 ids.
    """
    if not (0 <= j <= graph.level):
        raise ValueError(f"box level must be in [0, {graph.level}], got {j}")
    top, side = graph.top, graph.params.k**j
    inner_side = side // graph.params.k  # 0 at j = 0: no inner box
    inner, interior, boundary, box = (
        np.flatnonzero(mask).astype(np.int32)
        for mask in (top < inner_side, top < side - 1, top == side - 1, top < side)
    )
    return BoxPartition(level=j, inner=inner, interior=interior, boundary=boundary, box=box)


_WRITE_ROWS = 1 << 16  # graph file records formatted at once


def write_graph(graph: CarpetGraph, path) -> None:
    """Write the text interchange format.

    Header ``carpet d k a n |V| |E|``; one ``v id c1 .. cd`` line per vertex in
    id order; one ``e id1 id2`` line per edge with id1 < id2, lexicographically
    sorted.
    """
    p = graph.params
    ids = np.arange(graph.num_vertices, dtype=np.int64)[:, None]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"carpet {p.d} {p.k} {p.a} {graph.level} {graph.num_vertices} {graph.num_edges}\n")
        for tag, records in (("v", np.hstack([ids, graph.coords])), ("e", np.column_stack(graph.edges()))):
            line = tag + " %d" * records.shape[1] + "\n"
            for start in range(0, len(records), _WRITE_ROWS):  # one format per chunk of rows
                chunk = records[start:start + _WRITE_ROWS]
                fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


_SPACE = np.isin(np.arange(256), list(b" \t\n\r\x0b\x0c"))  # the bytes that bytes.split() splits at
_CHUNK = 1 << 22  # bytes of graph file parsed at once, extended to a whole line


def _parse_records(text: bytes, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``v`` and ``e`` records in whole lines of a graph file, as rows of d + 1 and 2 ints."""
    buf = np.frombuffer(text + b"\n", dtype=np.uint8).copy()
    space = _SPACE[buf]
    starts = np.flatnonzero(~space & np.r_[True, space[:-1]])  # first byte of every token
    first = np.diff(np.cumsum(buf == 10, dtype=np.int32)[starts], prepend=-1) != 0  # line starts
    lead, size = starts[first], np.diff(np.r_[np.flatnonzero(first), len(starts)]) - 1
    is_v = buf[lead] == ord("v")
    bad = ~space[lead + 1] | ~is_v & (buf[lead] != ord("e"))
    if bad.any():
        raise ValueError(f"unexpected record {text[lead[bad][0]:].split()[0].decode('ascii', 'replace')!r}")
    if (size != np.where(is_v, d + 1, 2)).any():
        raise ValueError(f"records must read 'v id' and {d} coordinates, or 'e id1 id2'")
    buf[lead] = ord(" ")
    if not (_SPACE[buf] | ((buf >= ord("0")) & (buf <= ord("9")))).all():
        raise ValueError("graph file numbers must be nonnegative decimal integers")
    # (a text of blanks alone would parse as [0])
    values = np.fromstring(buf.tobytes(), dtype=np.int64, sep=" ") if len(lead) else np.zeros(0, np.int64)
    owner = np.repeat(is_v, size)
    return values[owner].reshape(-1, d + 1), values[~owner].reshape(-1, 2)


def read_graph(path) -> CarpetGraph:
    """Parse the text interchange format and re-validate its invariants.

    The body is parsed in bulk, a few megabytes of whole lines at a time.
    The header names the graph completely, so after the record-level checks
    the file must list exactly the cells and edges of that carpet.
    """
    with open(path, "rb") as fh:
        header = fh.readline().split()
        if len(header) != 7 or header[0] != b"carpet":
            raise ValueError("malformed graph file header")
        d, k, a, n, nv, ne = (int(x) for x in header[1:])
        params = validate_params(d, k, a)
        chunks = iter(lambda: fh.read(_CHUNK), b"")
        parts = [_parse_records(b"", d), *(_parse_records(c + fh.readline(), d) for c in chunks)]
    verts, edges = (np.concatenate(arrays) for arrays in zip(*parts))
    coords = verts[:, 1:]
    if not np.array_equal(verts[:, 0], np.arange(len(verts))):
        raise ValueError("vertex ids must be consecutive in id order")
    if len(verts) != nv or len(edges) != ne:
        raise ValueError("vertex/edge counts disagree with header")
    if not (edges[:, 0] < edges[:, 1]).all():
        raise ValueError("edges must be written with id1 < id2")
    if (edges >= nv).any():  # the parser admits no negative number
        raise ValueError(f"edge endpoint out of range for {nv} vertices")
    if (np.abs(coords[edges[:, 0]] - coords[edges[:, 1]]).sum(axis=1) != 1).any():
        raise ValueError("edges must join cells at unit distance")
    cells = count_cells(n, params)
    if nv != cells:
        raise ValueError(f"header lists {nv} cells; the level-{n} carpet has {cells}")
    graph = build_graph(n, params, budget=nv)
    if not np.array_equal(coords, graph.coords):
        raise ValueError("cells differ from the carpet named in the header")
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    if ne > 1 and (edges[1:] == edges[:-1]).all(axis=1).any():
        raise ValueError("duplicated edge")
    if not all(map(np.array_equal, edges.T, graph.edges())):
        raise ValueError("edge list differs from the carpet named in the header")
    return graph
