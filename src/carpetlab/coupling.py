"""Mirrored coupling of two lazy walks via signed-permutation cube isometries.

Tile the window by S_m cubes of side k^m.  Two vertices are m-associated when
some signed coordinate permutation carries the position of one within its
cube onto the position of the other within its cube; by the central-block
symmetry every such isometry maps surviving cells to surviving cells, so the
carpet pattern inside any nonempty cube is shared.  The coupled walk moves
the first walker as a lazy simple random walk and mirrors the increment
through the current witness isometry whenever that preserves the second
walker's law exactly; otherwise the second walker draws an independent
increment.  Either way each walker, viewed alone, is a lazy simple random
walk.

Association is refreshed after every step (upgrades can only be found
earlier that way).  Association depends only on each vertex's cell in the
level-m carpet (its position in its S_m cube), so the one per-vertex table
of a level is that cell, and every other table is over cells: the cube
walls a step from the cell crosses, and the lowest isometry onto each of
its orbit-mates.  The refresh searches no isometry: a pair's witness is one
read from the table, checked by one image.  ``upgrade_statistics`` also
counts renewals (the renewal step of the Barlow-Bass coupling argument):
one fires whenever the first walker has moved k^m from the last renewal
point, m being the association level of the pairs it draws.

The per-vertex tables span only the vertices with x_0 <= k^m_max, m_max
being the highest association level resolved.  Every walk stops once a
walker leaves a box of side at most k^m_max, so no walker still under way
goes past that layer, and the tables grow with the walk's reach instead of
the graph: 60,588 rows instead of 456,976 on the 3-D level-4 carpet at
m_max = 2.  The tables live for one call: each public function builds its
own and drops them when it returns, and nothing is stored on the graph.

Trials run in lockstep on numpy tables indexed by vertex id, in a pool of
``min(_POOL, trials)`` slots, a stopped trial's slot going to the next one.  Stream
contract: trial ``i`` draws only from its own ``derive_rng(seed, label, i)``,
and every step takes exactly four uniforms from it, in order hold-x, dir-x,
hold-y, dir-y, whether or not the second pair is used.  A walker holds when its hold uniform is below ``HOLD``;
otherwise it moves along ``dirs[floor(u * len(dirs))]``, its present
directions in table order (``+axis`` before ``-axis``, axes ascending).
``upgrade_statistics`` draws its catalog index ``rng.integers(len(catalog))``
first and then steps.  The pool holds each slot's PCG64 state and draws
each step's four uniforms for every live slot at once through the batched
streams of ``seeding``, which equal ``derive_rng`` bit for bit; so a
trial's outcome does not depend on when it is admitted or on the trials
beside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import HOLD, CarpetGraph, build_graph, signed_permutations
from .seeding import STREAM_LIMIT, draw_uniforms, stream_integers, stream_states

__all__ = [
    "origin_pair",
    "run_coupled_walk",
    "upgrade_statistics",
]

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)

# Most trials under way at once: bounds the pool's arrays and each step's
# draws.  20,000 trials of the 2-D level-4 suite walk in 0.27 s at 8192,
# against 0.43 s at 1024 and 0.29 s in one pool of 20,000 (2-core host,
# one BLAS thread).
_POOL = 8192

# Default step cap: a box-stopped trial still under way after it is truncated.
MAX_STEPS = 100_000

# Trial status codes; IDLE marks an empty pool slot.
ACTIVE, COUPLED, EXITED, UPGRADED, EXHAUSTED, TRUNCATED, IDLE = range(7)
# The per-walk array fields of _Walks, and the ones a stopped walk reports.
_STATE = ("trial", "x", "y", "m", "iso", "digest", "steps", "ref", "renewals", "status")
_OUTPUT = ("y", "digest", "steps", "status")


def _fnv_fold(h: np.ndarray, values: np.ndarray) -> np.ndarray:
    # FNV-1a style rolling fold over vertex ids (whole ints, not bytes),
    # wrapping mod 2^64.
    return (h ^ values.astype(np.uint64)) * _FNV_PRIME


@dataclass
class _Walks:
    """Lockstep state of a batch of coupled walks, one entry per walk.

    The stopping rule: with ``box_side`` set, a trial stops when the walkers
    meet or either leaves ``[0, box_side)^d``; with ``target`` set, when the
    association level reaches it; with ``max_renewals`` set, at that many
    renewals.  Renewals are counted only then: one fires when the first
    walker has moved ``k^(target - 1)`` from the last renewal point.
    """

    trial: np.ndarray
    x: np.ndarray
    y: np.ndarray
    m: np.ndarray
    iso: np.ndarray
    digest: np.ndarray
    steps: np.ndarray
    ref: np.ndarray
    renewals: np.ndarray
    status: np.ndarray
    box_side: Optional[int] = None
    target: Optional[int] = None
    max_renewals: Optional[int] = None

    @classmethod
    def empty(cls, size: int, **rule) -> "_Walks":
        """``size`` idle entries."""
        arrays = {name: np.zeros(size, dtype=np.int64) for name in _STATE}
        arrays["digest"] = np.zeros(size, dtype=np.uint64)
        arrays["status"] = np.full(size, IDLE, dtype=np.int8)
        return cls(**arrays, **rule)

    def put(self, at, src: "_Walks") -> None:
        """Copy every entry of ``src`` into entries ``at``."""
        for name in _STATE:
            getattr(self, name)[at] = getattr(src, name)


def _cube_tables(cube: CarpetGraph, n_isos: int):
    """Association tables over the cells of the level-m carpet ``cube``.

    Every nonempty S_m cube holds that carpet, whose window symmetries are
    the cube's isometries, so its orbits are the association classes.
    ``image[i, c]`` is the cell that isometry i carries cell c onto, and
    ``least`` the least cell of c's orbit (cell ids ascend with the key).
    Each cell gets a slot, its rank in its orbit, which is below the
    2^d d! isometries; ``witness[c, slot[c']]`` is the lowest isometry
    carrying cell c onto c' (0 in the slots past c's orbit).  ``wall[c, e]``
    is true when a step from c along direction e (2*axis for +1, 2*axis + 1
    for -1) leaves the S_m cube.

    Returns ``(cells, image, least, slot, witness, wall)``: ``cells`` maps
    the coordinate key of each of the k^(md) cube positions to its cell (-1
    where removed).
    """
    d, side, count = cube.params.d, cube.side, cube.num_vertices
    cells = np.full(side ** d, -1, dtype=np.int64)
    cells[cube.coords @ side ** np.arange(d - 1, -1, -1)] = np.arange(count)
    image = np.empty((n_isos, count), dtype=np.int64)
    for i, keys in enumerate(cube.image_keys(range(n_isos))):
        image[i] = cells[keys]
    least = image.min(axis=0)
    # Orbit by orbit, members ascending: an orbit's first member is its least.
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(least, kind="stable")] = np.arange(count)
    slot = rank - rank[least]
    # Lowest id last, so it overwrites every higher witness of the same pair.
    witness = np.zeros((count, n_isos), dtype=np.min_scalar_type(n_isos - 1))
    for i in range(n_isos - 1, -1, -1):
        witness[np.arange(count), slot[image[i]]] = i
    wall = np.stack([cube.coords == side - 1, cube.coords == 0], axis=2).reshape(count, 2 * d)
    return cells, image, least, slot, witness, wall


class _Coupler:
    """Numpy tables driving every coupling computation on one graph.

    The tables cover the vertices with x_0 <= ``reach`` = k^m_max, an id
    prefix, and are indexed by global vertex id; a neighbor past the prefix
    reads as absent.  That is enough for every walk stopped on leaving a box
    of side at most ``reach``: a walker inside the box steps only onto the
    prefix, and only a walker that has already left the box can stand on the
    prefix's last x_0 layer, whose outward neighbors are cut.  ``start``
    refuses a larger box, and a walk with no box unless the prefix is the
    whole graph (as at m_max = graph level).
    """

    def __init__(self, graph: CarpetGraph, m_max: int):
        if not isinstance(graph, CarpetGraph):
            raise TypeError("coupling requires a carpet graph")
        if not 0 <= m_max <= graph.level:
            raise ValueError(f"association level cap {m_max} exceeds the built region")
        self.m_max = m_max
        d = graph.params.d
        k = graph.params.k
        self.coords, self.top = graph.coords, graph.top
        self.reach = k ** m_max
        # Ids ascend lexicographically, so x_0 <= reach is an id prefix.
        rows = int(np.searchsorted(graph.coords[:, 0], self.reach, side="right"))
        coords = graph.coords[:rows]
        n_dirs = 2 * d

        # Signed permutations, identity first, so the lowest valid id is the
        # canonical witness.  Isometry i maps a vector v to sign[i] * v[perm[i]].
        perm, sign = signed_permutations(d)
        n_isos = len(perm)

        # Direction tables: dir index 2*axis for +1, 2*axis + 1 for -1, taken
        # from the graph's unit-step columns 2d - 1 - axis and axis.
        axes = np.arange(n_dirs) // 2
        self.nbr = graph.unit_steps(rows)[:, np.where(np.arange(n_dirs) % 2, axes, n_dirs - 1 - axes)]
        self.nbr[self.nbr >= rows] = -1
        self.mask = ((self.nbr >= 0) << np.arange(n_dirs)).sum(axis=1)
        bits = (np.arange(1 << n_dirs)[:, None] >> np.arange(n_dirs)) & 1
        self.dir_count = bits.sum(axis=1)
        # row M: the directions present in mask M, ascending, then padding
        self.dir_table = np.argsort(1 - bits, axis=1, kind="stable")

        # Isometry action on directions: e = (axis j, sign s) goes to axis
        # i with perm[i] == j and sign sign[i] * s.
        inv = np.argsort(perm, axis=1)
        axis = inv[:, np.arange(n_dirs) // 2]
        out_sign = np.take_along_axis(sign, axis, axis=1) * (
            1 - 2 * (np.arange(n_dirs) % 2)
        )
        self.dir_map = 2 * axis + (out_sign < 0)
        self.mask_map = np.zeros((n_isos, 1 << n_dirs), dtype=np.int64)
        for b in range(n_dirs):
            self.mask_map |= bits[None, :, b] << self.dir_map[:, b, None]

        # Per vertex and level: its cell in the level-m carpet.  The cells of
        # all levels are numbered once, and the per-cell tables of every
        # level (see _cube_tables) are stacked along the cell axis.
        levels = m_max + 1
        self.cell = np.empty((levels, rows), dtype=np.int64)
        parts = []
        first = 0  # the level's first cell id
        for m in range(levels):
            side_m = k ** m
            cells, image, least, slot, witness, wall = _cube_tables(build_graph(m, graph.params), n_isos)
            self.cell[m] = first + cells[(coords % side_m) @ side_m ** np.arange(d - 1, -1, -1)]
            parts.append((first + image, first + least, slot, witness, wall))
            first += len(least)
        image, canon, slot, witness, wall = zip(*parts)
        self.canon, self.slot, self.witness, self.wall = map(np.concatenate, (canon, slot, witness, wall))
        # ``image`` takes the smallest type that holds a cell id; ``cell``
        # stays int64, since refresh gathers with it and a uint16 index made
        # those gathers about a quarter slower.
        self.image = np.hstack(image).astype(np.min_scalar_type(first - 1))
        self.scale_sq = k ** (2 * np.arange(levels))

    def classes(self, m: int, side: int) -> tuple[np.ndarray, np.ndarray]:
        """The m-association classes inside ``[0, side)^d``: ``(members, sizes)``.

        ``members`` lists the box's vertices class by class, classes in the
        order of their least member and members ascending; ``sizes`` gives
        each class's member count.  The catalog of ordered pairs (x != y) that
        :func:`_catalog_pairs` reads lists each class's pairs x ascending,
        then y ascending.
        """
        box = np.flatnonzero(self.top < side)
        _, first, cls = np.unique(self.canon[self.cell[m, box]], return_index=True, return_inverse=True)
        cls = np.argsort(np.argsort(first))[cls]  # classes renumbered by their least member
        return box[np.argsort(cls, kind="stable")], np.bincount(cls)

    def refresh(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Highest association level and canonical witness id of each pair.

        The witness is read from the table and checked: it must carry x's
        cell onto y's.
        """
        eq = self.canon[self.cell[:, x]] == self.canon[self.cell[:, y]]
        m = self.m_max - np.argmax(eq[::-1], axis=0)
        cx, cy = self.cell[m, x], self.cell[m, y]
        iso = self.witness[cx, self.slot[cy]].astype(np.int64)
        if not (self.image[iso, cx] == cy).all():
            raise RuntimeError("witness table misses an associated pair; tables are corrupt")
        return m, iso

    def start(self, x0: np.ndarray, y0: np.ndarray, trial: Optional[np.ndarray] = None,
              **rule) -> _Walks:
        """Walks of ``trial[i]`` (default i) from the pairs ``(x0[i], y0[i])``.

        ``rule`` sets the stopping-rule fields of ``_Walks``; a walk that
        already meets the stopping rule starts stopped.  A rule whose box
        the tables do not reach raises ``ValueError``.
        """
        box_side = rule.get("box_side")
        if box_side is None and len(self.nbr) < len(self.coords):
            raise ValueError(f"a walk without a stopping box needs tables over the whole graph, "
                             f"not only x_0 <= {self.reach}")
        if box_side is not None and box_side > self.reach:
            raise ValueError(f"stopping box side {box_side} exceeds the tables' reach {self.reach}")
        x = np.asarray(x0, dtype=np.int64).copy()
        y = np.asarray(y0, dtype=np.int64).copy()
        m, iso = self.refresh(x, y)
        w = _Walks(
            trial=np.arange(len(x)) if trial is None else trial, x=x, y=y, m=m, iso=iso,
            digest=_fnv_fold(_fnv_fold(np.full(len(x), _FNV_OFFSET), x), y),
            steps=np.zeros(len(x), dtype=np.int64), ref=x.copy(),
            renewals=np.zeros(len(x), dtype=np.int64),
            status=np.full(len(x), ACTIVE, dtype=np.int8), **rule,
        )
        if w.target is not None:
            w.status[m >= w.target] = UPGRADED
        if w.box_side is not None:
            w.status[(w.status == ACTIVE) & (x == y)] = COUPLED
        return w

    def advance(self, w: _Walks, u: np.ndarray) -> None:
        """Move every active entry of ``w`` one coupled step and apply its stopping rule.

        ``u`` holds four uniforms for each active entry, in entry order.
        """
        idx = np.nonzero(w.status == ACTIVE)[0]
        x, y, m, iso = w.x[idx], w.y[idx], w.m[idx], w.iso[idx]
        mx, my = self.mask[x], self.mask[y]
        # Mirror when the witness carries x's open directions onto y's; a
        # met pair has the identity witness, so it always mirrors.
        mirrored = self.mask_map[iso, mx] == my
        hold_x = u[:, 0] < HOLD
        ex = self.dir_table[mx, (u[:, 1] * self.dir_count[mx]).astype(np.int64)]
        nx = np.where(hold_x, x, self.nbr[x, ex])
        # Otherwise the second walker draws its own lazy increment, hold coin
        # included.  Independent holds are what let walkers at odd
        # displacement ever meet: under a shared coin the parity of the
        # offset would never change.
        hold_y = np.where(mirrored, hold_x, u[:, 2] < HOLD)
        ey = np.where(
            mirrored,
            self.dir_map[iso, ex],
            self.dir_table[my, (u[:, 3] * self.dir_count[my]).astype(np.int64)],
        )
        ny = np.where(hold_y, y, self.nbr[y, ey])
        moved = ~(hold_x & hold_y)

        # In-step invariance: a mirrored move that crosses no S_m cube wall
        # must leave the witness valid verbatim.  Mirrored walkers hold
        # together, so a mirrored move steps both along ex and ey.
        inside = (
            mirrored & moved
            & ~self.wall[self.cell[m, x], ex] & ~self.wall[self.cell[m, y], ey]
        )
        if inside.any():
            c = np.nonzero(inside)[0]
            if not (self.image[iso[c], self.cell[m[c], nx[c]]] == self.cell[m[c], ny[c]]).all():
                raise RuntimeError("mirrored in-cube step broke its witness")
        mv = np.nonzero(moved)[0]
        if mv.size:
            m[mv], iso[mv] = self.refresh(nx[mv], ny[mv])

        w.x[idx], w.y[idx], w.m[idx], w.iso[idx] = nx, ny, m, iso
        w.digest[idx] = _fnv_fold(_fnv_fold(w.digest[idx], nx), ny)
        w.steps[idx] += 1

        status = np.full(len(idx), ACTIVE, dtype=np.int8)
        if w.target is not None:
            status[m >= w.target] = UPGRADED
        if w.box_side is not None:
            out = (self.top[nx] >= w.box_side) | (self.top[ny] >= w.box_side)
            status[(status == ACTIVE) & out] = EXITED
            status[(status == ACTIVE) & (nx == ny)] = COUPLED
        if w.max_renewals is not None:
            # The first walker's displacement changes only when it moves, and
            # it was below the scale after the previous step, so testing
            # every active entry finds exactly the renewals of the movers.
            # int64 before squaring: a displacement can reach the side k^n.
            delta = (self.coords[nx] - self.coords[w.ref[idx]]).astype(np.int64)
            disp = (delta * delta).sum(axis=1)
            renew = (status == ACTIVE) & (disp >= self.scale_sq[w.target - 1])
            if renew.any():
                r = idx[renew]
                w.ref[r] = nx[renew]
                w.renewals[r] += 1
                status[renew & (w.renewals[idx] >= w.max_renewals)] = EXHAUSTED
        w.status[idx] = status

    def run(self, seed: int, label: str, trials: int, max_steps: int, starts, **rule):
        """Walk trials ``0..trials-1`` to their stop.

        Returns the ``_OUTPUT`` fields of every trial, as arrays indexed by
        trial id.

        Trial i draws from the stream of ``derive_rng(seed, label, i)``;
        ``starts(states)`` returns the start pairs ``(x0, y0)`` of newly
        admitted trials, drawing from their stream states in place, and
        ``rule`` is the stopping rule of ``start``.  A trial still active
        after ``max_steps`` steps is truncated.  The pool holds
        ``min(_POOL, trials)`` slots; whenever half of it has stopped, the free
        slots take the next trials, so a long trial holds one slot, not a batch.
        """
        size = min(_POOL, trials)
        pool = _Walks.empty(size, **rule)
        done = {name: np.zeros(trials, dtype=getattr(pool, name).dtype) for name in _OUTPUT}
        streams = np.zeros((size, 4), dtype=np.uint64)
        admitted = 0
        while True:
            free = np.nonzero(pool.status == IDLE)[0]
            if admitted < trials and len(free) >= min(size // 2, trials - admitted):
                free = free[: trials - admitted]
                ids = np.arange(admitted, admitted + len(free))
                admitted += len(free)
                states = stream_states(seed, label, ids)
                starts_at = starts(states)
                streams[free] = states
                pool.put(free, self.start(*starts_at, trial=ids, **rule))
            pool.status[(pool.status == ACTIVE) & (pool.steps >= max_steps)] = TRUNCATED
            stopped = np.nonzero((pool.status != ACTIVE) & (pool.status != IDLE))[0]
            if len(stopped):
                for name in _OUTPUT:
                    done[name][pool.trial[stopped]] = getattr(pool, name)[stopped]
                pool.status[stopped] = IDLE
            live = np.nonzero(pool.status == ACTIVE)[0]
            if not len(live):
                if admitted == trials:
                    break
                continue
            self.advance(pool, draw_uniforms(streams, live))
        return done


def _catalog_pairs(members: np.ndarray, sizes: np.ndarray,
                   index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entries ``index`` of the pair catalog of the classes ``(members, sizes)``
    (see :meth:`_Coupler.classes`), decoded without listing the catalog.

    A class of s members holds s(s - 1) pairs; its pair i has x its member
    i // (s - 1) and y its member j = i % (s - 1), or j + 1 from x's on,
    which skips y = x.
    """
    count = sizes * (sizes - 1)
    ends = np.cumsum(count)
    cls = np.searchsorted(ends, index, side="right")  # a class with no pair ends where the one before does
    first = np.cumsum(sizes)[cls] - sizes[cls]  # the class's offset in members
    xi, j = np.divmod(index - (ends[cls] - count[cls]), sizes[cls] - 1)
    return members[first + xi], members[first + j + (j >= xi)]


def origin_pair(graph: CarpetGraph) -> tuple[int, int]:
    """The origin cell and its neighbor one step along the last axis: the
    default start pair of the coupled walk, adjacent and 0-associated.  At
    level 0 the neighbor is absent and reads -1; every walk refuses that level."""
    cells = np.zeros((2, graph.params.d), dtype=np.int64)
    cells[1, -1] = 1
    return tuple(graph.vertex_ids(cells).tolist())


def _check_box_run(graph: CarpetGraph, n: int, trials: int) -> None:
    """Preconditions of ``trials`` walks stopped on leaving the level-n box."""
    if n < 1:
        raise ValueError(f"box level n must be at least 1, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if trials > STREAM_LIMIT:  # trial i walks on stream i
        raise ValueError(f"trials must be at most 2^32, got {trials}")
    if graph.level < n + 1:
        raise ValueError(f"need graph level >= {n + 1} for box level {n}")


def run_coupled_walk(
    graph: CarpetGraph,
    x0: int,
    y0: int,
    n: int,
    trials: int,
    max_steps: int = MAX_STEPS,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Run the mirrored coupling until meeting, box exit, or the step cap.

    Both walkers start in the level-(n-1) box; a trial ends when they occupy
    the same vertex (coupled), when either leaves the level-n box (exited),
    or at ``max_steps`` (truncated — excluded from probability estimates).
    Returns arrays indexed by trial id over ``0..trials-1``: the ``coupled``
    and ``truncated`` flags, the ``steps`` walked and the ``digest`` of each
    trajectory (an FNV-1a fold of both walkers' vertex ids, start included),
    each fully reproducible from (seed, trial).
    """
    _check_box_run(graph, n, trials)
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    k = graph.params.k
    inner_side = k ** (n - 1)
    for v in graph.check_ids([x0, y0]):
        if graph.top[v] >= inner_side:
            raise ValueError(f"vertex {v} is outside the level-{n - 1} box")
    done = _Coupler(graph, n).run(
        seed, "coupled-walk", trials, max_steps,
        lambda states: (np.full(len(states), x0), np.full(len(states), y0)), box_side=k ** n,
    )
    return {
        "coupled": done["status"] == COUPLED,
        "truncated": done["status"] == TRUNCATED,
        "steps": done["steps"],
        "digest": done["digest"],
    }


def upgrade_statistics(
    graph: CarpetGraph,
    m: int,
    trials: int,
    n: int,
    seed: int = 0,
    j: int = 8,
) -> dict:
    """Fraction of m-associated pairs reaching (m+1)-association in j renewals.

    Pairs are drawn uniformly (with replacement) from the level-(n-1) catalog;
    renewals fire at first-walker displacement k^m (fixed scale).  A trial
    succeeds when the refreshed association level reaches m + 1 before the
    j-th renewal completes and before either walker leaves the level-n box.
    Already-(m+1)-associated draws count as immediate successes; trials
    truncated at ``MAX_STEPS`` steps are excluded from the denominator.
    """
    _check_box_run(graph, n, trials)
    if m < 0:
        raise ValueError(f"association level m must be nonnegative, got {m}")
    if j < 1:
        raise ValueError(f"renewal count j must be at least 1, got {j}")
    eng = _Coupler(graph, max(m + 1, n))  # checks that level m + 1 is built
    members, sizes = eng.classes(m, graph.params.k ** (n - 1))
    total = int((sizes * (sizes - 1)).sum())  # the catalog's length
    if not total:
        raise ValueError(f"no m={m} associated pairs inside the level-{n - 1} box")
    box_side = graph.params.k ** n

    def starts(states):
        return _catalog_pairs(members, sizes, stream_integers(states, total))

    # A met pair is associated at every level, so it stops as an upgrade
    # before it can count as coupled.
    done = eng.run(seed, "upgrade-trial", trials, MAX_STEPS, starts, box_side=box_side,
                   target=m + 1, max_renewals=j)
    counts = np.bincount(done["status"], minlength=IDLE)
    immediate = int(((done["status"] == UPGRADED) & (done["steps"] == 0)).sum())
    successes = int(counts[UPGRADED])
    truncated = int(counts[TRUNCATED])
    valid = trials - truncated
    return {
        "m": m,
        "n": n,
        "j": j,
        "trials": trials,
        "valid": valid,
        "successes": successes,
        "immediate": immediate,
        "exited": int(counts[EXITED]),
        "exhausted": int(counts[EXHAUSTED]),  # j renewal intervals without an upgrade
        "truncated": truncated,
        "probability": successes / valid if valid else float("nan"),
    }
