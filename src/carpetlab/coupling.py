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
earlier that way); renewal times at displacement k^m are recorded separately
for the per-renewal upgrade statistic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import CarpetGraph
from .harmonic import HOLD
from .seeding import derive_rng

__all__ = [
    "CouplingOutcome",
    "association_level",
    "run_coupled_walk",
    "pair_catalog",
    "upgrade_statistics",
    "sample_marginal",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv_fold(h: int, value: int) -> int:
    # FNV-1a style rolling fold over vertex ids (whole ints, not bytes).
    return ((h ^ int(value)) * _FNV_PRIME) & _MASK64


@dataclass
class CouplingOutcome:
    coupled: bool
    steps_taken: int
    exited_box: bool
    renewal_times: list
    max_level_reached: int
    trajectory_digest: str
    truncated: bool

    def to_dict(self) -> dict:
        return {
            "coupled": self.coupled,
            "steps_taken": self.steps_taken,
            "exited_box": self.exited_box,
            "renewal_times": list(self.renewal_times),
            "max_level_reached": self.max_level_reached,
            "trajectory_digest": self.trajectory_digest,
            "truncated": self.truncated,
        }


def _signed_perms(d: int) -> list[tuple[tuple, tuple]]:
    """All 2^d * d! signed permutations, identity first.

    Canonical order: permutations ascending lexicographically, then signs
    with +1 before -1 per axis, so (identity, all +1) is element 0 and the
    first valid entry is the canonical witness.
    """
    out = []
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            out.append((perm, signs))
    return out


class _Coupler:
    """Precomputed tables driving every coupling computation on one graph."""

    def __init__(self, graph: CarpetGraph, m_max: int):
        if not isinstance(graph, CarpetGraph):
            raise TypeError("coupling requires a carpet graph")
        if not 0 <= m_max <= graph.level:
            raise ValueError(f"association level cap {m_max} exceeds the built region")
        self.graph = graph
        self.m_max = m_max
        d = graph.params.d
        k = graph.params.k
        self.d = d
        self.k = k
        self.isos = _signed_perms(d)
        n_dirs = 2 * d
        coords = graph.coords
        n = graph.num_vertices

        # Direction tables: dir index 2*axis for +1, 2*axis + 1 for -1.
        nbr = np.full((n, n_dirs), -1, dtype=np.int64)
        for axis in range(d):
            for sign_bit, sgn in ((0, 1), (1, -1)):
                shifted = coords.copy()
                shifted[:, axis] += sgn
                ids = graph.vertex_ids(shifted)
                nbr[:, 2 * axis + sign_bit] = ids
        self.nbr = [tuple(row) for row in nbr]
        mask_arr = ((nbr >= 0) << np.arange(n_dirs)).sum(axis=1)
        self.mask = [int(m) for m in mask_arr]
        self.mask_dirs = [
            tuple(b for b in range(n_dirs) if (m >> b) & 1) for m in range(1 << n_dirs)
        ]

        # sigma action on directions and on direction masks
        self.dir_map = []
        self.mask_map = []
        for perm, signs in self.isos:
            inv = [0] * d
            for i in range(d):
                inv[perm[i]] = i
            dmap = []
            for j in range(d):
                for sign_bit, sgn in ((0, 1), (1, -1)):
                    i_star = inv[j]
                    out_sign = signs[i_star] * sgn
                    dmap.append(2 * i_star + (0 if out_sign > 0 else 1))
            self.dir_map.append(tuple(dmap))
            mmap = []
            for m in range(1 << n_dirs):
                im = 0
                for b in range(n_dirs):
                    if (m >> b) & 1:
                        im |= 1 << dmap[b]
                mmap.append(im)
            self.mask_map.append(tuple(mmap))

        # Doubled local coordinates and orbit-canonical keys per level.
        self.loc2 = []  # per m: list of d-tuples
        self.canon = []  # per m: list of ints
        self.cube_key = []  # per m: list of ints (packed cube index)
        for m in range(m_max + 1):
            side_m = k ** m
            l2 = 2 * (coords % side_m) + 1 - side_m
            base = 2 * side_m + 1
            best = None
            for perm, signs in self.isos:
                img = np.array(signs, dtype=np.int64) * l2[:, list(perm)]
                packed = np.zeros(n, dtype=np.int64)
                for i in range(d):
                    packed = packed * base + (img[:, i] + side_m)
                best = packed if best is None else np.minimum(best, packed)
            self.canon.append([int(v) for v in best])
            self.loc2.append([tuple(int(c) for c in row) for row in l2])
            cubes = coords // side_m
            ckey = np.zeros(n, dtype=np.int64)
            span = int(graph.side // side_m)
            for i in range(d):
                ckey = ckey * span + cubes[:, i]
            self.cube_key.append([int(v) for v in ckey])

        self.coord_rows = [tuple(int(c) for c in row) for row in coords]

    def apply_linear(self, iso_id: int, vec: tuple) -> tuple:
        perm, signs = self.isos[iso_id]
        return tuple(signs[i] * vec[perm[i]] for i in range(self.d))

    def refresh(self, x: int, y: int) -> tuple[int, int]:
        """Highest association level and canonical witness id for (x, y)."""
        for m in range(self.m_max, -1, -1):
            if self.canon[m][x] == self.canon[m][y]:
                lx = self.loc2[m][x]
                ly = self.loc2[m][y]
                for iso_id in range(len(self.isos)):
                    if self.apply_linear(iso_id, lx) == ly:
                        return m, iso_id
        raise RuntimeError("level-0 association failed; tables are corrupt")

    def step(self, x, y, m, iso_id, rng):
        """One coupled move.  Returns (x', y', m', iso_id', moved)."""
        mirrored = x == y or self.mask_map[iso_id][self.mask[x]] == self.mask[y]
        if rng.random() < HOLD:
            nx = x
        else:
            dirs = self.mask_dirs[self.mask[x]]
            e = dirs[rng.integers(len(dirs))] if len(dirs) > 1 else dirs[0]
            nx = self.nbr[x][e]
        if mirrored:
            if nx == x:
                return x, y, m, iso_id, False
            ny = self.nbr[y][e if x == y else self.dir_map[iso_id][e]]
            # In-step invariance: a mirrored move that crosses no S_m cube
            # wall must leave the witness valid verbatim.
            if (
                x != y
                and self.cube_key[m][nx] == self.cube_key[m][x]
                and self.cube_key[m][ny] == self.cube_key[m][y]
            ):
                if self.apply_linear(iso_id, self.loc2[m][nx]) != self.loc2[m][ny]:
                    raise RuntimeError("mirrored in-cube step broke its witness")
        else:
            # The witness cannot carry this move over, so the second walker
            # draws its own lazy increment, hold coin included.  Independent
            # holds are what let walkers at odd displacement ever meet: under
            # a shared coin the parity of the offset would never change.
            if rng.random() < HOLD:
                ny = y
            else:
                dirs_y = self.mask_dirs[self.mask[y]]
                e_y = dirs_y[rng.integers(len(dirs_y))] if len(dirs_y) > 1 else dirs_y[0]
                ny = self.nbr[y][e_y]
            if nx == x and ny == y:
                return x, y, m, iso_id, False
        nm, niso = self.refresh(nx, ny)
        return nx, ny, nm, niso, True


def _coupler(graph: CarpetGraph, m_max: int) -> _Coupler:
    cache = getattr(graph, "_coupler_cache", None)
    if cache is None:
        cache = {}
        graph._coupler_cache = cache
    if m_max not in cache:
        cache[m_max] = _Coupler(graph, m_max)
    return cache[m_max]


def association_level(graph: CarpetGraph, x: int, y: int, m_max: int) -> int:
    """Largest m <= m_max at which the pair is associated.

    Verifies the monotone structure along the way: association at m forces
    association at every lower level (the witness's linear part descends to
    the sub-cubes), so a gap is an internal error, not a data condition.
    """
    if not 0 <= m_max <= graph.level:
        raise ValueError(f"m_max {m_max} exceeds the built region (level {graph.level})")
    eng = _coupler(graph, m_max)
    levels = [eng.canon[m][x] == eng.canon[m][y] for m in range(m_max + 1)]
    best = 0
    for m, ok in enumerate(levels):
        if ok:
            best = m
        elif any(levels[m:]):
            raise RuntimeError(f"association monotonicity violated at level {m}")
    return best


def run_coupled_walk(
    graph: CarpetGraph,
    x0: int,
    y0: int,
    n: int,
    max_steps: int = 100_000,
    seed: int = 0,
    trial: int = 0,
    m_max: Optional[int] = None,
) -> CouplingOutcome:
    """Run the mirrored coupling until meeting, box exit, or the step cap.

    Both walkers start in the level-(n-1) box; the run ends when they occupy
    the same vertex (coupled), when either leaves the level-n box (exited),
    or at ``max_steps`` (truncated — excluded from probability estimates).
    Renewal times record when the first walker's displacement since the last
    renewal reaches k^m, with m the association level current at that
    renewal.  Fully reproducible from (seed, trial).
    """
    if graph.level < n + 1:
        raise ValueError(f"need graph level >= {n + 1} for box level {n}")
    k = graph.params.k
    inner_side = k ** (n - 1)
    box_side = k ** n
    for v in (x0, y0):
        if any(c >= inner_side for c in graph.coords[v]):
            raise ValueError(f"vertex {v} is outside the level-{n - 1} box")
    if m_max is None:
        m_max = n
    eng = _coupler(graph, m_max)
    rng = derive_rng(seed, "coupled-walk", index=trial)

    x, y = int(x0), int(y0)
    m, iso_id = eng.refresh(x, y)
    digest = _fnv_fold(_fnv_fold(_FNV_OFFSET, x), y)
    max_level = m
    renewals: list[int] = []
    ref = eng.coord_rows[x]
    scale_sq = float(k ** m) ** 2

    if x == y:
        return CouplingOutcome(
            coupled=True, steps_taken=0, exited_box=False, renewal_times=[],
            max_level_reached=m, trajectory_digest=f"{digest:016x}", truncated=False,
        )

    coupled = False
    exited = False
    steps = 0
    rows = eng.coord_rows
    for t in range(1, max_steps + 1):
        x, y, m, iso_id, moved = eng.step(x, y, m, iso_id, rng)
        digest = _fnv_fold(_fnv_fold(digest, x), y)
        steps = t
        if m > max_level:
            max_level = m
        cx = rows[x]
        cy = rows[y]
        if any(c >= box_side for c in cx) or any(c >= box_side for c in cy):
            exited = True
            break
        if x == y:
            coupled = True
            break
        if moved:
            disp = sum((a - b) ** 2 for a, b in zip(cx, ref))
            if disp >= scale_sq:
                renewals.append(t)
                ref = cx
                scale_sq = float(k ** m) ** 2
    truncated = not (coupled or exited)
    return CouplingOutcome(
        coupled=coupled, steps_taken=steps, exited_box=exited,
        renewal_times=renewals, max_level_reached=max_level,
        trajectory_digest=f"{digest:016x}", truncated=truncated,
    )


def pair_catalog(graph: CarpetGraph, m: int, n: int) -> list[tuple[int, int]]:
    """All ordered m-associated pairs (x != y) inside the level-(n-1) box.

    Cubes tile the window, so every S_{m+1} cube is decidable whenever
    m + 1 <= build level; nothing near the window edge needs excluding.
    """
    if graph.level < max(n, m + 1):
        raise ValueError("built region too small for this catalog")
    eng = _coupler(graph, min(graph.level, max(n, m + 1)))
    inner_side = graph.params.k ** (n - 1)
    ids = np.nonzero((graph.coords < inner_side).all(axis=1))[0]
    groups: dict[int, list[int]] = {}
    for v in ids:
        groups.setdefault(eng.canon[m][int(v)], []).append(int(v))
    pairs = []
    for members in groups.values():
        for a in members:
            for b in members:
                if a != b:
                    pairs.append((a, b))
    return pairs


def upgrade_statistics(
    graph: CarpetGraph,
    m: int,
    trials: int,
    n: int,
    seed: int = 0,
    j: int = 8,
    max_steps: int = 100_000,
) -> dict:
    """Fraction of m-associated pairs reaching (m+1)-association in j renewals.

    Pairs are drawn uniformly (with replacement) from the level-(n-1) catalog;
    renewals fire at first-walker displacement k^m (fixed scale).  A trial
    succeeds when the refreshed association level reaches m + 1 before the
    j-th renewal completes and before either walker leaves the level-n box.
    Already-(m+1)-associated draws count as immediate successes; truncated
    trials are excluded from the denominator.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if graph.level < n + 1 or graph.level < m + 1:
        raise ValueError("built region too small for this experiment")
    catalog = pair_catalog(graph, m, n)
    if not catalog:
        raise ValueError(f"no m={m} associated pairs inside the level-{n - 1} box")
    eng = _coupler(graph, max(m + 1, n))
    k = graph.params.k
    box_side = k ** n
    scale_sq = float(k ** m) ** 2
    rows = eng.coord_rows

    successes = 0
    immediate = 0
    exited = 0
    exhausted = 0  # j renewal intervals elapsed without an upgrade
    truncated = 0
    for trial in range(trials):
        rng = derive_rng(seed, "upgrade-trial", index=trial)
        x0, y0 = catalog[rng.integers(len(catalog))]
        x, y = x0, y0
        lvl, iso_id = eng.refresh(x, y)
        if lvl >= m + 1:
            successes += 1
            immediate += 1
            continue
        ref = rows[x]
        renewals = 0
        outcome = None
        for _ in range(max_steps):
            x, y, lvl, iso_id, moved = eng.step(x, y, lvl, iso_id, rng)
            if lvl >= m + 1:
                outcome = "success"
                break
            cx = rows[x]
            cy = rows[y]
            if any(c >= box_side for c in cx) or any(c >= box_side for c in cy):
                outcome = "exit"
                break
            if moved:
                if sum((a - b) ** 2 for a, b in zip(cx, ref)) >= scale_sq:
                    renewals += 1
                    ref = cx
                    if renewals >= j:
                        outcome = "exhausted"
                        break
        if outcome == "success":
            successes += 1
        elif outcome == "exit":
            exited += 1
        elif outcome == "exhausted":
            exhausted += 1
        else:
            truncated += 1

    valid = trials - truncated
    probability = successes / valid if valid else float("nan")
    return {
        "m": m,
        "n": n,
        "j": j,
        "trials": trials,
        "valid": valid,
        "successes": successes,
        "immediate": immediate,
        "exited": exited,
        "exhausted": exhausted,
        "truncated": truncated,
        "probability": probability,
    }


def sample_marginal(
    graph: CarpetGraph,
    x0: int,
    y0: int,
    steps: int,
    trials: int,
    seed: int = 0,
    m_max: Optional[int] = None,
) -> np.ndarray:
    """Empirical position counts of the second walker after ``steps`` steps.

    The coupled pair is advanced without any stopping rule; the returned
    length-|V| array counts where the mirrored walker landed, for comparison
    against the heat-kernel row (the marginal-law contract).
    """
    if m_max is None:
        m_max = graph.level
    eng = _coupler(graph, m_max)
    counts = np.zeros(graph.num_vertices, dtype=np.int64)
    for trial in range(trials):
        rng = derive_rng(seed, "marginal-trial", index=trial)
        x, y = int(x0), int(y0)
        m, iso_id = eng.refresh(x, y)
        for _ in range(steps):
            x, y, m, iso_id, _ = eng.step(x, y, m, iso_id, rng)
        counts[y] += 1
    return counts
