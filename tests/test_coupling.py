import hashlib
import json

import numpy as np
import pytest
from scipy import stats

from carpetlab import coupling
from carpetlab.coupling import _Coupler, origin_pair, run_coupled_walk, upgrade_statistics
from carpetlab.geometry import HOLD, build_graph, count_cells, signed_permutations, validate_params
from carpetlab.heat import TransitionOperator
from carpetlab.seeding import derive_rng

from conftest import kernel_row, vid
from oracles import catalog, pair_catalog, sample_marginal


def loc2(graph, m, v):
    """Doubled coordinates of ``v`` within its S_m cube, about the cube's center."""
    side = graph.params.k ** m
    return 2 * (graph.coords[v] % side) + 1 - side


def act(graph, i, vec):
    """Image of doubled local coordinates ``vec`` (..., d) under signed permutation ``i``."""
    perm, sign = signed_permutations(graph.params.d)
    return sign[i] * vec[..., perm[i]]


def witnesses(graph, x, y, m):
    """Ids of the signed permutations carrying x's S_m cube position onto y's."""
    return [
        i for i in range(len(signed_permutations(graph.params.d)[0]))
        if (act(graph, i, loc2(graph, m, x)) == loc2(graph, m, y)).all()
    ]


def cls(eng, m, v):
    """The engine's association class of ``v`` at level m: its cell's least orbit-mate."""
    return eng.canon[eng.cell[m, v]]


# ------------------------------------------------------------- cube geometry


def test_local_coords(g2):
    eng = _Coupler(g2, 2)
    v = vid(g2, 0, 0)
    np.testing.assert_allclose(loc2(g2, 0, v) / 2, [0.0, 0.0])
    np.testing.assert_allclose(loc2(g2, 1, v) / 2, [-1.0, -1.0])
    np.testing.assert_allclose(loc2(g2, 1, vid(g2, 2, 0)) / 2, [1.0, -1.0])
    np.testing.assert_allclose(loc2(g2, 1, vid(g2, 4, 0)) / 2, [0.0, -1.0])
    # The engine's cell of a vertex names its local position: two vertices
    # share a cell at level m exactly when their local coordinates agree.
    for m in range(3):
        local = loc2(g2, m, np.arange(g2.num_vertices))
        same_cell = eng.cell[m, :, None] == eng.cell[m, None, :]
        np.testing.assert_array_equal(same_cell, (local[:, None] == local[None, :]).all(axis=2))
    with pytest.raises(ValueError):
        _Coupler(g2, 3)


def test_isometry_preserves_the_carpet(g2):
    # Any witness between level-1 cubes permutes the surviving cells.
    isos = witnesses(g2, vid(g2, 0, 0), vid(g2, 2, 0), 1)
    assert isos
    cube = {tuple(loc2(g2, 1, v)) for v in np.nonzero((g2.coords < 3).all(axis=1))[0]}
    for i in isos:
        assert {tuple(act(g2, i, np.array(c))) for c in cube} == cube


def test_isometry_maps_across_cubes(g2):
    # Witness between different level-1 cubes lands in the target cube.
    x, y = vid(g2, 1, 0), vid(g2, 4, 0)
    isos = witnesses(g2, x, y, 1)
    assert isos
    assert tuple(g2.coords[x] // 3) == (0, 0)
    assert tuple(g2.coords[y] // 3) == (1, 0)
    for i in isos:
        img2 = act(g2, i, loc2(g2, 1, x))
        image = (g2.coords[y] // 3) * 3 + (img2 + 2) // 2
        assert tuple(image) == tuple(g2.coords[y])


def test_identity_witness_for_met_pair(g2):
    perm, sign = signed_permutations(2)
    assert (tuple(perm[0]), tuple(sign[0])) == ((0, 1), (1, 1))  # identity
    v = vid(g2, 5, 2)
    assert witnesses(g2, v, v, 2)[0] == 0  # identity is canonically first
    assert _Coupler(g2, 2).refresh(np.array([v]), np.array([v]))[1][0] == 0
    # A diagonal cell is also fixed by the axis swap, nothing else.
    diag = witnesses(g2, vid(g2, 0, 0), vid(g2, 0, 0), 1)
    assert diag[0] == 0
    assert len(diag) == 2


def test_association_zero_is_universal(g2):
    # Every pair is 0-associated: all eight signed permutations fix the
    # center of a unit cube.
    assert len(witnesses(g2, vid(g2, 0, 0), vid(g2, 7, 5), 0)) == 8


def test_association_examples(g2):
    # Mirror images through the central column: 1-associated.
    assert witnesses(g2, vid(g2, 0, 0), vid(g2, 2, 0), 1)
    # An adjacent off-axis pair is not 1-associated.
    assert witnesses(g2, vid(g2, 0, 0), vid(g2, 0, 1), 1) == []


def test_association_level(g3):
    # refresh reports the highest level at which each pair is associated.
    eng = _Coupler(g3, 3)
    x = np.array([vid(g3, 2, 2), vid(g3, 0, 0), vid(g3, 0, 0)])
    y = np.array([vid(g3, 2, 2), vid(g3, 2, 0), vid(g3, 0, 1)])
    assert eng.refresh(x, y)[0].tolist() == [3, 1, 0]
    with pytest.raises(ValueError):
        _Coupler(g3, 4)


def test_association_is_monotone(g3):
    # Associated at m implies associated at every lower level.
    eng = _Coupler(g3, 3)
    rng = np.random.default_rng(2)
    ids = rng.integers(0, g3.num_vertices, size=40)
    for x, y in zip(ids[::2], ids[1::2]):
        x, y = int(x), int(y)
        levels = [bool(witnesses(g3, x, y, m)) for m in range(4)]
        assert levels == [cls(eng, m, x) == cls(eng, m, y) for m in range(4)]
        for m in range(1, 4):
            if levels[m]:
                assert all(levels[:m])
    # Every pair of the level-2 box: canon equality at m forces it below m.
    box = np.nonzero((g3.coords < 9).all(axis=1))[0]
    canon = eng.canon[eng.cell[:, box]]
    eq = canon[:, :, None] == canon[:, None, :]
    assert not (eq[1:] & ~eq[:-1]).any()


@pytest.mark.parametrize("d, k, a, n", [(2, 3, 1, 3), (2, 5, 3, 2), (2, 7, 3, 2), (3, 3, 1, 2)])
def test_association_classes_are_the_cube_carpets_orbits(d, k, a, n):
    # The tables name each class by its least cell in the level-m carpet,
    # whose orbits must be the classes of the definition: positions in an
    # S_m cube that a signed permutation carries onto each other.  Each
    # cell's image under isometry i is the cell of the position i carries
    # it onto.
    graph = build_graph(n, validate_params(d, k, a))
    eng = _Coupler(graph, n)
    perm, sign = signed_permutations(d)
    ids = np.arange(graph.num_vertices)
    for m in range(n + 1):
        side = k ** m
        local = loc2(graph, m, ids)
        images = local[:, perm] * sign[None]  # (rows, isos, d)
        packed = (images + side) @ (2 * side + 1) ** np.arange(d)
        key = packed.min(axis=1)
        canon = cls(eng, m, ids)
        pairs = set(zip(canon.tolist(), key.tolist()))
        assert len(pairs) == len(set(key.tolist())) == len(set(canon.tolist()))
        corner = graph.coords - graph.coords % side
        for i in range(len(perm)):
            onto = graph.vertex_ids(corner + (images[:, i] + side - 1) // 2)
            np.testing.assert_array_equal(eng.image[i, eng.cell[m]], eng.cell[m, onto])


def lowest_witnesses(graph, x, y, m):
    """Brute force: the lowest signed permutation carrying each x's S_m cube
    position onto its y's, over all 2^d d! of them (-1 where none does)."""
    perm, sign = signed_permutations(graph.params.d)
    images = loc2(graph, m, x)[:, perm] * sign  # (pairs, isos, d)
    match = (images == loc2(graph, m, y)[:, None, :]).all(axis=2)
    return np.where(match.any(axis=1), np.argmax(match, axis=1), -1)


@pytest.mark.parametrize("d, k, a", [(2, 3, 1), (3, 3, 1), (2, 4, 2), (2, 5, 3), (4, 3, 1)])
def test_witness_table_holds_the_lowest_witness(d, k, a):
    # For seeded pairs of each class, the table's entry is the lowest
    # isometry a search over every signed permutation finds, at every level
    # m <= 2; refresh reads it at the pair's highest level.
    graph = build_graph(2, validate_params(d, k, a))
    eng = _Coupler(graph, 2)
    n_isos = len(signed_permutations(d)[0])
    # one dense row of 2^d d! slots per cube cell, over the cells of every level
    assert eng.witness.shape == (sum(count_cells(m, graph.params) for m in range(3)), n_isos)
    rng = np.random.default_rng(7)
    for m in range(3):
        x = rng.integers(0, len(eng.nbr), size=150)
        # y: a random vertex of x's class at level m
        y = np.array([rng.choice(np.nonzero(eng.canon[eng.cell[m]] == cls(eng, m, v))[0]) for v in x])
        brute = lowest_witnesses(graph, x, y, m)
        assert (brute >= 0).all()
        np.testing.assert_array_equal(
            eng.witness[eng.cell[m, x], eng.slot[eng.cell[m, y]]], brute)
        top, iso = eng.refresh(x, y)
        assert (top >= m).all()
        np.testing.assert_array_equal(iso, [lowest_witnesses(graph, [u], [v], t)[0]
                                            for u, v, t in zip(x, y, top)])


@pytest.mark.parametrize("d, k, a, n", [(2, 3, 1, 3), (3, 3, 1, 3), (2, 5, 3, 3), (4, 3, 1, 2)])
def test_wall_table_marks_the_steps_that_leave_the_cube(d, k, a, n):
    # For every table row v, present direction e and level m: the step
    # crosses a wall exactly when v and its neighbor lie in different S_m
    # cubes, on a prefix (cap n - 1) and on the whole graph (cap n).
    graph = build_graph(n, validate_params(d, k, a))
    for m_max in (n - 1, n):
        eng = _Coupler(graph, m_max)
        v, e = np.nonzero(eng.nbr >= 0)
        for m in range(m_max + 1):
            cube = graph.coords // k ** m
            crosses = (cube[v] != cube[eng.nbr[v, e]]).any(axis=1)
            np.testing.assert_array_equal(eng.wall[eng.cell[m, v], e], crosses)
            # every step leaves an S_0 cube; none leaves the one S_n cube
            assert crosses.all() == (m == 0) and crosses.any() == (m < n)


# ------------------------------------------------------------- coupled steps


def test_coupling_is_absorbing(g3):
    eng = _Coupler(g3, 3)
    x = vid(g3, 2, 2)
    w = eng.start(np.array([x]), np.array([x]))  # no stopping rule
    rng = derive_rng(17, "absorbing-test")
    for _ in range(60):
        eng.advance(w, rng.random((1, 4)))
        assert w.x[0] == w.y[0]
        assert w.iso[0] == 0  # identity witness


def test_witness_valid_until_met(g3):
    # A mirrored pair keeps its reflection witness at every step on the way
    # to meeting: the witness maps the first walker onto the second exactly.
    eng = _Coupler(g3, 3)
    w = eng.start(np.array([vid(g3, 0, 0)]), np.array([vid(g3, 2, 0)]))
    rng = derive_rng(23, "mirror-test")
    met = False
    for _ in range(2000):
        x, y, m, i = w.x[0], w.y[0], w.m[0], w.iso[0]
        if x == y:
            met = True
            break
        assert (act(g3, i, loc2(g3, m, x)) == loc2(g3, m, y)).all()
        eng.advance(w, rng.random((1, 4)))
    assert met, "mirror pair failed to meet in 2000 steps"


def test_corrupt_tables_are_caught(g2):
    # Both vectorized witness checks fire: refresh finding no witness where
    # the keys claim one, and a mirrored in-cube move leaving its witness.
    eng = _Coupler(g2, 2)
    x, y = np.array([vid(g2, 0, 0)]), np.array([vid(g2, 0, 1)])
    eng.canon[eng.cell[1, y]] = eng.canon[eng.cell[1, x]]  # claims 1-association
    with pytest.raises(RuntimeError, match="tables are corrupt"):
        eng.refresh(x, y)

    eng = _Coupler(g2, 2)
    # mirror images across a middle column, with mirrored open directions
    w = eng.start(np.array([vid(g2, 3, 1)]), np.array([vid(g2, 5, 1)]))
    assert eng.mask_map[w.iso[0], eng.mask[w.x[0]]] == eng.mask[w.y[0]]
    eng.dir_map[w.iso[0], [2, 3]] = eng.dir_map[w.iso[0], [3, 2]]  # flip the y moves
    rng = derive_rng(3, "corrupt-test")
    with pytest.raises(RuntimeError, match="broke its witness"):
        for _ in range(100):
            eng.advance(w, rng.random((1, 4)))


def test_marginal_law_of_mirrored_walker(g4):
    # The second walker of the coupled pair is itself a lazy simple walk:
    # chi-square against the exact kernel row at the 1e-3 level.
    x0, y0 = vid(g4, 0, 0), vid(g4, 0, 1)
    trials = 20000
    counts = sample_marginal(g4, x0, y0, steps=5, trials=trials, seed=42)
    probs = kernel_row(TransitionOperator(g4), y0, 5)
    expected = probs * trials
    keep = expected >= 5.0
    stat = float(((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    df = int(keep.sum()) - 1
    tail = float(expected[~keep].sum())
    if tail > 0:
        stat += (float(counts[~keep].sum()) - tail) ** 2 / tail
        df += 1
    assert counts.sum() == trials
    assert (counts[probs == 0.0] == 0).all()  # support containment
    assert stat < stats.chi2.ppf(1 - 1e-3, df)


# ----------------------------------------------------------------- full runs


def trial(walks, t):
    """Every field of trial ``t`` in a ``run_coupled_walk`` result."""
    return {name: values[t].item() for name, values in walks.items()}


def test_run_from_met_pair(g3):
    out = trial(run_coupled_walk(g3, 0, 0, 2, trials=1, seed=1), 0)
    # Coupled, so it neither exited the box nor was truncated.
    assert (out["coupled"], out["truncated"], out["steps"]) == (True, False, 0)


def test_run_determinism(g3):
    x, y = vid(g3, 0, 0), vid(g3, 0, 1)
    a = run_coupled_walk(g3, x, y, 2, trials=5, seed=5)
    b = run_coupled_walk(g3, x, y, 2, trials=5, seed=5)
    assert {name: values.dtype for name, values in a.items()} == {
        "coupled": np.bool_, "truncated": np.bool_, "steps": np.int64, "digest": np.uint64,
    }
    assert all(len(values) == 5 for values in a.values())
    assert trial(a, 3) == trial(b, 3)
    assert a["digest"][3] != a["digest"][4]


def replay(eng, rng, x, y, box_side, max_steps):
    """Scalar replay of one trial under the stream contract: (coupled, steps, digest)."""
    def fold(h, v):
        return (h ^ v) * 0x100000001B3 % 2**64

    digest = fold(fold(0xCBF29CE484222325, x), y)
    _, (iso,) = eng.refresh(np.array([x]), np.array([y]))
    for t in range(1, max_steps + 1):
        hold_x, dir_x, hold_y, dir_y = rng.random(4)
        dirs = np.nonzero(eng.nbr[x] >= 0)[0]
        e = dirs[int(dir_x * len(dirs))]
        nx = x if hold_x < HOLD else eng.nbr[x, e]
        if eng.mask_map[iso, eng.mask[x]] == eng.mask[y]:  # mirrored
            ny = y if hold_x < HOLD else eng.nbr[y, eng.dir_map[iso, e]]
        else:
            dirs_y = np.nonzero(eng.nbr[y] >= 0)[0]
            ny = y if hold_y < HOLD else eng.nbr[y, dirs_y[int(dir_y * len(dirs_y))]]
        x, y = int(nx), int(ny)
        _, (iso,) = eng.refresh(np.array([x]), np.array([y]))
        digest = fold(fold(digest, x), y)
        if (eng.coords[x] >= box_side).any() or (eng.coords[y] >= box_side).any():
            return False, t, f"{digest:016x}"
        if x == y:
            return True, t, f"{digest:016x}"
    return False, max_steps, f"{digest:016x}"


def test_batch_follows_the_stream_contract(g4):
    # Four uniforms per step from the trial's own stream: hold-x, dir-x,
    # hold-y, dir-y, with direction dirs[floor(u * len(dirs))].
    x, y = vid(g4, 0, 0), vid(g4, 8, 8)
    outs = run_coupled_walk(g4, x, y, 3, trials=40, max_steps=400, seed=3)
    eng = _Coupler(g4, 3)
    for t in range(40):
        rng = derive_rng(3, "coupled-walk", index=t)
        out = trial(outs, t)
        assert replay(eng, rng, x, y, 27, 400) == (
            out["coupled"], out["steps"], f"{out['digest']:016x}"
        )


def test_outcome_does_not_depend_on_batch(g3, monkeypatch):
    # A trial's outcome, digest included, depends only on (seed, trial).
    x, y = vid(g3, 0, 0), vid(g3, 0, 1)
    whole = run_coupled_walk(g3, x, y, 2, trials=300, seed=5)  # one pool, no refill
    monkeypatch.setattr(coupling, "_POOL", 16)
    refilled = run_coupled_walk(g3, x, y, 2, trials=300, seed=5)
    for name in whole:
        assert np.array_equal(whole[name], refilled[name]), name
    # Fewer trials than _POOL: the pool is sized to the run.
    short = run_coupled_walk(g3, x, y, 2, trials=5, seed=5)
    assert trial(short, 3) == trial(whole, 3)
    # A trial admitted after the first batch fills the pool.
    t = coupling._POOL + 3
    late = run_coupled_walk(g3, x, y, 2, trials=t + 1, seed=5)
    assert trial(late, t) == trial(whole, t)


def test_aggregates_do_not_depend_on_chunking(g4, monkeypatch):
    x, y = vid(g4, 0, 0), vid(g4, 0, 1)
    up = upgrade_statistics(g4, 0, 300, 3, seed=8)
    counts = sample_marginal(g4, x, y, steps=9, trials=300, seed=8)
    # Many pool refills instead of none.
    monkeypatch.setattr(coupling, "_POOL", 7)
    assert upgrade_statistics(g4, 0, 300, 3, seed=8) == up
    assert np.array_equal(sample_marginal(g4, x, y, steps=9, trials=300, seed=8), counts)


def test_run_truncation(g4):
    # Separation ~11 cannot close in 3 unit steps: the run must truncate.
    out = trial(
        run_coupled_walk(g4, vid(g4, 0, 0), vid(g4, 8, 8), 3, trials=1, max_steps=3, seed=2), 0
    )
    assert out["truncated"]
    assert not out["coupled"]
    assert out["steps"] == 3


def test_run_preconditions(g3):
    with pytest.raises(ValueError, match="level"):
        run_coupled_walk(g3, 0, 0, 3, trials=1)  # box level needs headroom above it
    with pytest.raises(ValueError):
        run_coupled_walk(g3, 0, vid(g3, 8, 8), 2, trials=1)  # start outside inner box
    with pytest.raises(ValueError, match="box level n must be at least 1"):
        run_coupled_walk(g3, 0, 0, 0, trials=1)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_coupled_walk(g3, 0, 0, 2, trials=0)
    with pytest.raises(ValueError, match="max_steps must be at least 1"):
        run_coupled_walk(g3, 0, 0, 2, trials=1, max_steps=0)


def test_more_trials_than_streams_are_refused_before_the_walk(g3, monkeypatch):
    # Trial i walks on stream i, and stream indices lie below 2^32: a run of
    # 2^32 + 1 trials is refused before a coupler allocates its trial arrays.
    def no_coupler(*args, **kwargs):
        pytest.fail("built a coupler for a run it must refuse")

    monkeypatch.setattr(coupling, "_Coupler", no_coupler)
    message = r"trials must be at most 2\^32, got 4294967297"
    with pytest.raises(ValueError, match=message):
        run_coupled_walk(g3, 0, 0, 2, trials=2**32 + 1)
    with pytest.raises(ValueError, match=message):
        upgrade_statistics(g3, 0, 2**32 + 1, 2)


@pytest.mark.parametrize("d, k, a, fingerprint", [
    (3, 3, 1, "227eb6e811abea38"),
    (2, 5, 3, "191a50fd8506835a"),
])
def test_trajectories_are_frozen(d, k, a, fingerprint):
    # Every digest of 2,000 walks from the origin pair and both upgrade
    # statistics (m = 0, 1) at seed 42, hashed together: a table change that
    # moves any walker by one step changes the hash.
    graph = build_graph(3, validate_params(d, k, a))
    walks = run_coupled_walk(graph, *origin_pair(graph), 2, trials=2000, seed=42)
    ups = [upgrade_statistics(graph, m, 1000, 2, seed=42) for m in (0, 1)]
    h = hashlib.sha256(walks["digest"].astype("<u8").tobytes())
    h.update(json.dumps(ups, sort_keys=True).encode())
    assert h.hexdigest()[:16] == fingerprint


def test_coupling_probability_positive(g3):
    # Adjacent 0-associated pair, level-2 box: most trials couple.
    x, y = vid(g3, 0, 0), vid(g3, 0, 1)
    hits = int(run_coupled_walk(g3, x, y, 2, trials=200, seed=6)["coupled"].sum())
    assert hits / 200.0 >= 0.05


def test_coupling_keeps_no_state_on_the_graph(params2):
    # Each call builds its tables and drops them when it returns: a fresh
    # graph has the same attributes after every public coupling call.
    graph = build_graph(3, params2)
    keys = set(vars(graph))
    x, y = vid(graph, 0, 0), vid(graph, 0, 1)
    run_coupled_walk(graph, x, y, 2, trials=20, seed=1)
    assert set(vars(graph)) == keys
    assert pair_catalog(graph, 1, 2)
    assert set(vars(graph)) == keys
    upgrade_statistics(graph, 0, 20, 2, seed=1)
    assert set(vars(graph)) == keys


# ------------------------------------------------------------------ catalogs


def test_pair_catalog(g3):
    eng = _Coupler(g3, 3)
    pairs = pair_catalog(g3, 1, 2)
    assert pairs
    inner = set()
    for x, y in pairs:
        assert x != y
        assert (y, x) in set(pairs)
        assert witnesses(g3, x, y, 1)
        inner.add(x)
    assert all((g3.coords[v] < 3).all() for v in inner)
    with pytest.raises(ValueError):
        pair_catalog(g3, 3, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        pair_catalog(g3, -1, 2)  # would read the top level's keys


@pytest.mark.parametrize("d, k, a, n", [(2, 3, 1, 3), (3, 3, 1, 2), (2, 5, 3, 2), (2, 4, 2, 2)])
def test_drawn_pairs_decode_the_catalog(d, k, a, n):
    # upgrade_statistics decodes each drawn index from the class sizes,
    # without listing the catalog: index i decodes to the catalog's entry i.
    graph = build_graph(n, validate_params(d, k, a))
    eng = _Coupler(graph, n)
    for m in range(n + 1):
        for side in (k ** (n - 1), k ** n):
            members, sizes = eng.classes(m, side)
            want = catalog(eng, m, side)
            x, y = coupling._catalog_pairs(members, sizes, np.arange(len(want)))
            assert list(zip(x.tolist(), y.tolist())) == want


def test_upgrade_statistics(g4):
    up = upgrade_statistics(g4, 0, 400, 2, seed=42)
    assert up["trials"] == 400
    assert up["valid"] == up["trials"] - up["truncated"]
    assert up["successes"] >= up["immediate"]
    assert 0.0 <= up["probability"] <= 1.0
    again = upgrade_statistics(g4, 0, 400, 2, seed=42)
    assert up == again


def test_upgrade_frozen_values(g4):
    up = upgrade_statistics(g4, 0, 2000, 2, seed=42)
    assert up["probability"] == pytest.approx(1.0)
    assert up["immediate"] == 822
    up3 = upgrade_statistics(g4, 0, 2000, 3, seed=42)
    assert up3["probability"] == pytest.approx(1.0)
    assert up3["immediate"] == 996


def test_upgrade_frozen_values_with_exhausted_trials(g3):
    # One renewal at the fixed scale k^m = 3 leaves many pairs short of an
    # upgrade: the exhausted count pins the fixed-scale renewal rule.
    up = upgrade_statistics(g3, 1, 500, 2, seed=42, j=1)
    assert {key: up[key] for key in ("successes", "immediate", "exited", "exhausted", "valid")} == {
        "successes": 354, "immediate": 112, "exited": 3, "exhausted": 143, "valid": 500,
    }


def test_upgrade_rejects_bad_inputs(g3):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        upgrade_statistics(g3, 0, 0, 2)
    with pytest.raises(ValueError, match="box level n must be at least 1, got 0"):
        upgrade_statistics(g3, 0, 10, 0)
    with pytest.raises(ValueError):
        upgrade_statistics(g3, 0, 10, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        upgrade_statistics(g3, -1, 10, 2)
    with pytest.raises(ValueError, match="renewal count j"):
        upgrade_statistics(g3, 0, 10, 2, j=0)
    with pytest.raises(ValueError, match="association level cap 4 exceeds the built region"):
        upgrade_statistics(g3, 3, 10, 2)  # level m + 1 = 4 is not built


# --------------------------------------------------------------- table reach


def full_tables(graph, m_max):
    """An engine at cap ``m_max`` whose tables cover every vertex.

    At the graph's own level the prefix x_0 <= k^level is the whole graph;
    the levels above ``m_max`` are then dropped, which leaves the tables of
    a cap-``m_max`` engine (each level's rows depend only on that level;
    the per-cell tables keep the dropped levels' cells, which no row names).
    """
    eng = _Coupler(graph, graph.level)
    assert len(eng.nbr) == graph.num_vertices
    eng.m_max = m_max
    levels = slice(0, m_max + 1)
    eng.cell = eng.cell[levels]
    eng.scale_sq = eng.scale_sq[levels]
    return eng


@pytest.mark.parametrize("graph_name, x, y", [
    ("g4", (0, 0), (2, 1)),
    ("g3d", (0, 0, 0), (2, 1, 0)),
])
def test_prefix_tables_walk_as_full_tables(request, monkeypatch, graph_name, x, y):
    # Walks stopped on leaving the level-2 box read the same tables on the
    # prefix x_0 <= 9 as on the whole graph: every output, digests bit for bit.
    graph = request.getfixturevalue(graph_name)
    x, y = vid(graph, *x), vid(graph, *y)

    def outputs(make):
        # Every call builds its own engine, here through ``make``.
        built = []

        def engine(g, m_max):
            built.append(make(g, m_max))
            return built[-1]

        monkeypatch.setattr(coupling, "_Coupler", engine)
        walks = run_coupled_walk(graph, x, y, 2, trials=600, seed=11)
        ups = [upgrade_statistics(graph, m, 300, 2, seed=12) for m in (0, 1)]
        assert [eng.m_max for eng in built] == [2, 2, 2]
        return walks, ups, built

    walks, ups, built = outputs(_Coupler)
    for prefix in built:
        assert len(prefix.nbr) < graph.num_vertices
        assert (prefix.nbr < len(prefix.nbr)).all()
    full_walks, full_ups, _ = outputs(full_tables)
    assert walks.keys() == full_walks.keys()
    for name in walks:
        assert walks[name].dtype == full_walks[name].dtype
        assert np.array_equal(walks[name], full_walks[name]), name
    assert ups == full_ups
    # Walkers did reach the box wall, the layer whose outward steps are cut.
    assert (~walks["coupled"] & ~walks["truncated"]).any()
    assert ups[1]["exited"] > 0


def test_prefix_length_on_the_3d_level4_carpet(g3d4):
    # x_0 <= 9 keeps 10 of the 81 x_0 layers: 60,588 of 456,976 vertices.
    eng = _Coupler(g3d4, 2)
    assert eng.reach == 9
    assert eng.nbr.shape == (60_588, 6)
    assert eng.mask.shape == (60_588,)
    assert eng.cell.shape == (3, 60_588)
    # Cells are numbered once over the level-0, 1 and 2 cube carpets, and
    # every cell of each is some prefix vertex's position.
    counts = [1, 26, 676]
    assert eng.canon.shape == eng.slot.shape == (sum(counts),)
    assert eng.witness.shape == (sum(counts), 48) and eng.wall.shape == (sum(counts), 6)
    assert eng.image.shape == (48, sum(counts)) and eng.image.dtype == np.uint16
    first = np.cumsum([0] + counts)
    for m in range(3):
        np.testing.assert_array_equal(np.unique(eng.cell[m]), np.arange(first[m], first[m + 1]))
    assert g3d4.coords[60_587, 0] == 9 and g3d4.coords[60_588, 0] == 10


@pytest.mark.parametrize("graph_name", ["g4", "g3d"])
def test_neighbor_table_is_the_per_direction_lookup(request, graph_name):
    # Direction 2*axis steps by +e_axis and 2*axis + 1 by -e_axis; a
    # neighbor at or past the end of the prefix reads -1.
    graph = request.getfixturevalue(graph_name)
    for m_max in (2, graph.level):
        eng = _Coupler(graph, m_max)
        rows = len(eng.nbr)
        expect = np.empty((rows, 2 * graph.params.d), dtype=np.int64)
        for e in range(expect.shape[1]):
            shifted = graph.coords[:rows].copy()
            shifted[:, e // 2] += 1 - 2 * (e % 2)
            expect[:, e] = graph.vertex_ids(shifted)
        expect[expect >= rows] = -1
        assert eng.nbr.dtype == np.int32
        np.testing.assert_array_equal(eng.nbr, expect)


def test_walks_must_stay_within_the_tables(g4):
    # Cap 2 on a level-4 graph: the tables stop at x_0 = 9.
    eng = _Coupler(g4, 2)
    x, y = np.array([vid(g4, 0, 0)]), np.array([vid(g4, 2, 1)])
    assert len(eng.nbr) < g4.num_vertices
    with pytest.raises(ValueError, match="box side 27 exceeds the tables' reach 9"):
        eng.start(x, y, box_side=27)
    with pytest.raises(ValueError, match="without a stopping box needs tables over the whole graph"):
        eng.start(x, y, target=1)
    with pytest.raises(ValueError, match="without a stopping box"):
        eng.run(1, "reach-test", 4, 10, lambda states: (np.repeat(x, len(states)), np.repeat(y, len(states))))
    assert eng.start(x, y, box_side=9).status[0] == coupling.ACTIVE
    # A cap at the graph's level covers every vertex: no box is needed.
    assert _Coupler(g4, 4).start(x, y).status[0] == coupling.ACTIVE
