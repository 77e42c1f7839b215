import numpy as np
import pytest
from scipy import stats

from carpetlab.coupling import (
    _coupler,
    association_level,
    pair_catalog,
    run_coupled_walk,
    sample_marginal,
    upgrade_statistics,
)
from carpetlab.heat import TransitionOperator, heat_kernel_row
from carpetlab.seeding import derive_rng

from conftest import vid


def witnesses(eng, x, y, m):
    """Ids of the signed permutations carrying x's S_m cube position onto y's."""
    return [
        i for i in range(len(eng.isos))
        if eng.apply_linear(i, eng.loc2[m][x]) == eng.loc2[m][y]
    ]


# ------------------------------------------------------------- cube geometry


def test_local_coords(g2):
    eng = _coupler(g2, 2)
    v = vid(g2, 0, 0)
    np.testing.assert_allclose(np.array(eng.loc2[0][v]) / 2, [0.0, 0.0])
    np.testing.assert_allclose(np.array(eng.loc2[1][v]) / 2, [-1.0, -1.0])
    np.testing.assert_allclose(np.array(eng.loc2[1][vid(g2, 2, 0)]) / 2, [1.0, -1.0])
    np.testing.assert_allclose(np.array(eng.loc2[1][vid(g2, 4, 0)]) / 2, [0.0, -1.0])
    with pytest.raises(ValueError):
        _coupler(g2, 3)


def test_isometry_preserves_the_carpet(g2):
    # Any witness between level-1 cubes permutes the surviving cells.
    eng = _coupler(g2, 2)
    isos = witnesses(eng, vid(g2, 0, 0), vid(g2, 2, 0), 1)
    assert isos
    cube = {eng.loc2[1][v] for v in np.nonzero((g2.coords < 3).all(axis=1))[0]}
    for i in isos:
        assert {eng.apply_linear(i, c) for c in cube} == cube


def test_isometry_maps_across_cubes(g2):
    # Witness between different level-1 cubes lands in the target cube.
    eng = _coupler(g2, 2)
    x, y = vid(g2, 1, 0), vid(g2, 4, 0)
    isos = witnesses(eng, x, y, 1)
    assert isos
    assert tuple(g2.coords[x] // 3) == (0, 0)
    assert tuple(g2.coords[y] // 3) == (1, 0)
    for i in isos:
        img2 = np.array(eng.apply_linear(i, eng.loc2[1][x]))
        image = (g2.coords[y] // 3) * 3 + (img2 + 2) // 2
        assert tuple(image) == tuple(g2.coords[y])


def test_identity_witness_for_met_pair(g2):
    eng = _coupler(g2, 2)
    assert eng.isos[0] == ((0, 1), (1, 1))  # id 0 is the identity
    v = vid(g2, 5, 2)
    assert witnesses(eng, v, v, 2)[0] == 0  # identity is canonically first
    # A diagonal cell is also fixed by the axis swap, nothing else.
    diag = witnesses(eng, vid(g2, 0, 0), vid(g2, 0, 0), 1)
    assert diag[0] == 0
    assert len(diag) == 2


def test_association_zero_is_universal(g2):
    # Every pair is 0-associated: all eight signed permutations fix the
    # center of a unit cube.
    eng = _coupler(g2, 2)
    assert len(witnesses(eng, vid(g2, 0, 0), vid(g2, 7, 5), 0)) == 8


def test_association_examples(g2):
    eng = _coupler(g2, 2)
    # Mirror images through the central column: 1-associated.
    assert witnesses(eng, vid(g2, 0, 0), vid(g2, 2, 0), 1)
    # An adjacent off-axis pair is not 1-associated.
    assert witnesses(eng, vid(g2, 0, 0), vid(g2, 0, 1), 1) == []


def test_association_level(g3):
    assert association_level(g3, vid(g3, 2, 2), vid(g3, 2, 2), 3) == 3
    assert association_level(g3, vid(g3, 0, 0), vid(g3, 2, 0), 3) == 1
    assert association_level(g3, vid(g3, 0, 0), vid(g3, 0, 1), 3) == 0
    with pytest.raises(ValueError):
        association_level(g3, 0, 0, 4)


def test_association_is_monotone(g3):
    # Associated at m implies associated at every lower level.
    eng = _coupler(g3, 3)
    rng = np.random.default_rng(2)
    ids = rng.integers(0, g3.num_vertices, size=40)
    for x, y in zip(ids[::2], ids[1::2]):
        x, y = int(x), int(y)
        levels = [bool(witnesses(eng, x, y, m)) for m in range(4)]
        assert levels == [eng.canon[m][x] == eng.canon[m][y] for m in range(4)]
        for m in range(1, 4):
            if levels[m]:
                assert all(levels[:m])


# ------------------------------------------------------------- coupled steps


def test_coupling_is_absorbing(g3):
    eng = _coupler(g3, 3)
    x = y = vid(g3, 2, 2)
    m, i = eng.refresh(x, y)
    rng = derive_rng(17, "absorbing-test")
    for _ in range(60):
        x, y, m, i, _ = eng.step(x, y, m, i, rng)
        assert x == y
        assert i == 0  # identity witness


def test_witness_valid_until_met(g3):
    # A mirrored pair keeps its reflection witness at every step on the way
    # to meeting: the witness maps the first walker onto the second exactly.
    eng = _coupler(g3, 3)
    x, y = vid(g3, 0, 0), vid(g3, 2, 0)
    m, i = eng.refresh(x, y)
    rng = derive_rng(23, "mirror-test")
    met = False
    for _ in range(2000):
        if x == y:
            met = True
            break
        assert eng.apply_linear(i, eng.loc2[m][x]) == eng.loc2[m][y]
        x, y, m, i, _ = eng.step(x, y, m, i, rng)
    assert met, "mirror pair failed to meet in 2000 steps"


def test_marginal_law_of_mirrored_walker(g4):
    # The second walker of the coupled pair is itself a lazy simple walk:
    # chi-square against the exact kernel row at the 1e-3 level.
    x0, y0 = vid(g4, 0, 0), vid(g4, 0, 1)
    trials = 20000
    counts = sample_marginal(g4, x0, y0, steps=5, trials=trials, seed=42)
    probs = heat_kernel_row(TransitionOperator(g4), y0, 5).probs
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


def test_run_from_met_pair(g3):
    out = run_coupled_walk(g3, 0, 0, 2, seed=1)
    assert out.coupled
    assert out.steps_taken == 0
    assert not out.exited_box
    assert not out.truncated


def test_run_determinism(g3):
    a = run_coupled_walk(g3, vid(g3, 0, 0), vid(g3, 0, 1), 2, seed=5, trial=3)
    b = run_coupled_walk(g3, vid(g3, 0, 0), vid(g3, 0, 1), 2, seed=5, trial=3)
    assert a == b
    c = run_coupled_walk(g3, vid(g3, 0, 0), vid(g3, 0, 1), 2, seed=5, trial=4)
    assert a.trajectory_digest != c.trajectory_digest
    assert len(a.trajectory_digest) == 16
    d = a.to_dict()
    assert d["coupled"] == a.coupled
    assert isinstance(d["renewal_times"], list)


def test_run_truncation(g4):
    # Separation ~11 cannot close in 3 unit steps: the run must truncate.
    out = run_coupled_walk(g4, vid(g4, 0, 0), vid(g4, 8, 8), 3, max_steps=3, seed=2)
    assert out.truncated
    assert not out.coupled
    assert out.steps_taken == 3


def test_run_renewals_are_increasing(g4):
    out = run_coupled_walk(g4, vid(g4, 0, 0), vid(g4, 8, 8), 3, seed=11, trial=6)
    times = out.renewal_times
    assert times == sorted(times)
    assert all(t > 0 for t in times)
    assert out.max_level_reached >= 0


def test_run_preconditions(g3):
    with pytest.raises(ValueError, match="level"):
        run_coupled_walk(g3, 0, 0, 3)  # box level needs headroom above it
    with pytest.raises(ValueError):
        run_coupled_walk(g3, 0, vid(g3, 8, 8), 2)  # start outside inner box


def test_coupling_probability_positive(g3):
    # Adjacent 0-associated pair, level-2 box: most trials couple.
    x, y = vid(g3, 0, 0), vid(g3, 0, 1)
    hits = sum(run_coupled_walk(g3, x, y, 2, seed=6, trial=t).coupled for t in range(200))
    assert hits / 200.0 >= 0.05


# ------------------------------------------------------------------ catalogs


def test_pair_catalog(g3):
    eng = _coupler(g3, 3)
    pairs = pair_catalog(g3, 1, 2)
    assert pairs
    inner = set()
    for x, y in pairs:
        assert x != y
        assert (y, x) in set(pairs)
        assert witnesses(eng, x, y, 1)
        inner.add(x)
    assert all((g3.coords[v] < 3).all() for v in inner)
    with pytest.raises(ValueError):
        pair_catalog(g3, 3, 4)


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


def test_upgrade_rejects_bad_inputs(g3):
    with pytest.raises(ValueError):
        upgrade_statistics(g3, 0, 0, 2)
    with pytest.raises(ValueError):
        upgrade_statistics(g3, 0, 10, 4)
