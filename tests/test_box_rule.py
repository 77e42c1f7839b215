"""Every corner-box test that reads ``CarpetGraph.top`` agrees with the same
rule taken from the coordinates: a cell lies in ``[0, s)^d`` iff all of its
coordinates are below s.  (``box_vertices`` is checked the same way in
``test_geometry``.)"""

import numpy as np
import pytest

from carpetlab.coupling import ACTIVE, COUPLED, EXITED, _Coupler
from carpetlab.geometry import build_graph, validate_params
from carpetlab.harmonic import hitting_pair_catalog
from carpetlab.seeding import derive_rng

from oracles import catalog

CARPETS = [(2, 3, 1, 4), (3, 3, 1, 3), (2, 5, 3, 3), (2, 4, 2, 3), (4, 3, 1, 2)]


@pytest.fixture(scope="module", params=CARPETS, ids=lambda c: "-".join(map(str, c)))
def graph(request):
    d, k, a, n = request.param
    return build_graph(n, validate_params(d, k, a))


def in_box(graph, side):
    return (graph.coords < side).all(axis=1)


def test_top_is_the_largest_coordinate(graph):
    np.testing.assert_array_equal(graph.top, graph.coords.max(axis=1))
    assert not graph.top.flags.writeable


def test_catalog_follows_the_coordinate_rule(graph):
    # The catalog groups the level-(n-1) box by association class, in id order.
    n, k = graph.level, graph.params.k
    eng = _Coupler(graph, n)
    for m in range(n + 1):
        groups: dict = {}
        for v in np.flatnonzero(in_box(graph, k ** (n - 1))):
            groups.setdefault(int(eng.canon[eng.cell[m, v]]), []).append(int(v))
        want = [(a, b) for members in groups.values() for a in members for b in members if a != b]
        assert catalog(eng, m, k ** (n - 1)) == want


def catalog_from_coordinates(graph, r, c1, c2, count, seed):
    """``hitting_pair_catalog``'s draws, with its admissible centres taken from coordinates."""
    eligible = np.flatnonzero(in_box(graph, graph.side - c2 * r))
    if eligible.size == 0:
        return None
    rng = derive_rng(seed, "hitting-pair-catalog", index=int(round(r)))
    pairs = []
    while len(pairs) < count:
        x = int(eligible[rng.integers(eligible.size)])
        dist = np.sqrt(((graph.coords - graph.coords[x]) ** 2).sum(axis=1))
        ys = np.flatnonzero((dist >= r) & (dist <= c1 * r))
        if ys.size:
            pairs.append((x, int(ys[rng.integers(ys.size)])))
    return pairs


@pytest.mark.parametrize("power", [1, 2])
def test_hitting_centres_follow_the_coordinate_rule(graph, power):
    r = float(graph.params.k ** power)
    want = catalog_from_coordinates(graph, r, 2.0, 4.0, count=20, seed=5)
    if want is None:
        with pytest.raises(ValueError, match="no admissible centers"):
            hitting_pair_catalog(graph, r, count=20, seed=5)
    else:
        assert hitting_pair_catalog(graph, r, count=20, seed=5) == want


@pytest.mark.parametrize("power", [1, 2])
def test_walk_exit_follows_the_coordinate_rule(graph, power):
    # One coupled step from random pairs within a step of the box: a pair
    # exits when either walker lands outside the box, else couples when
    # they meet.
    eng = _Coupler(graph, 2)
    side = graph.params.k ** power
    rng = np.random.default_rng(power)
    x, y = rng.choice(np.flatnonzero(in_box(graph, side + 1)), size=(2, 2000))
    w = eng.start(x, y, box_side=side)
    active = w.status == ACTIVE
    eng.advance(w, rng.random((int(active.sum()), 4)))
    out = ~in_box(graph, side)[w.x] | ~in_box(graph, side)[w.y]
    want = np.where(out, EXITED, np.where(w.x == w.y, COUPLED, ACTIVE))
    np.testing.assert_array_equal(w.status[active], want[active])
    assert (w.status[active] == ACTIVE).any()
    assert (w.status[active] == EXITED).any() == (side < graph.side)  # no exit from the whole window
