from dataclasses import asdict

import numpy as np
import pytest

from carpetlab.geometry import VertexGraph, box_vertices, build_graph
from carpetlab.resistance import (
    effective_resistance,
    face_resistance,
    resistance_to_infinity,
)

from conftest import graph_from_edges, make_cycle, make_path, vid
from oracles import HypothesisError, dirichlet_energy, source_flux, theorem5_check, unit_potential

# Worst relative gap between the source flux of a tolerance-1e-10 vertex
# solve and the resistance, over the problems of
# test_resistance_is_the_inverse_edge_energy: 9.1e-15 (2-D level-4 face).
FLUX_GAP = 5e-14


# -------------------------------------------------------------------- energy


def test_dirichlet_energy_single_edge():
    g = make_path(2)
    assert dirichlet_energy(g, np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert dirichlet_energy(g, np.array([2.0, 2.0])) == 0.0


def test_energy_is_inverse_resistance(g1):
    v00, v22 = vid(g1, 0, 0), vid(g1, 2, 2)
    potential = unit_potential(g1, [v00], [v22])
    r = effective_resistance(g1, [v00], [v22])
    assert dirichlet_energy(g1, potential) == pytest.approx(1.0 / r, rel=1e-9)
    assert source_flux(g1, [v00], potential) == pytest.approx(
        dirichlet_energy(g1, potential), rel=1e-9)


def test_potential_respects_bounds(g2):
    potential = unit_potential(g2, [vid(g2, 0, 0)], [vid(g2, 8, 8)])
    assert potential.min() >= -1e-10
    assert potential.max() <= 1.0 + 1e-10
    assert potential[vid(g2, 0, 0)] == pytest.approx(1.0)
    assert potential[vid(g2, 8, 8)] == pytest.approx(0.0)


def _energy_problems(graph):
    """The face pair, the corner cell against every R_N ground, and a source
    that touches its ground: the corner cell with the layer just inside the
    level-2 box boundary, against that boundary."""
    first, top = graph.coords[:, 0], graph.coords.max(axis=1)
    problems = [(np.flatnonzero(first == 0), np.flatnonzero(first == graph.side - 1))]
    problems += [(np.array([0]), box_vertices(graph, N).boundary) for N in range(1, graph.level + 1)]
    return problems + [(np.flatnonzero((top == 0) | (top == 7)), box_vertices(graph, 2).boundary)]


@pytest.mark.parametrize("carpet", ["g4", "g3d"])
def test_resistance_is_the_inverse_edge_energy(carpet, request):
    # Second methods for the orbit-row energy: the edge-sum energy and the
    # source flux (Green's identity) of a plain vertex solve.
    graph = request.getfixturevalue(carpet)
    for A, B in _energy_problems(graph):
        solves = []
        r = effective_resistance(graph, A, B, solves=solves)
        potential = unit_potential(graph, A, B)
        assert r == pytest.approx(1.0 / dirichlet_energy(graph, potential), rel=1e-12)
        assert r == pytest.approx(1.0 / source_flux(graph, A, potential), rel=FLUX_GAP)
        assert solves[0]["symmetry_order"] > 1
    touching = _energy_problems(graph)[-1]
    assert np.intersect1d(graph.rows(touching[0])[1], touching[1]).size


def test_resistance_never_lists_the_edges(params3, monkeypatch):
    g = build_graph(2, params3)
    expected = face_resistance(g), resistance_to_infinity(g, [0], [1, 2]).resistances

    def refuse(self):
        raise AssertionError("resistance listed the edges")

    monkeypatch.setattr(VertexGraph, "edges", refuse)
    assert (face_resistance(g), resistance_to_infinity(g, [0], [1, 2]).resistances) == expected


# ---------------------------------------------------------------- resistance


def test_series():
    # Two unit resistors in series.
    assert effective_resistance(make_path(3), [0], [2]) == pytest.approx(2.0, abs=1e-10)


def test_parallel():
    # Opposite corners of a 4-cycle: two 2-edge paths in parallel.
    assert effective_resistance(make_cycle(4), [0], [2]) == pytest.approx(1.0, abs=1e-10)


def test_ring_resistances(g1):
    # 8-cycle: antipodal arcs 4 and 4 in parallel; adjacent arcs 1 and 7.
    v00, v22 = vid(g1, 0, 0), vid(g1, 2, 2)
    assert effective_resistance(g1, [v00], [v22]) == pytest.approx(2.0, abs=1e-10)
    adj = effective_resistance(g1, [vid(g1, 0, 0)], [vid(g1, 0, 1)])
    assert adj == pytest.approx(7.0 / 8.0, abs=1e-10)


def test_rayleigh_monotonicity():
    # Cutting an edge can only raise the resistance.
    cut = graph_from_edges([(i, 0) for i in range(4)] , [(0, 1), (1, 2), (2, 3)])
    ring = make_cycle(4)
    assert effective_resistance(cut, [0], [2]) > effective_resistance(ring, [0], [2])


def test_multivertex_terminals(g2):
    # Shorting a whole face lowers the resistance from a single corner.
    face = np.nonzero(g2.coords[:, 0] == 8)[0]
    single = effective_resistance(g2, [vid(g2, 0, 0)], [vid(g2, 8, 8)])
    shorted = effective_resistance(g2, [vid(g2, 0, 0)], face)
    assert shorted < single


def test_resistance_rejects_bad_terminals(g1):
    # Touching sets are a short: 0 with no solve, decided by effective_resistance alone.
    solves = []
    assert effective_resistance(g1, [0], [0], solves=solves) == 0.0
    assert solves == [{"unknowns": 0, "orbit_unknowns": 0, "symmetry_order": 1,
                       "iterations": 0, "path": "none"}]
    # A short still checks every id of both sets.
    for A, B in (([0, g1.num_vertices], [0]), ([0], [0, -1])):
        with pytest.raises(ValueError, match="is outside"):
            effective_resistance(g1, A, B)
    with pytest.raises(ValueError):
        effective_resistance(g1, [], [1])


def test_disconnected_terminals():
    g = graph_from_edges([(0, 0), (1, 0), (3, 0), (4, 0)], [(0, 1), (2, 3)])
    r = effective_resistance(g, [0], [2])
    assert r == np.inf or r > 1e12


# -------------------------------------------------------------- face to face


def test_face_resistance_frozen(params2):
    assert face_resistance(build_graph(0, params2)) == 0.0
    assert face_resistance(build_graph(1, params2)) == pytest.approx(1.0, abs=1e-10)
    assert face_resistance(build_graph(2, params2)) == pytest.approx(1.657261410788382, rel=1e-9)
    assert face_resistance(build_graph(3, params2)) == pytest.approx(2.206765432669249, rel=1e-9)


def test_face_resistance_grows_geometrically(params2):
    # The per-level ratio settles; that is the renormalization picture.
    r = [face_resistance(build_graph(n, params2)) for n in (1, 2, 3, 4)]
    assert r[0] < r[1] < r[2] < r[3]
    ratios = [r[i + 1] / r[i] for i in range(3)]
    assert ratios[1] == pytest.approx(ratios[2], rel=0.05)


def test_face_resistance_3d_decreasing(params3):
    # In three dimensions the carpet is transient; crossing gets easier.
    assert face_resistance(build_graph(1, params3)) == pytest.approx(0.25, abs=1e-10)
    assert face_resistance(build_graph(2, params3)) == pytest.approx(0.1175376893276021, rel=1e-9)


# ------------------------------------------------------------------- infinity


def test_resistance_to_infinity_recurrent(g4):
    rep = resistance_to_infinity(g4, [0], levels=[1, 2, 3, 4])
    assert rep.resistances[0] == pytest.approx(1.0, abs=1e-10)
    assert rep.divergent
    assert rep.extrapolated is None
    assert rep.gamma == pytest.approx(1.228988107886665, rel=1e-6)
    assert np.all(np.diff(rep.resistances) > 0)


def test_resistance_to_infinity_transient(g3d):
    rep = resistance_to_infinity(g3d, [0], levels=[1, 2, 3])
    assert not rep.divergent
    assert rep.extrapolated == pytest.approx(0.7642375536559681, rel=1e-6)
    assert rep.gamma == pytest.approx(0.291298546263976, rel=1e-4)
    d = asdict(rep)
    assert d["extrapolated"] == rep.extrapolated
    assert d["target"] == [0]


def test_resistance_to_infinity_needs_levels(g3d):
    rep = resistance_to_infinity(g3d, [0], levels=[2, 3])
    assert rep.extrapolated is None
    assert "fewer than 3 levels" in rep.note
    with pytest.raises(ValueError):
        resistance_to_infinity(g3d, [0], levels=[4])
    with pytest.raises(ValueError):
        resistance_to_infinity(g3d, [], levels=[1, 2, 3])
    # a repeat would make the last increment 0, read as a finite limit
    with pytest.raises(ValueError, match="ground level 3 is repeated"):
        resistance_to_infinity(g3d, [0], levels=[3, 2, 3])


def test_resistance_zero_on_ground_overlap(g3d):
    # A target meeting the grounded face has resistance zero by convention.
    face = np.nonzero((g3d.coords == 8).any(axis=1))[0]
    rep = resistance_to_infinity(g3d, face[:1], levels=[2, 3])
    assert rep.resistances[0] == 0.0
    assert rep.solves[0] == {"unknowns": 0, "orbit_unknowns": 0, "symmetry_order": 1,
                             "iterations": 0, "path": "none"}


def test_resistance_solves_are_counted(params3, g3d):
    # The face pair keeps 8 of the 48 window symmetries in 3-D, the corner
    # cell's boxes all 6 axis permutations.
    solves = []
    assert face_resistance(build_graph(0, params3), solves=solves) == 0.0
    assert face_resistance(build_graph(2, params3), solves=solves) == pytest.approx(
        0.1175376893276021, rel=1e-9)
    assert solves[0]["path"] == "none"
    assert {k: solves[1][k] for k in ("unknowns", "orbit_unknowns", "symmetry_order", "path")} == {
        "unknowns": 514, "orbit_unknowns": 88, "symmetry_order": 8, "path": "SuperLU"}
    rep = resistance_to_infinity(g3d, [0], levels=[1, 2, 3])
    assert [(s["unknowns"], s["orbit_unknowns"], s["symmetry_order"]) for s in rep.solves] == [
        (6, 2, 6), (458, 100, 6), (15468, 2809, 6)]
    # Up to DIRECT_MAX orbit unknowns factor on the first solve; more run CG.
    assert [(s["path"], s["iterations"] > 0) for s in rep.solves] == [
        ("SuperLU", False), ("SuperLU", False), ("CG", True)]
    assert asdict(rep)["solves"] == rep.solves
    # A target that is not permutation-invariant keeps only the permutations fixing it.
    pair = [0, vid(g3d, 1, 0, 0)]
    assert resistance_to_infinity(g3d, pair, levels=[2]).solves[0]["symmetry_order"] == 2


def test_orbit_resistances_match_the_plain_graph(g3d):
    # The same graph as a plain vertex graph has only singleton orbits, so
    # every resistance solved on orbits must match its vertex solve: the
    # face pair, the corner cell and a target pair against a box boundary,
    # corner to corner, and two vertices no symmetry keeps.
    plain = VertexGraph(g3d.coords, g3d.indptr, g3d.indices)
    face = [np.nonzero(g3d.coords[:, 0] == c)[0] for c in (0, g3d.side - 1)]
    box = box_vertices(g3d, 2).boundary
    cases = [(face, 8), (([0], box), 6), (([0, vid(g3d, 1, 0, 0)], box), 2),
             (([0], [g3d.num_vertices - 1]), 6), (([vid(g3d, 0, 1, 2)], [vid(g3d, 26, 20, 8)]), 1)]
    for (A, B), order in cases:
        orbit_solves, plain_solves = [], []
        r = effective_resistance(g3d, A, B, solves=orbit_solves)
        assert r == pytest.approx(effective_resistance(plain, A, B, solves=plain_solves), rel=1e-9)
        assert (orbit_solves[0]["symmetry_order"], plain_solves[0]["symmetry_order"]) == (order, 1)
        assert orbit_solves[0]["unknowns"] == plain_solves[0]["unknowns"]


# ------------------------------------------------------------------ capacity


def test_theorem5_smoke(g3d):
    targets = [
        np.array([0]),
        np.nonzero((g3d.coords < 2).all(axis=1))[0],
    ]
    rep = theorem5_check(g3d, targets, 2.52, levels=[1, 2, 3])
    assert rep.zeta == pytest.approx(4.846153846153846, rel=1e-12)
    assert rep.spread == pytest.approx(4.96426432880315, rel=1e-6)
    assert rep.max_constant == max(rep.constants)
    assert all(c > 0 for c in rep.constants)
    assert rep.sensitivity > 0


def test_theorem5_requires_transient_exponent(g3d):
    with pytest.raises(HypothesisError, match="spectral dimension"):
        theorem5_check(g3d, [np.array([0])], 2.0, levels=[1, 2, 3])


def test_theorem5_rejects_divergent_tail(g4):
    with pytest.raises(HypothesisError):
        theorem5_check(g4, [np.array([0])], 2.5, levels=[1, 2, 3, 4])
