import numpy as np
import pytest

from carpetlab.geometry import box_vertices
from carpetlab.linalg import ConvergenceError, DirichletSystem

from conftest import make_path


def test_direct_path_matches_cg(g4):
    # One reused system takes the SuperLU path from its second solve on; each
    # column is checked against a fresh system's one-shot CG solve.
    part = box_vertices(g4, 4)
    reused = DirichletSystem(g4, part.interior, part.boundary)
    # boundary vertices with an interior neighbor carry nonzero data
    touching = [c for c, b in enumerate(part.boundary)
                if np.isin(g4.neighbors(int(b)), part.interior).any()]
    for i, col in enumerate(touching[:: len(touching) // 6][:6]):
        g = np.zeros(len(part.boundary))
        g[col] = 1.0
        direct, info = reused.solve(g)
        assert (info.iterations == 0) == (i > 0)
        assert info.residual < 1e-10
        fresh = DirichletSystem(g4, part.interior, part.boundary)
        cg_values, cg_info = fresh.solve(g)
        assert cg_info.iterations > 0
        assert fresh._factor is None
        np.testing.assert_allclose(direct, cg_values, rtol=0.0, atol=1e-9)
    assert reused._factor is not None


def test_poisson_rhs_on_direct_path(g3):
    # Right-hand sides on the unknowns go through the factor too.
    part = box_vertices(g3, 2)
    system = DirichletSystem(g3, part.interior, part.boundary)
    g = np.zeros(len(part.boundary))
    rhs = g3.degrees[part.interior].astype(np.float64)
    first, _ = system.solve(g, rhs=rhs)
    second, info = system.solve(g, rhs=rhs)
    assert info.iterations == 0
    np.testing.assert_allclose(second, first, rtol=1e-9)


def test_singular_system_raises(g2):
    # No fixed vertex: the Laplacian is singular, so neither backend converges.
    system = DirichletSystem(g2, np.arange(g2.num_vertices), [])
    rhs = np.zeros(g2.num_vertices)
    rhs[0] = 1.0
    with pytest.raises(ConvergenceError, match="CG stalled") as cg_err:
        system.solve(np.zeros(0), rhs=rhs)
    assert cg_err.value.residuals
    with pytest.raises(ConvergenceError, match=f"SuperLU.*{g2.num_vertices} unknowns"):
        system.solve(np.zeros(0), rhs=rhs)


def test_exactly_singular_factor_raises():
    # Consistent data lets CG converge on the singular path Laplacian; the
    # second solve's factor then hits an exactly zero pivot.
    system = DirichletSystem(make_path(3), np.arange(3), [])
    rhs = np.array([1.0, 0.0, -1.0])
    system.solve(np.zeros(0), rhs=rhs)
    with pytest.raises(ConvergenceError, match="SuperLU factor failed on 3 unknowns"):
        system.solve(np.zeros(0), rhs=rhs)
