"""Tests: the distributed Jacobi solver really relaxes the field."""

import numpy as np
import pytest

from repro.apps.hpc_exec import JacobiSolver, jacobi_step, make_heat_problem
from repro.hardware import Cluster
from repro.api import connect


@pytest.fixture
def session():
    return connect(cluster=Cluster.preset("pooled-rack", seed=107))


class TestJacobi:
    def test_matches_serial_reference(self, session):
        """The distributed result is bit-identical to serial Jacobi."""
        grid = make_heat_problem(n=24)
        iterations = 6
        result = JacobiSolver(session, n_workers=3, iterations=iterations).solve(grid)

        reference = grid.copy()
        for _ in range(iterations):
            reference = jacobi_step(reference)
        assert np.allclose(result.field, reference)
        assert result.stats.ok

    def test_residuals_decrease(self, session):
        result = JacobiSolver(session, n_workers=4, iterations=8).solve(
            make_heat_problem(n=32))
        assert len(result.residuals) == 8
        assert result.residuals[-1] < result.residuals[0]

    def test_heat_diffuses_from_hot_edge(self, session):
        result = JacobiSolver(session, n_workers=2, iterations=10).solve(
            make_heat_problem(n=16, hot_edge=100.0))
        # Interior near the hot edge warmed up; far side stays cooler.
        assert result.field[1, 8] > result.field[13, 8] >= 0.0
        assert result.field[1, 8] > 10.0

    def test_convergence_flag(self, session):
        # An already-uniform field converges immediately.
        grid = np.full((8, 8), 5.0)
        result = JacobiSolver(session, n_workers=2, iterations=3).solve(grid)
        assert result.converged
        assert result.residuals[0] == pytest.approx(0.0)

    def test_workers_overlap_within_iteration(self, session):
        result = JacobiSolver(session, n_workers=4, iterations=2).solve(
            make_heat_problem(n=64))
        stats = result.stats
        first_wave = sorted(
            (s for name, s in stats.tasks.items() if name.startswith("it0-")),
            key=lambda s: s.started_at,
        )
        assert first_wave[1].started_at < first_wave[0].finished_at

    def test_no_leaks(self, session):
        JacobiSolver(session, n_workers=2, iterations=2).solve(make_heat_problem(8))
        assert session.rts.memory.live_regions() == []

    def test_validation(self, session):
        with pytest.raises(ValueError):
            JacobiSolver(session, n_workers=0)
        with pytest.raises(ValueError):
            JacobiSolver(session).solve(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            make_heat_problem(2)
