"""Tests: the physical trainer really converges, with real sim costs."""

import numpy as np
import pytest

from repro.apps.ml_exec import LinearTrainer, make_regression_data
from repro.hardware import Cluster
from repro.hardware.spec import ComputeKind
from repro.api import connect


@pytest.fixture
def session():
    return connect(cluster=Cluster.preset("pooled-rack", seed=91))


class TestTraining:
    def test_converges_on_linear_data(self, session):
        rng = np.random.default_rng(0)
        X, y, true_w = make_regression_data(rng, n_samples=2000, noise=0.05)
        trainer = LinearTrainer(session, epochs=8, learning_rate=0.1)
        result = trainer.fit(X, y)
        assert result.stats.ok
        assert result.final_loss < 0.05
        # Standardized-space weights correlate with the ground truth.
        correlation = np.corrcoef(result.weights, true_w)[0, 1]
        assert correlation > 0.99

    def test_loss_decreases_monotonically_early(self, session):
        rng = np.random.default_rng(1)
        X, y, _w = make_regression_data(rng)
        result = LinearTrainer(session, epochs=6, learning_rate=0.1).fit(X, y)
        losses = result.loss_per_epoch
        assert len(losses) == 6
        assert losses[1] < losses[0]
        assert losses[-1] <= losses[2]

    def test_epochs_run_on_requested_accelerator(self, session):
        rng = np.random.default_rng(2)
        X, y, _w = make_regression_data(rng, n_samples=500)
        result = LinearTrainer(
            session, epochs=2, accelerator=ComputeKind.TPU).fit(X, y)
        for epoch in range(2):
            device = session.cluster.compute[result.stats.assignment[f"epoch{epoch}"]]
            assert device.kind is ComputeKind.TPU

    def test_simulated_cost_scales_with_data(self):
        times = {}
        for n in (500, 5000):
            session = connect(cluster=Cluster.preset("pooled-rack", seed=92))
            rng = np.random.default_rng(3)
            X, y, _w = make_regression_data(rng, n_samples=n)
            result = LinearTrainer(session, epochs=2).fit(X, y)
            times[n] = result.stats.makespan
        assert times[5000] > times[500] * 2

    def test_no_leaks(self, session):
        rng = np.random.default_rng(4)
        X, y, _w = make_regression_data(rng, n_samples=500)
        LinearTrainer(session, epochs=2).fit(X, y)
        assert session.rts.memory.live_regions() == []

    def test_validation(self, session):
        with pytest.raises(ValueError):
            LinearTrainer(session, epochs=0)
        with pytest.raises(ValueError):
            LinearTrainer(session, learning_rate=0.0)
        trainer = LinearTrainer(session)
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((4, 2)), np.zeros(5))
