"""Tests for the LingoDB-style cost-model calibration loop."""

import pytest

from repro.apps import build_query_job
from repro.hardware import Cluster
from repro.metrics import Profile
from repro.api import connect
from repro.runtime import CalibratedCostModel


def run_round(session, cm, cluster, tag, n_jobs=4):
    """Run n concurrent queries, feed their profiles to the model.

    Returns this round's (raw, corrected) mean error.
    """
    jobs = [build_query_job(n_rows=200_000) for _ in range(n_jobs)]
    for i, job in enumerate(jobs):
        job.name = f"{tag}{i}"
    samples0 = cm.stats.samples
    raw0, corrected0 = cm.stats.raw_error_sum, cm.stats.corrected_error_sum
    for stats in session.run(*jobs):
        cm.observe(Profile.from_run(cluster, stats), stats)
    n = cm.stats.samples - samples0
    assert n > 0
    return (
        (cm.stats.raw_error_sum - raw0) / n,
        (cm.stats.corrected_error_sum - corrected0) / n,
    )


@pytest.fixture
def env():
    cluster = Cluster.preset("pooled-rack", trace_categories={"profile"})
    session = connect(cluster=cluster)
    return cluster, session, CalibratedCostModel(cluster)


class TestCalibration:
    def test_uncontended_predictions_are_nearly_exact(self, env):
        """Single job: model and simulator share access_plan, so the raw
        error is small — the baseline sanity check."""
        cluster, session, cm = env
        stats = session.run(build_query_job(n_rows=200_000))
        cm.observe(Profile.from_run(cluster, stats), stats)
        assert cm.stats.raw_mape < 0.15

    def test_contention_learned_within_one_round(self, env):
        """Four concurrent queries quadruple the shared port's load; the
        corrected error must collapse while the raw error stays high."""
        cluster, session, cm = env
        run_round(session, cm, cluster, "warm")
        raw, corrected = run_round(session, cm, cluster, "steady")
        assert raw > 0.3  # contention makes the raw model wrong
        assert corrected < 0.1  # ...and the calibrated model right
        assert corrected < raw / 3

    def test_corrections_separate_patterns(self, env):
        """Bandwidth-bound sequential phases contend; latency-bound
        random phases do not.  The factors must reflect that split."""
        cluster, session, cm = env
        run_round(session, cm, cluster, "w")
        sequential = [
            factor for key, factor in cm.corrections().items()
            if key[-1] == "sequential"
        ]
        random_factors = [
            factor for key, factor in cm.corrections().items()
            if key[-1] == "random"
        ]
        assert sequential and random_factors
        assert max(sequential) > 2.0
        assert all(f == pytest.approx(1.0, abs=0.2) for f in random_factors)

    def test_corrected_estimates_feed_through_api(self, env):
        """access_time() reflects the learned factor."""
        from repro.dataflow.workspec import RegionUsage
        from repro.memory.interfaces import AccessPattern

        cluster, session, cm = env
        device = cluster.memory["dram-local1"]
        usage = RegionUsage(1 << 20, pattern=AccessPattern.SEQUENTIAL)
        before = cm.access_time("cpu1", device, usage)
        run_round(session, cm, cluster, "x")
        after = cm.access_time("cpu1", device, usage)
        key = ("memory", "cpu1", "dram-local1", "sequential")
        if key in cm.corrections():
            assert after == pytest.approx(before * cm.corrections()[key])

    def test_alpha_validated(self, env):
        cluster, _session, _cm = env
        with pytest.raises(ValueError):
            CalibratedCostModel(cluster, alpha=0.0)
        with pytest.raises(ValueError):
            CalibratedCostModel(cluster, alpha=1.5)

    def test_observe_ignores_foreign_and_empty_phases(self, env):
        cluster, session, cm = env
        stats = session.run(build_query_job(n_rows=100_000))
        profile = Profile.from_run(cluster, stats)
        # Corrupt a phase to reference an unknown task: must be skipped.
        profile.phases[0].task = "ghost"
        consumed = cm.observe(profile, stats)
        assert consumed < len([p for p in profile.phases
                               if p.kind in ("read", "write")]) + 1
