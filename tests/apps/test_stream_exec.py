"""Tests for the pipelined streaming executor."""

import pytest

from repro import TenantQuota, connect
from repro.apps import build_hospital_job
from repro.apps.stream_exec import StreamExecutor, StreamStats, WindowRecord
from repro.hardware import Cluster

KiB = 1024


def hospital_template(index: int):
    job = build_hospital_job(n_frames=8)
    job.name = f"window-{index}"
    return job


@pytest.fixture
def session():
    return connect(cluster=Cluster.preset("pooled-rack", seed=83))


class TestStreamExecutor:
    def test_all_windows_complete_with_queueing(self, session):
        executor = StreamExecutor(session, hospital_template, max_in_flight=2)
        stats = executor.run(n_windows=10, interval_ns=50_000.0)
        assert stats.completed == 10
        assert stats.dropped == 0
        assert session.rts.memory.live_regions() == []

    def test_pipelining_beats_serial_throughput(self):
        horizons = {}
        for in_flight in (1, 3):
            session = connect(cluster=Cluster.preset("pooled-rack", seed=84))
            executor = StreamExecutor(
                session, hospital_template, max_in_flight=in_flight)
            executor.run(n_windows=8, interval_ns=10_000.0)
            horizons[in_flight] = session.cluster.engine.now
        assert horizons[3] < horizons[1]

    def test_queue_policy_latency_grows_under_overload(self, session):
        """Arrivals faster than service: queued windows wait longer and
        longer — the textbook backpressure signature."""
        executor = StreamExecutor(session, hospital_template, max_in_flight=1,
                                  backpressure="queue")
        stats = executor.run(n_windows=8, interval_ns=20_000.0)
        assert stats.completed == 8
        latencies = [w.latency for w in stats.windows]
        assert latencies[-1] > latencies[0] * 2

    def test_drop_policy_bounds_latency(self, session):
        executor = StreamExecutor(session, hospital_template, max_in_flight=1,
                                  backpressure="drop")
        stats = executor.run(n_windows=12, interval_ns=20_000.0)
        assert stats.dropped > 0
        assert stats.completed + stats.dropped == 12
        # Completed windows never waited in a queue.
        max_latency = max(w.latency for w in stats.windows if w.completed)
        queueing = StreamExecutor(
            connect(cluster=Cluster.preset("pooled-rack", seed=83)),
            hospital_template, max_in_flight=1, backpressure="queue")
        q_stats = queueing.run(n_windows=12, interval_ns=20_000.0)
        assert max_latency < max(w.latency for w in q_stats.windows if w.completed)

    def test_session_windows_queued_behind_admission_complete(self):
        # The admission gate is narrower than the pipeline, so most
        # windows wait in the admission queue before their job runs.
        with connect("pooled-rack", seed=83, max_concurrent=1) as session:
            executor = StreamExecutor(session, hospital_template,
                                      max_in_flight=3)
            stats = executor.run(n_windows=6, interval_ns=1_000.0)
            handles = {j.name: j for j in session.driver.stats.jobs}
            assert max(j.queue_wait for j in handles.values()) > 0
        assert stats.completed == 6
        for window in stats.windows:
            handle = handles[f"window-{window.index}"]
            assert window.finished_at == handle.finished_at

    def test_session_shed_window_counts_as_dropped(self):
        with connect("pooled-rack", seed=83) as session:
            session.register_tenant(
                "tiny", quota=TenantQuota(memory_bytes=1 * KiB))

            def template(index):
                job = hospital_template(index)
                job.tenant = "tiny" if index == 1 else None
                return job

            executor = StreamExecutor(session, template, max_in_flight=2)
            stats = executor.run(n_windows=3, interval_ns=1_000.0)
        assert [w.dropped for w in stats.windows] == [False, True, False]
        assert stats.completed == 2

    def test_percentiles(self):
        stats = StreamStats()
        for i, latency in enumerate([10.0, 20.0, 30.0, 40.0]):
            record = WindowRecord(i, arrived_at=0.0)
            record.finished_at = latency
            stats.windows.append(record)
        assert stats.percentile(0) == 10.0
        assert stats.percentile(100) == 40.0
        assert stats.percentile(50) == pytest.approx(25.0)
        with pytest.raises(ValueError):
            stats.percentile(120)

    def test_empty_stats(self):
        stats = StreamStats()
        assert stats.percentile(50) == 0.0
        assert stats.throughput_per_s(1e9) == 0.0

    def test_validation(self, session):
        with pytest.raises(ValueError):
            StreamExecutor(session, hospital_template, max_in_flight=0)
        with pytest.raises(ValueError):
            StreamExecutor(session, hospital_template, backpressure="explode")
        executor = StreamExecutor(session, hospital_template)
        with pytest.raises(ValueError):
            executor.run(n_windows=0, interval_ns=100.0)
