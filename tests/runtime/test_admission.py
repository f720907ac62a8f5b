"""Tests for the multi-tenant rack driver (admission + utilization)."""

import pytest

from repro.api import Session
from repro.dataflow import Job, RegionUsage, Task, WorkSpec, task
from repro.hardware import Cluster
from repro.runtime import RuntimeSystem
from repro.runtime.admission import RackDriver
from repro.runtime.health import HealthMonitor
from repro.runtime.tenancy import TenantQuota, TenantRegistry

KiB = 1024
MiB = 1024 * KiB


def small_job(name: str, payload=2 * MiB):
    def factory():
        job = Job(name)
        a = job.add_task(Task("a", work=WorkSpec(
            ops=1e5, output=RegionUsage(payload))))
        b = job.add_task(Task("b", work=WorkSpec(
            ops=1e5, input_usage=RegionUsage(0))))
        job.connect(a, b)
        return job

    return factory


@pytest.fixture
def rts():
    return RuntimeSystem(Cluster.preset("pooled-rack", seed=37))


class TestRackDriver:
    def test_all_jobs_complete(self, rts):
        driver = RackDriver(rts, max_concurrent=4)
        arrivals = [
            (i * 10_000.0, f"job{i}", small_job(f"job{i}")) for i in range(12)
        ]
        stats = Session(rts, driver).run_trace(arrivals)
        assert stats.completed == 12
        assert rts.memory.live_regions() == []

    def test_concurrency_cap_respected(self, rts):
        driver = RackDriver(rts, max_concurrent=2)
        arrivals = [(0.0, f"job{i}", small_job(f"job{i}")) for i in range(8)]
        stats = Session(rts, driver).run_trace(arrivals)
        assert stats.completed == 8
        assert stats.peak_concurrency <= 2

    def test_queueing_shows_up_as_wait(self, rts):
        tight = RackDriver(rts, max_concurrent=1)
        arrivals = [(0.0, f"job{i}", small_job(f"job{i}")) for i in range(6)]
        stats = Session(rts, tight).run_trace(arrivals)
        assert stats.mean_queue_wait > 0
        # Later arrivals waited longer than the first.
        waits = [j.queue_wait for j in stats.jobs]
        assert waits[-1] > waits[0]

    def test_wider_gate_reduces_wait(self):
        waits = {}
        for cap in (1, 8):
            rts = RuntimeSystem(Cluster.preset("pooled-rack", seed=38))
            driver = RackDriver(rts, max_concurrent=cap)
            arrivals = [(0.0, f"j{i}", small_job(f"j{i}")) for i in range(8)]
            waits[cap] = Session(rts, driver).run_trace(arrivals).mean_queue_wait
        assert waits[8] < waits[1]

    def test_utilization_sampled(self, rts):
        driver = RackDriver(rts, max_concurrent=4, sample_interval_ns=10_000.0)
        arrivals = [(0.0, f"job{i}", small_job(f"job{i}", payload=64 * MiB))
                    for i in range(4)]
        stats = Session(rts, driver).run_trace(arrivals)
        until = rts.cluster.engine.now
        polls = sum(w.count for w in stats.memory_utilization.windows())
        assert polls > 2
        assert 0.0 <= stats.mean_memory_utilization(until) < 1.0
        assert stats.memory_utilization.maximum > 0.0

    def test_arrival_times_honoured(self, rts):
        driver = RackDriver(rts, max_concurrent=8)
        arrivals = [(500_000.0, "late", small_job("late"))]
        stats = Session(rts, driver).run_trace(arrivals)
        assert stats.jobs[0].arrived_at == pytest.approx(500_000.0)
        assert stats.jobs[0].admitted_at >= 500_000.0

    def test_validation(self, rts):
        with pytest.raises(ValueError):
            RackDriver(rts, max_concurrent=0)
        with pytest.raises(ValueError):
            RackDriver(rts, memory_headroom=1.5)


def failing_job(name: str):
    job = Job(name)

    @task(job, name="crasher", work=WorkSpec(output=RegionUsage(4 * KiB)))
    def crasher(ctx):
        yield from ctx.sleep(25.0)
        raise RuntimeError("task crash")

    return job


def count_settles(handle):
    """Record the sim time of every firing of ``handle.settled``."""
    times = []
    handle.settled.add_callback(
        lambda event: times.append(event.engine.now)
    )
    return times


class TestSettledEvent:
    def test_fires_once_on_success(self, rts):
        driver = RackDriver(rts)
        handle = driver.submit_job("ok", small_job("ok"))
        times = count_settles(handle)
        rts.cluster.engine.run()
        assert handle.completed
        assert times == [handle.finished_at]

    def test_fires_once_on_task_failure(self, rts):
        driver = RackDriver(rts)
        handle = driver.submit_job("bad", failing_job("bad"))
        times = count_settles(handle)
        rts.cluster.engine.run()
        assert not handle.completed and not handle.shed
        assert times == [handle.finished_at]

    def test_fires_once_on_watermark_shed(self):
        cluster = Cluster.preset("pooled-rack")
        HealthMonitor(cluster, detection_delay_ns=0.0)
        rts = RuntimeSystem(cluster)
        driver = RackDriver(rts, shed_below_capacity_fraction=0.5)
        cluster.crash_node("stornode0")
        handle = driver.submit_job("doomed", small_job("doomed"))
        times = count_settles(handle)
        cluster.engine.run()
        assert handle.shed
        assert times == [handle.arrived_at]

    def test_fires_once_on_impossible_memory_quota(self, rts):
        registry = TenantRegistry()
        registry.register("tiny", quota=TenantQuota(memory_bytes=1 * KiB))
        driver = RackDriver(rts, tenants=registry)
        handle = driver.submit_job(
            "huge", small_job("huge", payload=8 * MiB), tenant="tiny",
        )
        times = count_settles(handle)
        rts.cluster.engine.run()
        assert handle.shed
        assert times == [handle.arrived_at]

    def test_settles_after_the_driver_repumps(self, rts):
        driver = RackDriver(rts, max_concurrent=1)
        first = driver.submit_job("first", small_job("first"))
        second = driver.submit_job("second", small_job("second"))
        seen = []
        first.settled.add_callback(
            lambda event: seen.append(second.admission_index)
        )
        rts.cluster.engine.run()
        # The freed slot went to the queued job before the first one
        # reported settled.
        assert seen == [1]
        assert second.completed


def pending(driver):
    """Handles neither admitted nor shed yet (the queued ground truth)."""
    return [
        j for j in driver.stats.jobs
        if j.admission_index is None and not j.shed
    ]


def shed_order(rts):
    return [
        e.fields["job"] for e in rts.cluster.obs.trace.events
        if e.category == "admission" and e.name == "shed"
    ]


class TestQueueBookkeeping:
    def test_only_non_empty_queues_are_kept(self, rts):
        registry = TenantRegistry()
        for i, name in enumerate(("t0", "t1", "t2", "t3", "t4")):
            registry.register(name, weight=1 + i)
        driver = RackDriver(rts, max_concurrent=2, tenants=registry)
        pump = driver._pump
        seen = []

        def checked_pump():
            pump()
            assert all(driver._queues.values())
            assert driver.queued_count == len(pending(driver))
            assert list(driver._active.values()) == sorted(
                driver._active.values(), key=lambda j: j.admission_index
            )
            seen.append(driver.queued_count)

        driver._pump = checked_pump
        arrivals = [
            (i * 2_000.0, f"j{i}", small_job(f"j{i}"), f"t{i % 5}")
            for i in range(30)
        ]
        stats = Session(rts, driver).run_trace(arrivals)
        assert stats.completed == 30
        assert max(seen) > 1  # queues really built up mid-run
        assert driver._queues == {} and driver.queued_count == 0
        assert driver._active == {}

    def test_memory_quota_sheds_in_sorted_tenant_order(self, rts):
        registry = TenantRegistry()
        driver = RackDriver(rts, max_concurrent=1, tenants=registry)
        driver.submit_job("running", small_job("running"), tenant="z")
        for tenant, jobs in (("c", 2), ("a", 2), ("b", 1)):
            for i in range(jobs):
                driver.submit_job(f"{tenant}{i}", small_job(f"{tenant}{i}"),
                                  tenant=tenant)
        assert driver.queued_count == 5
        for name in ("a", "b", "c"):
            registry.get(name).quota = TenantQuota(memory_bytes=1 * KiB)
        driver._pump()
        assert shed_order(rts) == ["a0", "a1", "b0", "c0", "c1"]
        assert driver._queues == {} and driver.queued_count == 0
        rts.cluster.engine.run()

    def test_watermark_sheds_in_sorted_tenant_order(self):
        cluster = Cluster.preset("pooled-rack")
        HealthMonitor(cluster, detection_delay_ns=0.0)
        rts = RuntimeSystem(cluster)
        driver = RackDriver(rts, max_concurrent=1,
                            shed_below_capacity_fraction=0.5)
        driver.submit_job("running", small_job("running"), tenant="z")
        for tenant, jobs in (("c", 1), ("a", 2), ("b", 2)):
            for i in range(jobs):
                driver.submit_job(f"{tenant}{i}", small_job(f"{tenant}{i}"),
                                  tenant=tenant)
        assert driver.queued_count == 5
        cluster.crash_node("stornode0")
        cluster.engine.run()
        assert shed_order(rts) == ["a0", "a1", "b0", "b1", "c0"]
        assert driver._queues == {} and driver.queued_count == 0
