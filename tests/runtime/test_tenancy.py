"""Tests for multi-tenant QoS: priorities, quotas, fair queueing,
preemption (the PR-5 tenancy layer over the rack driver)."""

import pytest

from repro.api import Session
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.hardware import Cluster
from repro.runtime import RuntimeSystem
from repro.runtime.admission import RackDriver
from repro.runtime.tenancy import (
    DEFAULT_TENANT,
    Preempted,
    PriorityClass,
    Tenant,
    TenantQuota,
    TenantRegistry,
    coerce_priority,
    estimate_job_footprint,
)

KiB = 1024
MiB = 1024 * KiB


def small_job(name: str, payload=2 * MiB, ops=1e5):
    def factory():
        job = Job(name)
        a = job.add_task(Task("a", work=WorkSpec(
            ops=ops, output=RegionUsage(payload))))
        b = job.add_task(Task("b", work=WorkSpec(
            ops=ops, input_usage=RegionUsage(0))))
        job.connect(a, b)
        return job

    return factory


@pytest.fixture
def rts():
    return RuntimeSystem(Cluster.preset("pooled-rack", seed=41))


class TestPriorityClass:
    def test_order_is_strict(self):
        assert PriorityClass.INTERACTIVE < PriorityClass.BATCH
        assert PriorityClass.BATCH < PriorityClass.BEST_EFFORT

    def test_coerce_accepts_enum_str_int(self):
        assert coerce_priority(PriorityClass.BATCH) is PriorityClass.BATCH
        assert coerce_priority("interactive") is PriorityClass.INTERACTIVE
        assert coerce_priority("BEST_EFFORT") is PriorityClass.BEST_EFFORT
        assert coerce_priority("best-effort") is PriorityClass.BEST_EFFORT
        assert coerce_priority(" batch ") is PriorityClass.BATCH
        assert coerce_priority(0) is PriorityClass.INTERACTIVE

    @pytest.mark.parametrize("bad", ["urgent", 7, 2.5, None])
    def test_coerce_rejects_nonsense(self, bad):
        with pytest.raises(ValueError):
            coerce_priority(bad)

    def test_preempted_carries_the_winner(self):
        exc = Preempted(by="web-1")
        assert exc.by == "web-1"


class TestTenantQuota:
    def test_defaults_are_unlimited(self):
        quota = TenantQuota()
        assert quota.memory_bytes is None
        assert quota.compute_share is None
        assert quota.max_running is None

    @pytest.mark.parametrize("kwargs", [
        {"memory_bytes": 0}, {"memory_bytes": -1.0},
        {"compute_share": 0.0}, {"compute_share": -0.5},
        {"max_running": 0},
        {"burst_ns": -1.0},
        {"bucket_cap_ns": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TenantQuota(**kwargs)

    def test_bucket_refills_at_share_and_caps(self):
        tenant = Tenant("t", quota=TenantQuota(
            compute_share=0.5, bucket_cap_ns=100.0))
        tenant.refill(1000.0)
        assert tenant.bucket_ns == pytest.approx(100.0)  # capped, not 500
        tenant.spend(400.0)
        assert tenant.bucket_ns == pytest.approx(-300.0)
        tenant.refill(1200.0)  # +0.5 * 200
        assert tenant.bucket_ns == pytest.approx(-200.0)

    def test_bucket_noop_without_share(self):
        tenant = Tenant("t")
        tenant.refill(1e9)
        tenant.spend(1e9)
        assert tenant.bucket_ns == 0.0


class TestTenantRegistry:
    def test_default_tenant_prewired(self):
        registry = TenantRegistry()
        assert DEFAULT_TENANT in registry
        assert registry.get(None).name == DEFAULT_TENANT

    def test_register_rejects_duplicates(self):
        registry = TenantRegistry()
        registry.register("web", weight=2.0)
        with pytest.raises(ValueError):
            registry.register("web")

    def test_get_autocreates_with_defaults(self):
        registry = TenantRegistry()
        tenant = registry.get("walkin")
        assert tenant.weight == 1.0
        assert tenant.priority is PriorityClass.BATCH
        assert registry.get("walkin") is tenant

    def test_iteration_is_name_sorted(self):
        registry = TenantRegistry()
        registry.register("zeta")
        registry.register("alpha")
        assert [t.name for t in registry] == ["alpha", "default", "zeta"]

    def test_tenant_validation(self):
        with pytest.raises(ValueError):
            Tenant("")
        with pytest.raises(ValueError):
            Tenant("t", weight=0.0)


class TestFootprint:
    def test_sums_state_scratch_and_outputs(self):
        job = Job("fp", global_state_size=64 * KiB)
        job.add_task(Task("a", work=WorkSpec(
            ops=1e5, scratch=RegionUsage(1 * MiB),
            output=RegionUsage(2 * MiB))))
        job.add_task(Task("b", work=WorkSpec(
            ops=1e5, input_usage=RegionUsage(8 * MiB),  # not charged
            output=RegionUsage(4 * MiB))))
        assert estimate_job_footprint(job) == 64 * KiB + 7 * MiB


class TestWeightedFairQueueing:
    def test_weights_shape_admission_order(self, rts):
        registry = TenantRegistry()
        registry.register("heavy", weight=3.0)
        registry.register("light", weight=1.0)
        driver = RackDriver(rts, max_concurrent=1, tenants=registry)
        arrivals = []
        for i in range(8):
            arrivals.append((0.0, f"h{i}", small_job(f"h{i}"), "heavy"))
        for i in range(4):
            arrivals.append((0.0, f"l{i}", small_job(f"l{i}"), "light"))
        stats = Session(rts, driver).run_trace(arrivals)
        assert stats.completed == 12
        first8 = sorted(stats.jobs, key=lambda j: j.admission_index)[:8]
        heavy = sum(1 for j in first8 if j.tenant == "heavy")
        # 3:1 weights => ~6 of the first 8 slots go to the heavy tenant.
        assert heavy >= 5

    def test_single_tenant_degenerates_to_fifo(self, rts):
        driver = RackDriver(rts, max_concurrent=1)
        arrivals = [(i * 1000.0, f"j{i}", small_job(f"j{i}"))
                    for i in range(6)]
        stats = Session(rts, driver).run_trace(arrivals)
        order = sorted(stats.jobs, key=lambda j: j.admission_index)
        assert [j.name for j in order] == [f"j{i}" for i in range(6)]

    def test_strict_priority_jumps_the_backlog(self, rts):
        registry = TenantRegistry()
        registry.register("bulk", priority="best_effort")
        registry.register("web", priority="interactive")
        driver = RackDriver(rts, max_concurrent=1,
                            enable_preemption=False, tenants=registry)
        arrivals = [(0.0, f"bulk{i}", small_job(f"bulk{i}"), "bulk")
                    for i in range(5)]
        arrivals.append((1000.0, "web0", small_job("web0"), "web"))
        stats = Session(rts, driver).run_trace(arrivals)
        web = next(j for j in stats.jobs if j.name == "web0")
        order = sorted(stats.jobs, key=lambda j: j.admission_index)
        # One bulk job was already running; the web job takes the very
        # next slot despite four queued bulk arrivals ahead of it.
        assert order[1] is web

    def test_fifo_policy_ignores_priority(self, rts):
        registry = TenantRegistry()
        registry.register("bulk", priority="best_effort")
        registry.register("web", priority="interactive")
        driver = RackDriver(rts, max_concurrent=1, policy="fifo",
                            enable_preemption=False, tenants=registry)
        arrivals = [(0.0, f"bulk{i}", small_job(f"bulk{i}"), "bulk")
                    for i in range(5)]
        arrivals.append((1000.0, "web0", small_job("web0"), "web"))
        stats = Session(rts, driver).run_trace(arrivals)
        web = next(j for j in stats.jobs if j.name == "web0")
        assert web.admission_index == 5  # strict arrival order


class TestQuotas:
    def test_max_running_capped(self, rts):
        registry = TenantRegistry()
        registry.register("capped", quota=TenantQuota(max_running=1))
        driver = RackDriver(rts, max_concurrent=8, tenants=registry)
        arrivals = [(0.0, f"j{i}", small_job(f"j{i}"), "capped")
                    for i in range(4)]
        stats = Session(rts, driver).run_trace(arrivals)
        assert stats.completed == 4
        assert registry.get("capped").quota_deferrals > 0
        # With the cap the jobs serialized: each admission follows the
        # previous job's finish.
        order = sorted(stats.jobs, key=lambda j: j.admission_index)
        for prev, cur in zip(order, order[1:]):
            assert cur.admitted_at >= prev.finished_at

    def test_impossible_memory_quota_sheds(self, rts):
        registry = TenantRegistry()
        registry.register("tiny", quota=TenantQuota(memory_bytes=1 * KiB))
        driver = RackDriver(rts, max_concurrent=8, tenants=registry)
        handle = driver.submit_job("huge", small_job("huge", payload=8 * MiB),
                                   tenant="tiny")
        rts.cluster.engine.run()
        assert handle.shed
        assert registry.get("tiny").shed == 1

    def test_compute_share_throttles_followup(self, rts):
        registry = TenantRegistry()
        registry.register("metered", quota=TenantQuota(compute_share=0.05))
        driver = RackDriver(rts, max_concurrent=8, tenants=registry,
                            quota_retry_ns=10_000.0)
        # The bucket is debited at completion, so arrive after the
        # first (heavy) job has finished and booked its debt.
        arrivals = [
            (0.0, "j0", small_job("j0", ops=1e6), "metered"),
            (500_000.0, "j1", small_job("j1"), "metered"),
        ]
        stats = Session(rts, driver).run_trace(arrivals)
        assert stats.completed == 2
        metered = registry.get("metered")
        assert metered.quota_deferrals > 0
        order = sorted(stats.jobs, key=lambda j: j.admission_index)
        # Job 2 had to wait for the bucket to amortize job 1's debt.
        assert order[1].admitted_at > order[1].arrived_at

    def test_tenant_report_shape(self, rts):
        driver = RackDriver(rts, max_concurrent=2)
        Session(rts, driver).run_trace([(0.0, "j0", small_job("j0"))])
        report = driver.tenant_report()
        assert DEFAULT_TENANT in report
        row = report[DEFAULT_TENANT]
        assert row["submitted"] == row["admitted"] == row["completed"] == 1
        assert row["share"] == pytest.approx(1.0)


class TestPreemption:
    @staticmethod
    def _registry():
        registry = TenantRegistry()
        registry.register("bulk", priority="best_effort")
        registry.register("web", weight=2.0, priority="interactive")
        return registry

    def test_interactive_arrival_preempts_best_effort(self, rts):
        registry = self._registry()
        driver = RackDriver(rts, max_concurrent=1, tenants=registry)
        arrivals = [
            (0.0, "bulk0", small_job("bulk0", ops=5e6), "bulk"),
            (50_000.0, "web0", small_job("web0"), "web"),
        ]
        stats = Session(rts, driver).run_trace(arrivals)
        assert stats.completed == 2  # the victim still finishes
        bulk = next(j for j in stats.jobs if j.name == "bulk0")
        web = next(j for j in stats.jobs if j.name == "web0")
        assert stats.preemptions == 1
        assert bulk.preemptions == 1
        assert bulk.execution.stats.preemptions == 1
        assert registry.get("bulk").preempted == 1
        assert registry.get("web").preemptions_won == 1
        # The web job did not wait for the long bulk job to drain.
        assert web.admitted_at == pytest.approx(50_000.0)
        assert web.finished_at < bulk.finished_at

    def test_preemption_disabled_means_waiting(self, rts):
        registry = self._registry()
        driver = RackDriver(rts, max_concurrent=1, tenants=registry,
                            enable_preemption=False)
        arrivals = [
            (0.0, "bulk0", small_job("bulk0", ops=5e6), "bulk"),
            (50_000.0, "web0", small_job("web0"), "web"),
        ]
        stats = Session(rts, driver).run_trace(arrivals)
        web = next(j for j in stats.jobs if j.name == "web0")
        bulk = next(j for j in stats.jobs if j.name == "bulk0")
        assert stats.preemptions == 0
        assert web.admitted_at >= bulk.finished_at

    def test_victim_preemptions_bounded(self, rts):
        registry = self._registry()
        driver = RackDriver(rts, max_concurrent=1, tenants=registry,
                            max_preemptions_per_job=1)
        arrivals = [(0.0, "bulk0", small_job("bulk0", ops=2e7), "bulk")]
        arrivals += [
            (30_000.0 * (i + 1), f"web{i}", small_job(f"web{i}"), "web")
            for i in range(4)
        ]
        stats = Session(rts, driver).run_trace(arrivals)
        bulk = next(j for j in stats.jobs if j.name == "bulk0")
        assert stats.completed == 5
        assert bulk.preemptions <= 1

    def test_batch_never_preempted(self, rts):
        registry = TenantRegistry()
        registry.register("steady", priority="batch")
        registry.register("web", priority="interactive")
        driver = RackDriver(rts, max_concurrent=1, tenants=registry)
        arrivals = [
            (0.0, "steady0", small_job("steady0", ops=5e6), "steady"),
            (50_000.0, "web0", small_job("web0"), "web"),
        ]
        stats = Session(rts, driver).run_trace(arrivals)
        assert stats.preemptions == 0
        web = next(j for j in stats.jobs if j.name == "web0")
        steady = next(j for j in stats.jobs if j.name == "steady0")
        assert web.admitted_at >= steady.finished_at
