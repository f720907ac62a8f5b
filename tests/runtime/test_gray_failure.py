"""Tests for evidence-based gray-failure detection and mitigation.

The DEGRADED health state must be reached *only* from observed
latencies — never by peeking at the fault injector — and mitigation
(degraded-last placement/scheduling, retry budgets, decorrelated
jitter) must bound the blast radius of fail-slow devices.
"""

import pytest

from repro.api import connect
from repro.dataflow import Job, WorkSpec, task
from repro.hardware import Cluster
from repro.runtime import (
    DegradationPolicy,
    HealthMonitor,
    HealthState,
    LatencyScorecard,
    RecoveryPolicy,
    RetryBudget,
)
from repro.runtime.health import MONITOR_UNHANDLED_KINDS
from repro.sim.faults import FaultKind
from repro.sim.rand import RandomStreams

#: Detector tuned for unit tests: judge fast, no peer quorum needed.
FAST_DETECT = DegradationPolicy(min_samples=3, min_peers=99)


@pytest.fixture
def cluster():
    return Cluster.preset("pooled-rack")


def feed(monitor, target, ratio, n=4):
    for _ in range(n):
        monitor.observe_latency(target, ratio * 100.0, 100.0)


class TestScorecard:
    def test_window_rolls(self):
        card = LatencyScorecard(window=4)
        for ratio in (1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0):
            card.observe("d", ratio * 10.0, 10.0)
        assert card.score("d") == pytest.approx(9.0)
        assert card.samples("d") == 4

    def test_bad_samples_ignored(self):
        card = LatencyScorecard()
        card.observe("d", 10.0, 0.0)  # zero expectation
        card.observe("d", -1.0, 10.0)  # negative observation
        assert card.score("d") is None

    def test_quantiles_interpolate(self):
        card = LatencyScorecard()
        for ratio in (1.0, 2.0, 3.0, 4.0):
            card.observe("d", ratio, 1.0)
        assert card.ratio_quantile("d", 0.0) == 1.0
        assert card.ratio_quantile("d", 1.0) == 4.0
        assert card.ratio_quantile("d", 0.5) == pytest.approx(2.5)
        assert card.ratio_quantile("missing", 0.5) is None

    def test_window_validation(self):
        with pytest.raises(ValueError):
            LatencyScorecard(window=0)


class TestDetection:
    def test_slow_evidence_marks_degraded(self, cluster):
        monitor = HealthMonitor(cluster, degradation=FAST_DETECT)
        feed(monitor, "dram-pool0", ratio=4.0)
        assert monitor.state("dram-pool0") is HealthState.DEGRADED
        assert monitor.is_degraded("dram-pool0")
        assert monitor.stats.degraded_detected == 1
        assert cluster.obs.counter("health.degraded_events").value == 1

    def test_detection_needs_min_samples(self, cluster):
        monitor = HealthMonitor(cluster, degradation=FAST_DETECT)
        feed(monitor, "dram-pool0", ratio=4.0, n=2)  # below min_samples=3
        assert monitor.state("dram-pool0") is HealthState.UP

    def test_healthy_ratios_never_flag(self, cluster):
        monitor = HealthMonitor(cluster, degradation=FAST_DETECT)
        feed(monitor, "dram-pool0", ratio=1.2, n=50)
        assert monitor.state("dram-pool0") is HealthState.UP

    def test_clears_with_hysteresis(self, cluster):
        monitor = HealthMonitor(cluster, degradation=FAST_DETECT)
        feed(monitor, "dram-pool0", ratio=4.0)
        assert monitor.is_degraded("dram-pool0")
        # Ratios between clear (1.5) and degrade (2.5): still flagged.
        feed(monitor, "dram-pool0", ratio=2.0, n=FAST_DETECT.window)
        assert monitor.is_degraded("dram-pool0")
        feed(monitor, "dram-pool0", ratio=1.0, n=FAST_DETECT.window)
        assert not monitor.is_degraded("dram-pool0")
        assert monitor.stats.degradations_cleared == 1

    def test_peer_outlier_gate_spares_uniform_slowness(self, cluster):
        """Congestion, not gray failure: once a slow *cohort* is
        established, an equally-slow newcomer is no outlier under the
        MAD gate and stays UP.  (The first crossers of min_samples have
        no judged peers yet, so the absolute threshold governs them —
        the gate's guarantee is peer-relative, not global.)"""
        policy = DegradationPolicy(min_samples=3, min_peers=4)
        monitor = HealthMonitor(cluster, degradation=policy)
        for name in ("dram-pool1", "cxl-exp0", "pmem-pool0", "far0",
                     "ssd0"):
            feed(monitor, name, ratio=4.0)
        feed(monitor, "dram-pool0", ratio=4.0)
        assert not monitor.is_degraded("dram-pool0")

    def test_true_outlier_is_flagged_among_healthy_peers(self, cluster):
        policy = DegradationPolicy(min_samples=3, min_peers=4)
        monitor = HealthMonitor(cluster, degradation=policy)
        for name in ("dram-pool1", "cxl-exp0", "pmem-pool0", "far0", "ssd0"):
            feed(monitor, name, ratio=1.1)
        feed(monitor, "dram-pool0", ratio=4.0)
        assert monitor.degraded_devices() == ["dram-pool0"]

    def test_transfer_evidence_charges_ports_to_devices(self, cluster):
        monitor = HealthMonitor(cluster, degradation=FAST_DETECT)
        route, effective = cluster.transfer_route(
            "dram-pool0", "dram-pool1", 1024.0)
        for _ in range(4):
            monitor.observe_transfer(route, 400.0, 100.0)
        # Port links resolve to their owning devices...
        assert monitor.is_degraded("dram-pool0")
        assert monitor.is_degraded("dram-pool1")
        # ...while pure fabric links are flagged as links.
        assert monitor.degraded_links()

    def test_degraded_outranked_by_real_failures(self, cluster):
        monitor = HealthMonitor(cluster, detection_delay_ns=0.0,
                                degradation=FAST_DETECT)
        cluster.crash_node("mem-shelf")
        assert monitor.state("dram-pool0") is HealthState.DOWN
        feed(monitor, "dram-pool0", ratio=4.0)
        assert monitor.state("dram-pool0") is HealthState.DOWN  # unchanged

    def test_degraded_devices_stay_usable_but_last(self, cluster):
        monitor = HealthMonitor(cluster, degradation=FAST_DETECT)
        feed(monitor, "dram-pool0", ratio=4.0)
        assert monitor.can_use("dram-pool0")
        assert "dram-pool0" in monitor.up_devices()

    def test_detection_off_by_default(self, cluster):
        monitor = HealthMonitor(cluster)
        feed(monitor, "dram-pool0", ratio=100.0, n=50)
        assert monitor.state("dram-pool0") is HealthState.UP
        assert monitor.latency_ratio_quantile("dram-pool0", 0.99) is None


class TestNoCheating:
    def test_monitor_handles_or_disclaims_every_fault_kind(self, cluster):
        """Exhaustiveness matrix: every FaultKind is either handled by
        the HealthMonitor or explicitly allow-listed, so adding a kind
        without deciding is a test failure, not a silent no-op."""
        monitor = HealthMonitor(cluster)
        handled = {
            kind
            for kind, handlers in cluster.faults._handlers.items()
            if any(
                getattr(h, "__self__", None) is monitor for h in handlers
            )
        }
        assert handled.isdisjoint(MONITOR_UNHANDLED_KINDS)
        missing = set(FaultKind) - handled - MONITOR_UNHANDLED_KINDS
        assert not missing, f"undecided FaultKinds: {sorted(m.value for m in missing)}"

    def test_gray_kinds_never_reach_the_monitor(self, cluster):
        """Injecting fail-slow faults must not move health state: only
        observed latency evidence may."""
        monitor = HealthMonitor(cluster, degradation=FAST_DETECT)
        cluster.faults.inject_now(FaultKind.DEVICE_SLOW, "dram-pool0",
                                  factor=0.001)
        cluster.faults.inject_now(FaultKind.DEVICE_SLOW, "cpu1",
                                  factor=0.001)
        assert monitor.degraded_devices() == []
        assert monitor.state("dram-pool0") is HealthState.UP
        assert monitor.state("cpu1") is HealthState.UP


class TestDegradedLastPreference:
    def test_placement_avoids_degraded_devices(self, cluster):
        from repro.memory.manager import MemoryManager
        from repro.memory.properties import MemoryProperties
        from repro.runtime import CostModel, DeclarativePlacement
        from repro.runtime.placement import PlacementRequest

        monitor = HealthMonitor(cluster, degradation=FAST_DETECT)
        manager = MemoryManager(cluster)
        placement = DeclarativePlacement(
            cluster, manager, CostModel(cluster))
        request = PlacementRequest(
            size=1024, properties=MemoryProperties(),
            owner="t", observers=("cpu1",), name="r")
        baseline = placement.choose_device(request).name
        feed(monitor, baseline, ratio=4.0)
        assert placement.choose_device(request).name != baseline
        # Clears -> back to the cost-optimal winner.
        feed(monitor, baseline, ratio=1.0, n=FAST_DETECT.window)
        assert placement.choose_device(request).name == baseline

    def test_scheduler_avoids_degraded_compute(self, cluster):
        from repro.dataflow.graph import Task
        from repro.runtime import Scheduler

        monitor = HealthMonitor(cluster, degradation=FAST_DETECT)
        probe = Task("t", work=WorkSpec(ops=1e4))
        names = {d.name for d in Scheduler.candidates(probe, cluster)}
        victim = sorted(names)[0]
        feed(monitor, victim, ratio=4.0)
        assert victim not in {
            d.name for d in Scheduler.candidates(probe, cluster)
        }
        # Degrade everything: the preference collapses rather than
        # leaving the scheduler with nothing.
        for name in names:
            feed(monitor, name, ratio=4.0)
        assert {d.name for d in Scheduler.candidates(probe, cluster)} == names


class TestRetryBudget:
    def test_tokens_bound_spending(self):
        budget = RetryBudget(2)
        assert budget.try_spend(0.0)
        assert budget.try_spend(10.0)
        assert not budget.try_spend(20.0)
        assert budget.spent == 2
        assert budget.denied == 1

    def test_refill_restores_tokens(self):
        budget = RetryBudget(1, refill_per_ns=0.001)
        assert budget.try_spend(0.0)
        assert not budget.try_spend(1.0)
        assert budget.try_spend(2000.0)  # 2 ns x 0.001 tokens/ns >= 1

    def test_deadline_denies_everything_after(self):
        budget = RetryBudget(100, deadline_ns=1_000.0)
        assert budget.try_spend(999.0)
        assert not budget.try_spend(1_000.0)
        assert budget.tokens == pytest.approx(99.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(-1)
        with pytest.raises(ValueError):
            RetryBudget(1, refill_per_ns=-0.1)

    def test_policy_factory(self):
        assert RecoveryPolicy().make_retry_budget() is None
        budget = RecoveryPolicy(
            retry_budget_tokens=3, retry_deadline_ns=50.0,
        ).make_retry_budget()
        assert budget.capacity == 3
        assert budget.deadline_ns == 50.0

    def test_exhausted_budget_fails_the_job(self):
        cluster = Cluster.preset("pooled-rack")
        HealthMonitor(cluster, detection_delay_ns=1_000.0)
        session = connect(cluster=cluster, recovery=RecoveryPolicy(
            max_task_attempts=10, backoff_base_ns=10.0,
            retry_budget_tokens=2.0,
        ))
        job = Job("stormy")

        @task(job, name="t0", work=WorkSpec(ops=1e4))
        def t0(ctx):
            yield from ctx.sleep(10.0)
            from repro.sim.flows import TransferTimeout
            raise TransferTimeout(1.0, 1.0)  # recoverable every time

        execution = session.submit(job).execution
        with pytest.raises(BaseException):
            cluster.engine.run(until=execution.done)
        # 1 initial + 2 budgeted retries, then the denial fails the job
        # well short of max_task_attempts.
        assert execution.stats.tasks["t0"].attempts == 3
        assert cluster.obs.counter("recovery.budget_denied").value == 1


class TestDecorrelatedJitter:
    def test_jitter_off_reproduces_legacy_schedule(self):
        policy = RecoveryPolicy(jitter=False, backoff_base_ns=100.0)
        rng = RandomStreams(1).stream("x")
        assert policy.jittered_backoff_ns(1, rng) == policy.backoff_ns(1)
        assert policy.jittered_backoff_ns(3, rng) == policy.backoff_ns(3)

    def test_jitter_bounded_by_base_and_cap(self):
        policy = RecoveryPolicy(backoff_base_ns=100.0, max_backoff_ns=500.0)
        rng = RandomStreams(2).stream("x")
        prev = 0.0
        for attempt in range(1, 20):
            delay = policy.jittered_backoff_ns(attempt, rng, prev)
            assert 100.0 <= delay <= 500.0
            prev = delay

    def test_cofailed_jobs_wake_on_distinct_ticks(self):
        """Regression: pre-jitter, two tasks failed by one fault would
        back off identically and collide on the same wake tick (then
        re-collide on the same recovering device).  Per-job seeded
        streams must decorrelate them while staying deterministic."""
        policy = RecoveryPolicy(backoff_base_ns=1_000.0)

        def delays(seed):
            streams = RandomStreams(seed)
            return [
                policy.jittered_backoff_ns(
                    1, streams.stream(f"retry-jitter:{job}"))
                for job in ("left", "right", "up", "down")
            ]

        first = delays(7)
        assert len(set(first)) == len(first)  # no collisions
        assert first == delays(7)  # deterministic per seed

    def test_rts_records_jittered_backoff_per_job(self):
        """End to end: two jobs co-failed by one node crash sleep
        different backoffs (TaskStats.last_backoff_ns)."""
        cluster = Cluster.preset("pooled-rack")
        HealthMonitor(cluster, detection_delay_ns=1_000.0)
        session = connect(cluster=cluster, recovery=RecoveryPolicy(
            backoff_base_ns=5_000.0))

        def sleeper(name):
            job = Job(name)

            @task(job, name="t0", work=WorkSpec(ops=1e4))
            def t0(ctx):
                yield from ctx.sleep(200_000.0)

            return job

        left = session.submit(sleeper("left")).execution
        right = session.submit(sleeper("right")).execution
        victims = {left.assignment["t0"], right.assignment["t0"]}
        nodes = {cluster.node_of(v) for v in victims}
        for node in nodes:
            cluster.faults.inject_at(50_000.0, FaultKind.NODE_CRASH, node)
        cluster.engine.run(
            until=cluster.engine.all_of([left.done, right.done]))
        backoffs = {
            left.stats.tasks["t0"].last_backoff_ns,
            right.stats.tasks["t0"].last_backoff_ns,
        }
        assert all(b > 0.0 for b in backoffs)
        assert len(backoffs) == 2  # decorrelated wake ticks
