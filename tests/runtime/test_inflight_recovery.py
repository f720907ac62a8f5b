"""In-flight recovery: task retries, re-placement, degraded reads,
transfer retries, and capacity-aware load shedding.

These are the data-plane halves of the recovery ladder: a job with a
:class:`RecoveryPolicy` must survive infrastructure faults by retrying
*only* the affected tasks — whole-job re-execution
(:class:`ResilientRuntime`) is the rung below, exercised elsewhere.
"""

import pytest

from repro.api import Session, connect
from repro.dataflow import Job, RegionUsage, Task, WorkSpec, task
from repro.ft import OutputBackupStore
from repro.hardware import Cluster
from repro.runtime import (
    HealthMonitor,
    RackDriver,
    RecoveryPolicy,
    RuntimeSystem,
)
from repro.sim.faults import FaultKind
from repro.sim.flows import LinkDown, TransferTimeout

KiB = 1024
MiB = 1024 * KiB


def recovery_session(cluster, **policy_kwargs):
    monitor = HealthMonitor(cluster, detection_delay_ns=1_000.0)
    session = connect(
        cluster=cluster, recovery=RecoveryPolicy(**policy_kwargs),
    )
    session.rts.backups = OutputBackupStore(cluster, session.rts.memory)
    return session, monitor


class TestTaskRetry:
    def make_sleeper_job(self, duration_ns=200_000.0):
        job = Job("sleeper")

        @task(job, name="t0", work=WorkSpec(ops=1e4))
        def t0(ctx):
            yield from ctx.sleep(duration_ns)

        return job

    def test_node_crash_mid_task_retries_on_another_device(self):
        cluster = Cluster.preset("pooled-rack")
        session, monitor = recovery_session(cluster, backoff_base_ns=100.0)
        execution = session.submit(self.make_sleeper_job()).execution
        victim = execution.assignment["t0"]
        node = cluster.node_of(victim)
        cluster.faults.inject_at(50_000.0, FaultKind.NODE_CRASH, node)
        stats = cluster.engine.run(until=execution.done)
        assert stats.ok
        assert stats.tasks["t0"].attempts == 2
        assert stats.task_retries == 1
        assert stats.replacements == 1
        assert execution.assignment["t0"] != victim
        assert monitor.stats.tasks_interrupted == 1

    def test_without_policy_the_crash_fails_the_job(self):
        cluster = Cluster.preset("pooled-rack")
        HealthMonitor(cluster, detection_delay_ns=1_000.0)
        session = connect(cluster=cluster)  # no RecoveryPolicy: pre-health path
        execution = session.submit(self.make_sleeper_job()).execution
        victim = execution.assignment["t0"]
        cluster.faults.inject_at(
            50_000.0, FaultKind.NODE_CRASH, cluster.node_of(victim)
        )
        with pytest.raises(BaseException):
            cluster.engine.run(until=execution.done)
        assert not execution.stats.ok

    def test_application_bugs_are_never_retried(self):
        cluster = Cluster.preset("pooled-rack")
        session, _monitor = recovery_session(cluster)
        job = Job("buggy")

        @task(job, name="t0", work=WorkSpec(ops=1e4))
        def t0(ctx):
            yield from ctx.sleep(10.0)
            raise RuntimeError("application bug")

        execution = session.submit(job).execution
        with pytest.raises(RuntimeError, match="application bug"):
            cluster.engine.run(until=execution.done)
        assert execution.stats.tasks["t0"].attempts == 1
        assert execution.stats.task_retries == 0

    def test_retry_budget_is_finite(self):
        cluster = Cluster.preset("pooled-rack")
        session, _monitor = recovery_session(cluster, max_task_attempts=2,
                                             backoff_base_ns=10.0)
        job = Job("cursed")

        @task(job, name="t0", work=WorkSpec(ops=1e4))
        def t0(ctx):
            yield from ctx.sleep(10.0)
            from repro.sim.flows import TransferTimeout

            raise TransferTimeout(1.0, 1.0)  # recoverable every time

        execution = session.submit(job).execution
        with pytest.raises(BaseException):
            cluster.engine.run(until=execution.done)
        assert execution.stats.tasks["t0"].attempts == 2


class TestDegradedRead:
    def make_pipeline_job(self, consumer_delay_ns):
        job = Job("pipeline")

        @task(job, name="producer",
              work=WorkSpec(ops=1e4, output=RegionUsage(256 * KiB)))
        def producer(ctx):
            out = ctx.output()
            yield from ctx.write(out)

        @task(job, name="consumer", after=producer,
              work=WorkSpec(ops=1e4, input_usage=RegionUsage(0, touches=1.0)))
        def consumer(ctx):
            yield from ctx.sleep(consumer_delay_ns)
            yield from ctx.read(ctx.input())

        return job

    def test_lost_input_is_restored_from_backup(self):
        cluster = Cluster.preset("pooled-rack")
        session, _monitor = recovery_session(cluster, backoff_base_ns=100.0)
        execution = session.submit(self.make_pipeline_job(500_000.0)).execution

        # Run until the consumer is sleeping on its delivered input and
        # the (asynchronous) backup copy has landed, then crash the node
        # backing the input region.
        engine = cluster.engine
        while not execution._inboxes["consumer"]:
            engine.step()
        handle = execution._inboxes["consumer"][0]
        while not session.rts.backups.has_backup(handle.region):
            engine.step()
        victim = cluster.node_of(handle.region.device.name)
        cluster.faults.inject_now(FaultKind.NODE_CRASH, victim)
        assert not handle.region.alive

        stats = engine.run(until=execution.done)
        assert stats.ok
        assert stats.degraded_reads >= 1
        assert session.rts.backups.stats.restores >= 1
        assert stats.tasks["consumer"].attempts >= 2

    def test_lost_input_without_backup_fails_the_job(self):
        cluster = Cluster.preset("pooled-rack")
        monitor = HealthMonitor(cluster, detection_delay_ns=1_000.0)
        session = connect(
            cluster=cluster, recovery=RecoveryPolicy(backoff_base_ns=100.0),
        )  # note: no backup store
        execution = session.submit(self.make_pipeline_job(500_000.0)).execution
        engine = cluster.engine
        while not execution._inboxes["consumer"]:
            engine.step()
        handle = execution._inboxes["consumer"][0]
        victim = cluster.node_of(handle.region.device.name)
        cluster.faults.inject_now(FaultKind.NODE_CRASH, victim)
        with pytest.raises(BaseException):
            engine.run(until=execution.done)
        assert not execution.stats.ok


class TestReliableTransfer:
    def test_link_flap_mid_transfer_is_retried(self):
        cluster = Cluster.preset("pooled-rack")
        engine = cluster.engine
        result = []

        def mover():
            duration = yield from cluster.reliable_transfer(
                "dram-pool0", "far0", 64 * MiB, retries=3,
                backoff_ns=150_000.0,
            )
            result.append(duration)

        engine.process(mover(), name="mover")
        cluster.faults.inject_at(5_000.0, FaultKind.LINK_DOWN, "far0--tor")
        cluster.faults.inject_at(200_000.0, FaultKind.LINK_UP, "far0--tor")
        engine.run()
        assert len(result) == 1
        assert cluster.obs.counter("transfer.retries").value >= 1
        assert cluster.flownet.active_flows == 0

    def test_exhausted_retries_raise_link_down(self):
        cluster = Cluster.preset("pooled-rack")
        engine = cluster.engine
        errors = []

        def mover():
            try:
                yield from cluster.reliable_transfer(
                    "dram-pool0", "far0", 64 * MiB, retries=1,
                    backoff_ns=100.0,
                )
            except (LinkDown, Exception) as exc:  # noqa: B014
                errors.append(exc)

        engine.process(mover(), name="mover")
        cluster.faults.inject_at(5_000.0, FaultKind.LINK_DOWN, "far0--tor")
        engine.run()  # the link never comes back
        assert len(errors) == 1

    def test_timeout_cancels_the_flow_and_raises(self):
        cluster = Cluster.preset("pooled-rack")
        engine = cluster.engine
        errors = []

        def mover():
            try:
                yield from cluster.reliable_transfer(
                    "dram-pool0", "far0", 1024 * MiB, retries=0,
                    timeout_ns=1_000.0,  # far too tight for a GiB
                )
            except TransferTimeout as exc:
                errors.append(exc)

        engine.process(mover(), name="mover")
        engine.run()
        assert len(errors) == 1
        assert cluster.flownet.active_flows == 0  # cancelled, not leaked

    def test_zero_retries_without_timeout_matches_plain_transfer(self):
        cluster = Cluster.preset("pooled-rack")
        engine = cluster.engine
        durations = []

        def mover():
            duration = yield from cluster.reliable_transfer(
                "dram-pool0", "far0", 8 * MiB, retries=0,
            )
            durations.append(duration)

        engine.process(mover(), name="mover")
        engine.run()

        other = Cluster.preset("pooled-rack")

        def plain():
            duration = yield other.transfer("dram-pool0", "far0", 8 * MiB)
            durations.append(duration)

        other.engine.process(plain(), name="plain")
        other.engine.run()
        assert durations[0] == pytest.approx(durations[1])


class TestLoadShedding:
    @staticmethod
    def arrivals(n):
        def factory(i):
            def make():
                job = Job(f"j{i}")
                job.add_task(Task("t", work=WorkSpec(ops=1e4)))
                return job
            return make
        return [(float(i) * 10.0, f"j{i}", factory(i)) for i in range(n)]

    def test_jobs_shed_below_surviving_capacity_watermark(self):
        cluster = Cluster.preset("pooled-rack")
        HealthMonitor(cluster, detection_delay_ns=0.0)
        rts = RuntimeSystem(cluster)
        driver = RackDriver(rts, shed_below_capacity_fraction=0.5)
        # The storage node holds ~90% of the rack's raw capacity; losing
        # it drops the surviving fraction far below the watermark.
        cluster.crash_node("stornode0")
        stats = Session(rts, driver).run_trace(self.arrivals(3))
        assert stats.shed == 3
        assert stats.completed == 0
        assert cluster.obs.counter("rack.shed").value == 3

    def test_no_watermark_means_no_shedding(self):
        cluster = Cluster.preset("pooled-rack")
        HealthMonitor(cluster, detection_delay_ns=0.0)
        rts = RuntimeSystem(cluster)
        driver = RackDriver(rts)  # shedding disabled by default
        cluster.crash_node("stornode0")
        stats = Session(rts, driver).run_trace(self.arrivals(3))
        assert stats.shed == 0
        assert stats.completed == 3

    def test_healthy_rack_never_sheds(self):
        cluster = Cluster.preset("pooled-rack")
        HealthMonitor(cluster, detection_delay_ns=0.0)
        rts = RuntimeSystem(cluster)
        driver = RackDriver(rts, shed_below_capacity_fraction=0.5)
        stats = Session(rts, driver).run_trace(self.arrivals(3))
        assert stats.shed == 0
        assert stats.completed == 3
