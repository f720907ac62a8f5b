"""Attribution under chaos: the sum-to-makespan identity must survive
retries, re-placement, and degraded reads.

The causal DAG's core claim is unconditional: for every *finished* job,
``sum(attribution buckets) == finished_at - submitted_at`` within float
tolerance — no matter how many recovery detours the execution took.
These tests inject the same faults as ``test_inflight_recovery.py`` and
check the identity (plus path validity and the presence of the
``recovery_retry`` bucket) on the graphs the runtime recorded.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import Job, RegionUsage, Task, WorkSpec, task
from repro.ft import OutputBackupStore
from repro.hardware import Cluster
from repro.obs.causal import attribute_job, validate_path
from repro.api import connect
from repro.runtime import HealthMonitor, RecoveryPolicy
from repro.sim.faults import FaultKind

KiB = 1024
MiB = 1024 * KiB

REL_TOL = 1e-6


def recovery_session(cluster, **policy_kwargs):
    monitor = HealthMonitor(cluster, detection_delay_ns=1_000.0)
    session = connect(cluster=cluster,
                      recovery=RecoveryPolicy(**policy_kwargs))
    session.rts.backups = OutputBackupStore(cluster, session.rts.memory)
    return session, monitor


def assert_attribution_identity(graph):
    """The unconditional invariants every finished graph must satisfy."""
    att = attribute_job(graph)
    assert att is not None, f"{graph.key} never finished"
    total = sum(att["buckets"].values())
    assert total == pytest.approx(att["makespan"], rel=REL_TOL), (
        f"{graph.key}: buckets sum to {total}, makespan {att['makespan']}"
    )
    assert validate_path(graph, att["path"])
    for src, dst, _kind in graph.edge_list():
        assert src < dst
    return att


class TestRetryAttribution:
    def make_sleeper_job(self, duration_ns=200_000.0):
        job = Job("sleeper")

        @task(job, name="t0", work=WorkSpec(ops=1e4))
        def t0(ctx):
            yield from ctx.sleep(duration_ns)

        return job

    def test_node_crash_retry_shows_up_as_recovery_time(self):
        cluster = Cluster.preset("pooled-rack")
        session, _monitor = recovery_session(cluster, backoff_base_ns=100.0)
        execution = session.submit(self.make_sleeper_job()).execution
        victim = execution.assignment["t0"]
        cluster.faults.inject_at(
            50_000.0, FaultKind.NODE_CRASH, cluster.node_of(victim)
        )
        stats = cluster.engine.run(until=execution.done)
        assert stats.ok and stats.task_retries == 1

        [graph] = cluster.obs.causal.jobs.values()
        att = assert_attribution_identity(graph)
        assert att["ok"] is True
        # The retry detour is charged, not silently folded into compute.
        assert att["buckets"]["recovery_retry"] > 0.0
        kinds = {kind for _s, _d, kind in graph.edge_list()}
        assert "retry" in kinds

    def test_recovery_node_records_cause_and_replacement(self):
        cluster = Cluster.preset("pooled-rack")
        session, _monitor = recovery_session(cluster, backoff_base_ns=100.0)
        execution = session.submit(self.make_sleeper_job()).execution
        victim = execution.assignment["t0"]
        cluster.faults.inject_at(
            50_000.0, FaultKind.NODE_CRASH, cluster.node_of(victim)
        )
        assert cluster.engine.run(until=execution.done).ok

        [graph] = cluster.obs.causal.jobs.values()
        recoveries = [n for n in graph.nodes.values()
                      if n.kind == "recovery"]
        assert recoveries
        node = recoveries[0]
        assert node.bucket == "recovery_retry"
        assert node.fields["attempt"] == 2
        assert node.fields.get("replaced_by") == execution.assignment["t0"]
        # The health monitor's fault detection is cited as the cause.
        assert node.fields.get("cause") in ("device_down", "drain")

    def test_failed_job_graph_still_sums(self):
        cluster = Cluster.preset("pooled-rack")
        HealthMonitor(cluster, detection_delay_ns=1_000.0)
        session = connect(cluster=cluster)  # no RecoveryPolicy: crash is fatal
        execution = session.submit(self.make_sleeper_job()).execution
        victim = execution.assignment["t0"]
        cluster.faults.inject_at(
            50_000.0, FaultKind.NODE_CRASH, cluster.node_of(victim)
        )
        with pytest.raises(BaseException):
            cluster.engine.run(until=execution.done)
        assert not execution.stats.ok

        [graph] = cluster.obs.causal.jobs.values()
        att = assert_attribution_identity(graph)
        assert att["ok"] is False


class TestDegradedReadAttribution:
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

    def test_backup_restore_retry_keeps_the_identity(self):
        cluster = Cluster.preset("pooled-rack")
        session, _monitor = recovery_session(cluster, backoff_base_ns=100.0)
        execution = session.submit(self.make_pipeline_job(500_000.0)).execution
        engine = cluster.engine
        while not execution._inboxes["consumer"]:
            engine.step()
        handle = execution._inboxes["consumer"][0]
        while not session.rts.backups.has_backup(handle.region):
            engine.step()
        cluster.faults.inject_now(
            FaultKind.NODE_CRASH, cluster.node_of(handle.region.device.name)
        )
        stats = engine.run(until=execution.done)
        assert stats.ok and stats.degraded_reads >= 1

        [graph] = cluster.obs.causal.jobs.values()
        att = assert_attribution_identity(graph)
        assert att["buckets"]["recovery_retry"] > 0.0
        recoveries = [n for n in graph.nodes.values()
                      if n.kind == "recovery"]
        assert any(n.fields.get("degraded_reads") for n in recoveries)


class TestChaosSweepAttribution:
    """Randomized fault schedules: the identity holds for every graph."""

    @settings(max_examples=20, deadline=None)
    @given(
        crash_at=st.floats(10_000.0, 150_000.0),
        node=st.sampled_from(["mem-shelf", "memnode0", "stornode0"]),
        seed=st.integers(0, 20),
        width=st.integers(1, 3),
    )
    def test_every_finished_graph_sums_to_its_makespan(
        self, crash_at, node, seed, width
    ):
        cluster = Cluster.preset("pooled-rack", seed=seed)
        session, _monitor = recovery_session(cluster, backoff_base_ns=100.0)
        job = Job("chaos")
        source = job.add_task(Task("src", work=WorkSpec(
            ops=1e5, output=RegionUsage(4 * MiB))))
        sink = job.add_task(Task("sink", work=WorkSpec(
            ops=1e4, input_usage=RegionUsage(0, touches=1.0))))
        for i in range(width):
            mid = job.add_task(Task(f"mid{i}", work=WorkSpec(
                ops=5e4, input_usage=RegionUsage(0, touches=1.0),
                output=RegionUsage(1 * MiB))))
            job.connect(source, mid)
            job.connect(mid, sink)
        execution = session.submit(job).execution
        cluster.faults.inject_at(crash_at, FaultKind.NODE_CRASH, node)
        cluster.faults.inject_at(
            crash_at + 300_000.0, FaultKind.NODE_RESTART, node
        )
        try:
            cluster.engine.run(until=execution.done)
        except BaseException:
            pass  # a failed job must still close its graph

        for graph in cluster.obs.causal.jobs.values():
            if graph.finished_at is None:
                continue
            assert_attribution_identity(graph)
