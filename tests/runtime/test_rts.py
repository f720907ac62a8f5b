"""Integration tests: the full runtime executing dataflow jobs."""

import pytest

from repro.dataflow import Job, RegionUsage, Task, TaskProperties, WorkSpec, task
from repro.hardware import Cluster
from repro.hardware.spec import ComputeKind, OpClass
from repro.memory.interfaces import AccessPattern
from repro.memory.properties import LatencyClass
from repro.memory.regions import RegionType
from repro.api import Session, connect
from repro.runtime import baselines
from repro.runtime.admission import RackDriver

KiB = 1024
MiB = 1024 * KiB


@pytest.fixture
def session():
    return connect(cluster=Cluster.preset("pooled-rack"))


@pytest.fixture
def rts(session):
    return session.rts


def pipeline_job(name="pipe", payload=4 * MiB):
    job = Job(name, global_state_size=64 * KiB)
    a = job.add_task(Task("produce", work=WorkSpec(
        ops=1e5, output=RegionUsage(payload))))
    b = job.add_task(Task("transform", work=WorkSpec(
        op_class=OpClass.VECTOR, ops=1e6,
        input_usage=RegionUsage(0),
        scratch=RegionUsage(1 * MiB, touches=2.0),
        output=RegionUsage(payload // 2))))
    c = job.add_task(Task("sink", work=WorkSpec(
        ops=1e4, input_usage=RegionUsage(0),
        state_usage=RegionUsage(4 * KiB, pattern=AccessPattern.RANDOM))))
    job.connect(a, b)
    job.connect(b, c)
    return job


class TestExecution:
    def test_pipeline_completes(self, session):
        stats = session.run(pipeline_job())
        assert stats.ok
        assert stats.makespan > 0
        assert set(stats.tasks) == {"produce", "transform", "sink"}

    def test_tasks_respect_dag_order(self, session):
        stats = session.run(pipeline_job())
        assert stats.tasks["produce"].finished_at <= stats.tasks["transform"].started_at
        assert stats.tasks["transform"].finished_at <= stats.tasks["sink"].started_at

    def test_no_region_leaks_after_job(self, rts, session):
        session.run(pipeline_job())
        assert rts.memory.live_regions() == []
        for device in rts.cluster.memory.values():
            assert device.used == 0

    def test_no_leaks_across_many_jobs(self, rts, session):
        for i in range(20):
            stats = session.run(pipeline_job(name=f"pipe{i}"))
            assert stats.ok
        assert rts.memory.live_regions() == []
        assert rts.memory.freed_regions > 0

    def test_zero_copy_handover_on_pooled_rack(self, session):
        """On the pooled rack every device can address the pool, so the
        whole pipeline should hand over without copying."""
        stats = session.run(pipeline_job())
        assert stats.zero_copy_handover >= 2
        assert stats.copy_handover == 0

    def test_fan_out_shares_output(self, rts, session):
        job = Job("fanout")
        src = job.add_task(Task("src", work=WorkSpec(ops=1e4, output=RegionUsage(1 * MiB))))
        for i in range(3):
            sink = job.add_task(Task(
                f"sink{i}", work=WorkSpec(ops=1e4, input_usage=RegionUsage(0))))
            job.connect(src, sink)
        stats = session.run(job)
        assert stats.ok
        assert rts.memory.live_regions() == []

    def test_fan_in_collects_inputs(self, session):
        job = Job("fanin")
        sinks = []
        for i in range(3):
            sinks.append(job.add_task(Task(
                f"src{i}", work=WorkSpec(ops=1e4, output=RegionUsage(512 * KiB)))))
        join = job.add_task(Task("join", work=WorkSpec(
            ops=1e4, input_usage=RegionUsage(0))))
        for s in sinks:
            job.connect(s, join)
        stats = session.run(job)
        assert stats.ok

    def test_global_scratch_slots_flow_between_unconnected_tasks(self, rts, session):
        """Table 2's Global Scratch: a bloom filter published by one task
        and consumed by a task not connected to it."""
        job = Job("bloom")
        builder = job.add_task(Task("builder", work=WorkSpec(
            ops=1e4, scratch_puts={"bloom": RegionUsage(256 * KiB)})))
        prober = job.add_task(Task("prober", work=WorkSpec(
            ops=1e4, scratch_gets=("bloom",))))
        # No edge between them: synchronized only through the slot.
        stats = session.run(job)
        assert stats.ok
        assert rts.memory.live_regions() == []

    def test_concurrent_jobs_contend_but_complete(self, rts, session):
        jobs = [pipeline_job(name=f"job{i}") for i in range(4)]
        all_stats = session.run(*jobs)
        assert all(s.ok for s in all_stats)
        assert rts.memory.live_regions() == []

    def test_compute_kind_honored_at_execution(self, rts, session):
        job = Job("gpu-job")
        job.add_task(Task(
            "t", work=WorkSpec(op_class=OpClass.MATMUL, ops=1e6,
                               scratch=RegionUsage(1 * MiB)),
            properties=TaskProperties(compute=ComputeKind.GPU,
                                      mem_latency=LatencyClass.LOW),
        ))
        stats = session.run(job)
        assert rts.cluster.compute[stats.assignment["t"]].kind is ComputeKind.GPU

    def test_confidential_task_regions_stay_isolated(self, rts, session):
        placed = []
        original_place = rts.placement.place

        def spy(request):
            region = original_place(request)
            placed.append(region)
            return region

        rts.placement.place = spy
        job = Job("secret")
        job.add_task(Task(
            "t", work=WorkSpec(ops=1e4, scratch=RegionUsage(1 * MiB)),
            properties=TaskProperties(confidential=True),
        ))
        assert session.run(job).ok
        from repro.hardware.spec import Attachment

        scratch_regions = [r for r in placed if r.region_type is RegionType.PRIVATE_SCRATCH]
        assert scratch_regions
        for region in scratch_regions:
            assert region.device.spec.attachment is not Attachment.NIC

    def test_persistent_output_lands_on_persistent_media(self, rts, session):
        placed = []
        original_place = rts.placement.place

        def spy(request):
            region = original_place(request)
            placed.append((request, region))
            return region

        rts.placement.place = spy
        job = Job("durable")
        a = job.add_task(Task("a", work=WorkSpec(ops=1e4, output=RegionUsage(1 * MiB)),
                              properties=TaskProperties(persistent=True)))
        b = job.add_task(Task("b", work=WorkSpec(ops=1e3, input_usage=RegionUsage(0))))
        job.connect(a, b)
        assert session.run(job).ok
        outs = [r for req, r in placed if req.region_type is RegionType.OUTPUT]
        assert outs and all(r.device.spec.persistent for r in outs)


class TestCustomBehaviour:
    def test_user_function_with_context(self, session):
        job = Job("custom")
        events = []

        @task(job, work=WorkSpec(ops=0, output=RegionUsage(1 * MiB)))
        def producer(ctx):
            out = ctx.output()
            yield from ctx.write(out)
            events.append(("produced", ctx.now))

        @task(job, after=producer, work=WorkSpec(input_usage=RegionUsage(0)))
        def consumer(ctx):
            data = ctx.input()
            duration = yield from ctx.read(data, pattern=AccessPattern.RANDOM)
            events.append(("consumed", duration))

        stats = session.run(job)
        assert stats.ok
        assert [e[0] for e in events] == ["produced", "consumed"]
        assert events[1][1] > 0

    def test_failing_task_fails_job_with_cause(self, rts, session):
        job = Job("boom")

        @task(job, work=WorkSpec())
        def bad(ctx):
            yield from ctx.sleep(10.0)
            raise RuntimeError("intentional")

        with pytest.raises(RuntimeError, match="intentional"):
            session.run(job)
        execution = rts.executions[-1]
        assert not execution.stats.ok

    def test_downstream_of_failed_task_does_not_run(self, rts, session):
        job = Job("cascade")
        ran = []

        @task(job, work=WorkSpec(output=RegionUsage(1 * KiB)))
        def first(ctx):
            yield from ctx.sleep(1.0)
            raise RuntimeError("die")

        @task(job, after=first, work=WorkSpec(input_usage=RegionUsage(0)))
        def second(ctx):
            ran.append(True)
            yield from ctx.sleep(1.0)

        with pytest.raises(RuntimeError):
            session.run(job)
        rts.cluster.engine.run()  # drain
        assert not ran


class TestBaselineFactories:
    def test_baseline_registry_produces_working_runtimes(self):
        for name, factory in baselines.REGISTRY.items():
            cluster = Cluster.preset("pooled-rack", seed=11)
            rts = factory(cluster)
            session = Session(rts, RackDriver(rts))
            stats = session.run(pipeline_job(name=f"bl-{name}"))
            assert stats.ok, name

    def test_declarative_not_slower_than_naive(self):
        """The headline comparison: declarative placement should beat (or
        match) topology-oblivious placement on the same workload."""
        times = {}
        for name in ("declarative", "naive"):
            cluster = Cluster.preset("pooled-rack", seed=5)
            rts = baselines.REGISTRY[name](cluster)
            session = Session(rts, RackDriver(rts))
            times[name] = session.run(pipeline_job(payload=16 * MiB)).makespan
        assert times["declarative"] <= times["naive"]

    def test_local_only_baseline_runs(self):
        cluster = Cluster.preset("pooled-rack", seed=1)
        rts = baselines.local_only(cluster, "dram-local1")
        stats = Session(rts, RackDriver(rts)).run(pipeline_job(name="pinned"))
        assert stats.ok
