"""Whole-runtime property tests: random jobs, global invariants.

Hypothesis generates arbitrary well-formed jobs (random DAG shapes,
work specifications, and property cards); every one must execute on the
pooled rack with the paper's guarantees intact:

* the job completes and every task ran exactly once,
* dataflow order is respected on every edge,
* no region leaks, every device drains to zero bytes,
* every allocator's internal invariants hold afterwards,
* handovers are exclusively zero-copy or accounted copies.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import Job, RegionUsage, Task, TaskProperties, WorkSpec
from repro.hardware import Cluster
from repro.hardware.spec import ComputeKind, OpClass
from repro.memory.interfaces import AccessPattern
from repro.memory.properties import LatencyClass
from repro.api import connect

KiB = 1024
MiB = 1024 * KiB


@st.composite
def random_workspec(draw, has_upstream: bool):
    op_class = draw(st.sampled_from([OpClass.SCALAR, OpClass.VECTOR,
                                     OpClass.MATMUL]))
    pattern = draw(st.sampled_from(list(AccessPattern)))
    spec = WorkSpec(
        op_class=op_class,
        ops=draw(st.floats(0.0, 1e6)),
        input_usage=(
            RegionUsage(0, touches=draw(st.floats(0.1, 2.0)), pattern=pattern)
            if has_upstream and draw(st.booleans()) else None
        ),
        output=(
            RegionUsage(draw(st.integers(1 * KiB, 4 * MiB)), pattern=pattern)
            if draw(st.booleans()) else None
        ),
        scratch=(
            RegionUsage(draw(st.integers(1 * KiB, 2 * MiB)),
                        touches=draw(st.floats(0.1, 3.0)), pattern=pattern)
            if draw(st.booleans()) else None
        ),
        state_usage=(
            RegionUsage(draw(st.integers(64, 4 * KiB)),
                        pattern=AccessPattern.RANDOM)
            if draw(st.booleans()) else None
        ),
    )
    return spec


@st.composite
def random_job(draw):
    n_tasks = draw(st.integers(1, 8))
    edges = []
    for j in range(1, n_tasks):
        for i in range(j):
            if draw(st.booleans()):
                edges.append((i, j))
    has_upstream = {j for _i, j in edges}

    job = Job("random-job", global_state_size=64 * KiB)
    for index in range(n_tasks):
        properties = TaskProperties(
            compute=draw(st.sampled_from(
                [None, ComputeKind.CPU, ComputeKind.GPU])),
            confidential=draw(st.booleans()),
            mem_latency=draw(st.sampled_from(
                [None, LatencyClass.LOW, LatencyClass.MEDIUM])),
        )
        work = draw(random_workspec(index in has_upstream))
        if properties.compute is ComputeKind.GPU and work.op_class is OpClass.SCALAR:
            # GPUs are terrible but capable at scalar; keep it feasible.
            pass
        job.add_task(Task(f"t{index}", work=work, properties=properties))
    for i, j in edges:
        job.connect(f"t{i}", f"t{j}")
    job.validate()
    return job


class TestRandomJobs:
    @settings(max_examples=60, deadline=None)
    @given(job=random_job(), seed=st.integers(0, 100))
    def test_runtime_invariants_hold(self, job, seed):
        cluster = Cluster.preset("pooled-rack", seed=seed)
        session = connect(cluster=cluster)
        rts = session.rts
        stats = session.run(job)

        # 1. Completion: every task ran exactly once, successfully.
        assert stats.ok
        assert set(stats.tasks) == set(job.tasks)
        for task_stats in stats.tasks.values():
            assert task_stats.finished_at >= task_stats.started_at >= 0

        # 2. Dataflow order respected on every edge.
        for up, down in job.edges():
            assert (stats.tasks[up.name].finished_at
                    <= stats.tasks[down.name].started_at + 1e-6)

        # 3. No leaks anywhere.
        assert rts.memory.live_regions() == []
        for device in cluster.memory.values():
            assert device.used == 0, device.name
        for allocator in rts.memory.allocators.values():
            allocator.check_invariants()
            assert allocator.allocated_bytes == 0

        # 4. Handover accounting is consistent.
        edges_with_data = sum(
            len(t.downstream()) for t in job.tasks.values()
            if t.work.output is not None
        )
        assert (stats.zero_copy_handover + stats.copy_handover
                <= edges_with_data)

        # 5. Compute-kind property cards were honored.
        for name, task in job.tasks.items():
            if task.properties.compute is not None:
                device = cluster.compute[stats.assignment[name]]
                assert device.kind is task.properties.compute

    @settings(max_examples=20, deadline=None)
    @given(job=random_job(), seed=st.integers(0, 20))
    def test_execution_is_deterministic(self, job, seed):
        """Same job, same seed -> identical simulated schedule."""

        def run_once():
            import copy

            cluster = Cluster.preset("pooled-rack", seed=seed)
            session = connect(cluster=cluster)
            job_copy = Job(job.name, global_state_size=job.global_state_size)
            for t in job.topological_order():
                job_copy.add_task(Task(t.name, work=t.work,
                                       properties=t.properties))
            for u, v in job.edges():
                job_copy.connect(u.name, v.name)
            stats = session.run(job_copy)
            return [
                (name, s.device, s.started_at, s.finished_at)
                for name, s in sorted(stats.tasks.items())
            ]

        assert run_once() == run_once()
