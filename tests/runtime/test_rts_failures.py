"""Regression tests for failure-path runtime statistics and cleanup.

Two historical bugs are pinned here: a failed job never stamped
``JobStats.finished_at`` (``_finalize`` returns early on failure), so
its makespan was negative; and tasks that failed before starting kept
``0.0`` timestamps, so ``duration``/``queue_delay`` were garbage.
"""

import pytest

from repro.dataflow import Job, RegionUsage, Task, WorkSpec, task
from repro.hardware import Cluster
from repro.api import connect

KiB = 1024


@pytest.fixture
def session():
    return connect(cluster=Cluster.preset("pooled-rack"))


@pytest.fixture
def rts(session):
    return session.rts


def failing_chain_job(name="chain"):
    """upstream (fails mid-run) -> downstream (never starts)."""
    job = Job(name)

    @task(job, name="upstream", work=WorkSpec(output=RegionUsage(4 * KiB)))
    def upstream(ctx):
        yield from ctx.sleep(25.0)
        raise RuntimeError("mid-task crash")

    @task(job, name="downstream", after=upstream,
          work=WorkSpec(input_usage=RegionUsage(0)))
    def downstream(ctx):
        yield from ctx.sleep(1.0)

    return job


class TestFailedJobStats:
    def test_failed_job_has_nonnegative_makespan(self, rts, session):
        rts.cluster.engine.timeout(1000.0)
        rts.cluster.engine.run()  # submit at t>0 so the bug would show
        with pytest.raises(RuntimeError, match="mid-task crash"):
            session.run(failing_chain_job())
        stats = rts.executions[-1].stats
        assert not stats.ok
        assert stats.finished_at >= stats.submitted_at > 0
        assert stats.makespan >= 25.0

    def test_finished_at_stamped_at_failure_time(self, rts, session):
        handle = session.submit(failing_chain_job())
        rts.cluster.engine.run(until=handle.settled)  # stop at the failure
        with pytest.raises(RuntimeError):
            session.result(handle)
        stats = rts.executions[-1].stats
        assert stats.finished_at == rts.cluster.engine.now

    def test_in_flight_job_reports_zero_makespan(self, rts, session):
        job = Job("slow")

        @task(job, name="long", work=WorkSpec())
        def long_task(ctx):
            yield from ctx.sleep(1e6)

        handle = session.submit(job)
        rts.cluster.engine.run(until=10.0)  # mid-run: no finish time yet
        assert handle.execution.stats.makespan == 0.0


class TestNeverStartedTaskStats:
    def test_downstream_of_failure_reports_zero_duration(self, rts, session):
        with pytest.raises(RuntimeError):
            session.run(failing_chain_job())
        rts.cluster.engine.run()  # drain the cascade
        downstream = rts.executions[-1].stats.tasks["downstream"]
        assert downstream.started_at is None
        assert not downstream.started
        assert downstream.duration == 0.0
        assert downstream.queue_delay is None

    def test_failed_running_task_keeps_real_duration(self, rts, session):
        with pytest.raises(RuntimeError):
            session.run(failing_chain_job())
        upstream = rts.executions[-1].stats.tasks["upstream"]
        assert upstream.started
        assert upstream.duration == pytest.approx(25.0)
        assert upstream.queue_delay is not None

    def test_successful_tasks_have_full_timestamps(self, session):
        job = Job("fine")
        job.add_task(Task("only", work=WorkSpec(ops=1e4)))
        stats = session.run(job)
        only = stats.tasks["only"]
        assert only.ready_at is not None
        assert only.finished_at >= only.started_at >= only.ready_at
        assert only.duration > 0


class TestAbortCleanup:
    def test_abort_after_mid_task_crash_frees_all_regions(self, rts, session):
        job = Job("leaky", global_state_size=8 * KiB)

        @task(job, name="crasher", work=WorkSpec(output=RegionUsage(4 * KiB)))
        def crasher(ctx):
            ctx.private_scratch(16 * KiB)
            out = ctx.output()
            yield from ctx.write(out, nbytes=1 * KiB)
            raise RuntimeError("crash with regions live")

        @task(job, name="waiter", after=crasher,
              work=WorkSpec(input_usage=RegionUsage(0)))
        def waiter(ctx):
            yield from ctx.sleep(1.0)

        with pytest.raises(RuntimeError):
            session.run(job)
        rts.cluster.engine.run()  # drain stragglers
        execution = rts.executions[-1]
        assert rts.memory.live_regions()  # the crash leaked regions...
        execution.abort()
        assert rts.memory.live_regions() == []  # ...and abort reclaims them
        for device in rts.cluster.memory.values():
            assert device.used == 0
