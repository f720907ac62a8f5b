"""Tests for asynchronous prefetch/writeback in the task API (§2.2(3))."""

import pytest

from repro.dataflow import Job, RegionUsage, Task, WorkSpec, task
from repro.hardware import Cluster
from repro.api import connect

KiB = 1024
MiB = 1024 * KiB


@pytest.fixture
def session():
    return connect(cluster=Cluster.preset("pooled-rack", seed=51))

def two_stage(consumer_fn):
    job = Job("async-api")
    producer = job.add_task(Task("produce", work=WorkSpec(
        ops=1e3, output=RegionUsage(64 * MiB))))
    consumer = job.add_task(Task(
        "consume", fn=consumer_fn,
        work=WorkSpec(input_usage=RegionUsage(0)),
    ))
    job.connect(producer, consumer)
    return job


class TestAsyncContext:
    def test_overlap_beats_serial(self, session):
        """Prefetch + compute must finish in ~max of the two, not the sum."""
        durations = {}
        OPS = 1e6  # sized so fetch time and compute time are comparable

        def serial(ctx):
            t0 = ctx.now
            yield from ctx.read(ctx.input())
            durations["read"] = ctx.now - t0
            yield from ctx.compute_ops(OPS)
            durations["compute"] = ctx.now - t0 - durations["read"]
            durations["serial"] = ctx.now - t0

        def overlapped(ctx):
            t0 = ctx.now
            pending = ctx.read_async(ctx.input())
            yield from ctx.compute_ops(OPS)
            yield pending
            durations["overlapped"] = ctx.now - t0

        session.run(two_stage(serial))
        connect(cluster=Cluster.preset("pooled-rack", seed=51)).run(
            two_stage(overlapped))

        assert durations["overlapped"] < durations["serial"]
        # The overlapped run hides (most of) the smaller component.
        hidden = durations["serial"] - durations["overlapped"]
        assert hidden > 0.5 * min(durations["read"], durations["compute"])

    def test_async_write_overlaps_too(self, session):
        durations = {}

        def writer(ctx):
            out = ctx.output(size=32 * MiB)
            t0 = ctx.now
            pending = ctx.write_async(out)
            yield from ctx.compute_ops(5e6)
            yield pending
            durations["overlap"] = ctx.now - t0

        job = Job("writeback")
        job.add_task(Task("w", fn=writer, work=WorkSpec(
            output=RegionUsage(32 * MiB))))
        stats = session.run(job)
        assert stats.ok
        assert durations["overlap"] > 0

    def test_prefetch_event_returns_duration(self, session):
        seen = {}

        def consumer(ctx):
            pending = ctx.read_async(ctx.input())
            duration = yield pending
            seen["duration"] = duration

        stats = session.run(two_stage(consumer))
        assert stats.ok
        assert seen["duration"] > 0

    def test_stale_handle_fails_inside_prefetch(self, session):
        """Ownership rules still apply on the async path."""
        from repro.memory.ownership import UseAfterTransferError

        def consumer(ctx):
            handle = ctx.input()
            # Simulate a buggy handoff: drop our ownership mid-flight.
            pending = ctx.read_async(handle)
            ctx._rts.memory.transfer_ownership(
                handle.region, ctx.owner, "thief"
            )
            try:
                yield pending
            except UseAfterTransferError:
                return
            raise AssertionError("stale prefetch should have failed")

        stats = session.run(two_stage(consumer))
        assert stats.ok
