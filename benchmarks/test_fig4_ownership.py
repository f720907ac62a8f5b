"""F4 — reproduce Figure 4: ownership transfer vs. physical copy.

Figure 4's mechanism: when producer and consumer can both address a
region, "the out becomes the new in" by transferring ownership — a
metadata update — instead of copying bytes.  We run a two-task pipeline
over a payload sweep twice: once with the handover decision enabled
(pooled rack: always addressable → zero-copy) and once with a runtime
whose handover is forced to copy, and report the speedup as the payload
grows.
"""

import pytest

from benchmarks.conftest import once
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.hardware import Cluster
from repro.metrics import Table, format_bytes, format_ns
from repro.api import connect
from repro.runtime.transfer import HandoverManager

MiB = 1024 * 1024
PAYLOADS = [1 * MiB, 8 * MiB, 64 * MiB, 256 * MiB]


class CopyAlwaysHandover(HandoverManager):
    """The traditional data plane: every edge is a physical copy."""

    def can_hand_over(self, region, to_compute):
        return False


def pipeline(payload: int, tag: str) -> Job:
    job = Job(f"handover-{tag}-{payload}")
    producer = job.add_task(Task("produce", work=WorkSpec(
        ops=1e4, output=RegionUsage(payload))))
    consumer = job.add_task(Task("consume", work=WorkSpec(
        ops=1e4, input_usage=RegionUsage(0, touches=0.1))))
    job.connect(producer, consumer)
    return job


def run_once(payload: int, force_copy: bool) -> tuple:
    cluster = Cluster.preset("pooled-rack", seed=3)
    session = connect(cluster=cluster)
    rts = session.rts
    if force_copy:
        rts.handover = CopyAlwaysHandover(
            cluster, rts.memory, rts.costmodel, rts.placement
        )
    stats = session.run(pipeline(payload, "copy" if force_copy else "move"))
    return stats.makespan, stats.zero_copy_handover, stats.bytes_copied


def test_fig4_ownership_transfer_vs_copy(benchmark, report):
    results = {}

    def experiment():
        for payload in PAYLOADS:
            move = run_once(payload, force_copy=False)
            copy = run_once(payload, force_copy=True)
            results[payload] = (move, copy)
        return results

    once(benchmark, experiment)

    table = Table(
        ["payload", "ownership transfer", "physical copy", "speedup",
         "bytes copied (move)", "bytes copied (copy)"],
        title="Figure 4 (reproduced): handover = ownership transfer, not copy",
    )
    speedups = []
    for payload in PAYLOADS:
        (move_time, move_zc, move_bytes), (copy_time, _zc, copy_bytes) = results[payload]
        speedup = copy_time / move_time
        speedups.append(speedup)
        table.add_row(
            format_bytes(payload), format_ns(move_time), format_ns(copy_time),
            f"{speedup:.2f}x", format_bytes(move_bytes), format_bytes(copy_bytes),
        )
    report("fig4_ownership", table.render())

    for payload in PAYLOADS:
        (move_time, move_zc, move_bytes), (copy_time, _, copy_bytes) = results[payload]
        assert move_zc >= 1  # the edge really was an ownership transfer
        assert move_bytes == 0
        assert copy_bytes == pytest.approx(payload)
        assert move_time < copy_time
    # The gap grows with payload: copies scale with bytes, metadata doesn't.
    assert speedups[-1] > speedups[0]
    assert speedups[-1] > 2.0


def test_fig4_fanout_shares_instead_of_copying(benchmark, report):
    """One producer, four consumers: shared ownership means the payload
    is never duplicated, where the copy-based runtime materializes four
    replicas."""

    def build(tag):
        job = Job(f"fanout-{tag}")
        src = job.add_task(Task("src", work=WorkSpec(
            ops=1e4, output=RegionUsage(64 * MiB))))
        for i in range(4):
            sink = job.add_task(Task(f"sink{i}", work=WorkSpec(
                ops=1e4, input_usage=RegionUsage(0, touches=0.05))))
            job.connect(src, sink)
        return job

    def experiment():
        outcomes = {}
        for force_copy in (False, True):
            cluster = Cluster.preset("pooled-rack", seed=5)
            session = connect(cluster=cluster)
            rts = session.rts
            if force_copy:
                rts.handover = CopyAlwaysHandover(
                    cluster, rts.memory, rts.costmodel, rts.placement
                )
            stats = session.run(build("copy" if force_copy else "share"))
            outcomes["copy" if force_copy else "share"] = (
                stats.makespan, stats.bytes_copied,
            )
        return outcomes

    outcomes = once(benchmark, experiment)
    table = Table(["data plane", "makespan", "bytes duplicated"],
                  title="Figure 4 follow-on: fan-out via shared ownership")
    for name, (makespan, copied) in outcomes.items():
        table.add_row(name, format_ns(makespan), format_bytes(copied))
    report("fig4_fanout", table.render())

    assert outcomes["share"][1] == 0
    assert outcomes["copy"][1] == pytest.approx(4 * 64 * MiB)
    assert outcomes["share"][0] < outcomes["copy"][0]
