"""C5 — §2.3 RTS duty 3: regions are freed when the last owner drops.

Run hundreds of jobs through one runtime and verify the bookkeeping the
paper assigns to the RTS: zero leaked regions, every allocator returns
to a pristine free list, peak memory tracks the live set rather than
the job count, and throughput does not degrade over time.
"""

import pytest

from benchmarks.conftest import once
from repro.apps import build_hospital_job, build_query_job
from repro.hardware import Cluster
from repro.metrics import Table, format_bytes
from repro.api import connect

KiB = 1024


def test_claim_lifetime_no_leaks_over_many_jobs(benchmark, report):
    cluster = Cluster.preset("pooled-rack", seed=17)
    session = connect(cluster=cluster)
    rts = session.rts

    n_jobs = 200

    def experiment():
        peaks = []
        for i in range(n_jobs):
            if i % 2 == 0:
                job = build_query_job(n_rows=50_000)
            else:
                job = build_hospital_job(n_frames=8)
            job.name = f"{job.name}-{i}"
            stats = session.run(job)
            assert stats.ok
            peaks.append(max(
                alloc.peak_bytes for alloc in rts.memory.allocators.values()
            ))
        return peaks

    peaks = once(benchmark, experiment)

    live_after = rts.memory.live_regions()
    freed = rts.memory.freed_regions
    worst_fragmentation = max(
        alloc.fragmentation for alloc in rts.memory.allocators.values()
    )
    residual = sum(device.used for device in cluster.memory.values())

    table = Table(["metric", "value"],
                  title=f"C5 (reproduced): lifetime bookkeeping over {n_jobs} jobs")
    table.add_row("jobs executed", n_jobs)
    table.add_row("regions allocated+freed", freed)
    table.add_row("regions leaked", len(live_after))
    table.add_row("bytes still reserved on devices", format_bytes(residual))
    table.add_row("max single-device peak (first 10 jobs)",
                  format_bytes(max(peaks[:10])))
    table.add_row("max single-device peak (last 10 jobs)",
                  format_bytes(max(peaks[-10:])))
    table.add_row("worst allocator fragmentation after drain",
                  f"{worst_fragmentation:.3f}")
    report("claim_lifetime", table.render())

    assert live_after == []
    assert residual == 0
    assert freed > 5 * n_jobs  # several regions per job, all returned
    # Peak memory is set by the live set, not by how many jobs ran.
    assert max(peaks[-10:]) <= max(peaks[:10]) * 1.01
    assert worst_fragmentation == pytest.approx(0.0)
    for alloc in rts.memory.allocators.values():
        alloc.check_invariants()


def test_claim_lifetime_shared_regions_freed_after_last_owner(benchmark, report):
    """Fan-out outputs are shared by N consumers; the region must die
    exactly when the last consumer drops it — never earlier or later."""
    from repro.dataflow import Job, RegionUsage, Task, WorkSpec

    cluster = Cluster.preset("pooled-rack", seed=19,
                             trace_categories={"memory"})
    session = connect(cluster=cluster)
    rts = session.rts

    def experiment():
        job = Job("fanout-lifetime")
        src = job.add_task(Task("src", work=WorkSpec(
            ops=1e4, output=RegionUsage(4 * 1024 * KiB))))
        for i in range(5):
            sink = job.add_task(Task(f"sink{i}", work=WorkSpec(
                ops=1e4 * (i + 1), input_usage=RegionUsage(0, touches=0.2))))
            job.connect(src, sink)
        stats = session.run(job)
        assert stats.ok
        frees = cluster.trace.by_name("free")
        src_out_free = [e for e in frees if "src#out" in str(e.fields["region"])]
        last_sink_end = max(ts.finished_at for name, ts in stats.tasks.items()
                            if name.startswith("sink"))
        return stats, src_out_free, last_sink_end

    stats, src_out_free, last_sink_end = once(benchmark, experiment)
    table = Table(["event", "time (ns)"],
                  title="C5 follow-on: shared-output lifetime")
    table.add_row("last consumer finished", f"{last_sink_end:.0f}")
    for event in src_out_free:
        table.add_row("shared output freed", f"{event.time:.0f}")
    report("claim_lifetime_shared", table.render())

    assert len(src_out_free) == 1  # freed exactly once
    assert src_out_free[0].time >= last_sink_end  # never before last reader
    assert rts.memory.live_regions() == []
