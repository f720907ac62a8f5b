"""F2 — reproduce Figure 2: the hospital dataflow with declarative
properties.

Runs the five-task CCTV job with its Figure 2c property cards under
three runtimes — the declarative RTS, the explicit/static baseline, and
the topology-oblivious naive baseline — and verifies both the semantic
guarantees (confidential regions isolated, the missing-patient log on
persistent media, GPU tasks on GPUs) and the performance shape
(declarative fastest).
"""

import pytest

from benchmarks.conftest import once
from repro.apps import build_hospital_job
from repro.hardware import Cluster
from repro.hardware.spec import Attachment, ComputeKind
from repro.metrics import Table, format_ns
from repro.api import Session
from repro.runtime import RackDriver, baselines

KiB = 1024


def run_variant(variant: str, seed: int = 42):
    cluster = Cluster.preset("pooled-rack", seed=seed,
                             trace_categories={"memory"})
    rts = baselines.REGISTRY[variant](cluster)
    job = build_hospital_job(n_frames=64, frame_bytes=128 * KiB)
    stats = Session(rts, RackDriver(rts)).run(job)
    allocations = [
        (str(e.fields["region"]), str(e.fields["device"]))
        for e in cluster.trace.by_name("allocate")
    ]
    return cluster, stats, allocations


def test_fig2_hospital_dataflow(benchmark, report):
    results = {}

    def experiment():
        for variant in ("declarative", "static", "naive"):
            results[variant] = run_variant(variant)
        return results

    once(benchmark, experiment)

    job = build_hospital_job()
    cards = Table(["task", "property card (Figure 2c)"],
                  title="Figure 2 (reproduced): hospital job")
    for task in job.topological_order():
        cards.add_row(task.name, task.properties.describe())

    cluster, stats, allocations = results["declarative"]
    placement = Table(["region", "device"], title="Declarative placements")
    for region, device in allocations:
        placement.add_row(region, device)

    comparison = Table(["runtime", "makespan", "slowdown vs declarative"])
    base = results["declarative"][1].makespan
    for variant in ("declarative", "static", "naive"):
        makespan = results[variant][1].makespan
        comparison.add_row(variant, format_ns(makespan), f"{makespan / base:.2f}x")

    report("fig2_hospital", "\n\n".join(
        [cards.render(), placement.render(), comparison.render()]
    ))

    # --- semantic guarantees under the declarative runtime ---------------
    # GPU-carded tasks ran on GPUs, CPU-carded on CPUs.
    for task_name, kind in [
        ("preprocessing", ComputeKind.GPU), ("face_recognition", ComputeKind.GPU),
        ("track_hours", ComputeKind.CPU), ("alert_caregivers", ComputeKind.CPU),
    ]:
        assert cluster.compute[stats.assignment[task_name]].kind is kind

    # Confidential tasks' regions never land on NIC-attached pool memory.
    confidential_tasks = ("preprocessing", "face_recognition",
                          "track_hours", "alert_caregivers")
    for region, device in allocations:
        if any(t in region for t in confidential_tasks):
            assert cluster.memory[device].spec.attachment is not Attachment.NIC, region

    # The missing-patient log (T5 output) is on persistent media.
    alert_outputs = [d for r, d in allocations if "alert_caregivers#out" in r]
    assert alert_outputs
    assert all(cluster.memory[d].spec.persistent for d in alert_outputs)

    # --- performance shape ----------------------------------------------
    assert results["declarative"][1].makespan <= results["static"][1].makespan
    assert results["declarative"][1].makespan <= results["naive"][1].makespan
    # Naive placement costs integer factors, echoing the intro's ~3x.
    assert results["naive"][1].makespan / base > 1.5


def test_fig2_streaming_arrival_rate(benchmark, report):
    """Throughput view: back-to-back hospital jobs (one per CCTV window)
    keep completing at a stable rate — the runtime frees every region, so
    there is no drift."""
    cluster = Cluster.preset("pooled-rack", seed=7)
    rts = baselines.declarative(cluster)
    session = Session(rts, RackDriver(rts))

    def experiment():
        makespans = []
        for i in range(10):
            job = build_hospital_job(n_frames=16)
            # Job names must be unique per submission.
            job.name = f"hospital-{i}"
            makespans.append(session.run(job).makespan)
        return makespans

    makespans = once(benchmark, experiment)
    table = Table(["window", "makespan"], title="Figure 2 follow-on: "
                  "10 consecutive CCTV windows")
    for i, makespan in enumerate(makespans):
        table.add_row(i, format_ns(makespan))
    report("fig2_streaming", table.render())

    assert len(rts.memory.live_regions()) == 0
    assert max(makespans) <= min(makespans) * 1.5  # no degradation drift
    assert makespans[-1] == pytest.approx(makespans[1], rel=0.3)
