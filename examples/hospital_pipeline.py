#!/usr/bin/env python3
"""The hospital CCTV dataflow of Figure 2, declarative vs. naive.

Runs the exact five-task job of the paper's running example — GPU face
recognition with confidential data, a public utilization feed, and a
persistent missing-patient log — once under the declarative runtime
(properties drive placement) and once under a topology-oblivious
baseline, then compares makespan and shows where every task's memory
landed.

Run:  python examples/hospital_pipeline.py
"""

from repro import Cluster, Session
from repro.apps import build_hospital_job
from repro.metrics import Table, format_ns
from repro.runtime import RackDriver, baselines

KiB = 1024


def run_variant(name: str):
    cluster = Cluster.preset("pooled-rack", seed=42,
                             trace_categories={"memory", "placement"})
    # A baseline runtime is fronted by the same Session as connect()'s.
    rts = baselines.REGISTRY[name](cluster)
    session = Session(rts, RackDriver(rts))
    stats = session.run(build_hospital_job(n_frames=64, frame_bytes=128 * KiB))
    return cluster, stats


def main() -> None:
    print("Figure 2: hospital dataflow — property cards")
    job = build_hospital_job()
    cards = Table(["task", "properties"])
    for task in job.topological_order():
        cards.add_row(task.name, task.properties.describe())
    print(cards)

    results = {}
    placements = {}
    for variant in ("declarative", "naive"):
        cluster, stats = run_variant(variant)
        results[variant] = stats
        placements[variant] = [
            (e.fields["region"], e.fields["device"])
            for e in cluster.trace.by_name("allocate")
        ]

    print("\nDeclarative runtime placements:")
    table = Table(["region", "device"])
    for region, device in placements["declarative"]:
        table.add_row(region, device)
    print(table)

    print("\nMakespan comparison:")
    comparison = Table(["runtime", "makespan", "vs declarative"])
    base = results["declarative"].makespan
    for variant, stats in results.items():
        comparison.add_row(variant, format_ns(stats.makespan),
                           f"{stats.makespan / base:.2f}x")
    print(comparison)

    declarative = results["declarative"]
    print(f"\nzero-copy handovers: {declarative.zero_copy_handover}, "
          f"copies: {declarative.copy_handover}")


if __name__ == "__main__":
    main()
