"""C6 — ablation: the cost-model scheduler vs. cost-blind baselines.

DESIGN.md §5(4): the HEFT scheduler sees ownership-handover edges as
near-free and uses the same access-path cost model as placement.  This
bench runs a mixed workload (hospital + query + training, plus a wide
fan-out) under HEFT, round-robin, and random scheduling — placement held
fixed (declarative) so the scheduler is the only variable.  Pass
criterion: HEFT's makespan <= both baselines on every workload.
"""

from benchmarks.conftest import once
from repro.api import connect
from repro.apps import build_hospital_job, build_query_job, build_training_job
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.hardware import Cluster
from repro.hardware.spec import OpClass
from repro.metrics import Table, format_ns
from repro.runtime import (
    HeftScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)

MiB = 1024 * 1024

SCHEDULERS = {
    "HEFT (cost model)": HeftScheduler,
    "round-robin": RoundRobinScheduler,
    "random": RandomScheduler,
}


def wide_mixed_job():
    """A fan-out of heterogeneous kernels: the scheduler must route each
    to the right device class without being told."""
    job = Job("mixed-kernels")
    src = job.add_task(Task("src", work=WorkSpec(
        ops=1e4, output=RegionUsage(8 * MiB))))
    kernels = [
        ("gemm", OpClass.MATMUL, 5e7),
        ("stream", OpClass.VECTOR, 2e7),
        ("crypt", OpClass.CRYPTO, 1e7),
        ("pack", OpClass.COMPRESS, 1e7),
        ("chase", OpClass.SCALAR, 2e6),
    ]
    for name, op, ops in kernels:
        sink = job.add_task(Task(name, work=WorkSpec(
            op_class=op, ops=ops, input_usage=RegionUsage(0, touches=0.5))))
        job.connect(src, sink)
    return job


WORKLOADS = {
    "hospital (Fig. 2)": lambda: build_hospital_job(n_frames=32),
    "analytics query": lambda: build_query_job(n_rows=300_000),
    "ML training": lambda: build_training_job(
        n_samples=20_000, model_bytes=8 * MiB, epochs=2),
    "mixed kernels fan-out": wide_mixed_job,
}


def test_ablation_scheduler(benchmark, report):
    results = {}

    def experiment():
        for workload_name, builder in WORKLOADS.items():
            row = {}
            for scheduler_name, factory in SCHEDULERS.items():
                cluster = Cluster.preset("pooled-rack", seed=23)
                session = connect(cluster=cluster, scheduler=factory())
                stats = session.run(builder())
                assert stats.ok, (workload_name, scheduler_name)
                row[scheduler_name] = stats.makespan
            results[workload_name] = row
        return results

    once(benchmark, experiment)

    table = Table(
        ["workload"] + list(SCHEDULERS) + ["best baseline / HEFT"],
        title="C6 (ablation): scheduler policy, placement held fixed",
    )
    for workload_name, row in results.items():
        heft = row["HEFT (cost model)"]
        best_baseline = min(row["round-robin"], row["random"])
        table.add_row(
            workload_name,
            *[format_ns(row[s]) for s in SCHEDULERS],
            f"{best_baseline / heft:.2f}x",
        )
    report("ablation_scheduler", table.render())

    for workload_name, row in results.items():
        heft = row["HEFT (cost model)"]
        assert heft <= row["round-robin"] * 1.01, workload_name
        assert heft <= row["random"] * 1.01, workload_name
    # On at least one workload the cost model wins clearly (the baselines
    # still respect per-task feasibility, which bounds how badly they can
    # do — the win comes from communication-aware device choice).
    gains = [
        min(row["round-robin"], row["random"]) / row["HEFT (cost model)"]
        for row in results.values()
    ]
    assert max(gains) > 1.3
    # And the worst baseline pick is far worse than HEFT somewhere.
    worst_gains = [
        max(row["round-robin"], row["random"]) / row["HEFT (cost model)"]
        for row in results.values()
    ]
    assert max(worst_gains) > 2.0
