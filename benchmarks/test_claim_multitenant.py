"""C9 — §2.1/§3: one runtime serving many jobs on the shared pool.

The paper's setting is a runtime "deploying dataflow systems that serve
thousands of jobs in parallel".  This bench drives a Poisson arrival
trace of mixed jobs through the RackDriver at several concurrency caps
and reports the throughput/latency/utilization trade-off, plus the
isolation sanity check (everything completes, nothing leaks).
"""

import numpy as np

from benchmarks.conftest import once
from repro.api import connect
from repro.apps import build_hospital_job, build_query_job
from repro.hardware import Cluster
from repro.metrics import Table, format_ns
from repro.workloads import poisson_arrivals

KiB = 1024


def make_trace(seed: int, n_jobs: int = 24):
    rng = np.random.default_rng(seed)
    times = poisson_arrivals(rng, rate_per_ns=1.0 / 120_000.0,
                             horizon_ns=n_jobs * 120_000.0)[:n_jobs]
    while len(times) < n_jobs:
        times.append((times[-1] if times else 0.0) + 120_000.0)

    arrivals = []
    for i, time in enumerate(times):
        if i % 3 == 0:
            arrivals.append((
                time, f"cctv{i}",
                lambda i=i: _named(build_hospital_job(n_frames=8), f"cctv{i}"),
            ))
        else:
            arrivals.append((
                time, f"query{i}",
                lambda i=i: _named(build_query_job(n_rows=50_000), f"query{i}"),
            ))
    return arrivals


def _named(job, name):
    job.name = name
    return job


def test_claim_multitenant_rack(benchmark, report):
    results = {}

    def experiment():
        for cap in (1, 4, 16):
            cluster = Cluster.preset("pooled-rack", seed=47)
            session = connect(cluster=cluster, max_concurrent=cap,
                              sample_interval_ns=50_000.0)
            stats = session.run_trace(make_trace(seed=47))
            horizon = cluster.engine.now
            results[cap] = {
                "completed": stats.completed,
                "wait": stats.mean_queue_wait,
                "makespan": stats.mean_makespan,
                "horizon": horizon,
                "peak": stats.peak_concurrency,
                "leaks": len(session.rts.memory.live_regions()),
            }
        return results

    once(benchmark, experiment)

    table = Table(
        ["concurrency cap", "jobs done", "mean queue wait", "mean makespan",
         "total horizon", "peak running", "leaked regions"],
        title="C9 (reproduced): 24 mixed jobs, Poisson arrivals, one rack",
    )
    for cap, r in results.items():
        table.add_row(cap, r["completed"], format_ns(r["wait"]),
                      format_ns(r["makespan"]), format_ns(r["horizon"]),
                      r["peak"], r["leaks"])
    report("claim_multitenant", table.render())

    for cap, r in results.items():
        assert r["completed"] == 24, cap
        assert r["leaks"] == 0, cap
        assert r["peak"] <= cap
    # More parallelism shortens the horizon and the queueing...
    assert results[16]["horizon"] < results[1]["horizon"]
    assert results[16]["wait"] < results[1]["wait"] / 4
    # ...at the price of per-job contention (slower individual makespan).
    assert results[16]["makespan"] >= results[1]["makespan"]
