"""F2b — the hospital job as a continuous stream (Figure 2's real mode).

The CCTV camera never stops: windows arrive at a fixed rate and the
runtime must sustain them.  We sweep the pipelining depth and the
backpressure policy and report the latency distribution (p50/p95/max)
and throughput — the operating curve of the Figure 2 deployment.
"""

from benchmarks.conftest import once
from repro.api import connect
from repro.apps import StreamExecutor, build_hospital_job
from repro.hardware import Cluster
from repro.metrics import Table, format_ns

N_WINDOWS = 16
INTERVAL_NS = 120_000.0


def template(index: int):
    job = build_hospital_job(n_frames=8)
    job.name = f"w{index}"
    return job


def run_config(max_in_flight: int, backpressure: str):
    session = connect(cluster=Cluster.preset("pooled-rack", seed=89))
    executor = StreamExecutor(session, template, max_in_flight=max_in_flight,
                              backpressure=backpressure)
    stats = executor.run(n_windows=N_WINDOWS, interval_ns=INTERVAL_NS)
    horizon = session.cluster.engine.now
    assert session.rts.memory.live_regions() == []
    return stats, horizon


def test_fig2_streaming_pipeline(benchmark, report):
    results = {}

    def experiment():
        for config in ((1, "queue"), (2, "queue"), (4, "queue"), (1, "drop")):
            results[config] = run_config(*config)
        return results

    once(benchmark, experiment)

    table = Table(
        ["pipeline depth", "policy", "done", "dropped", "p50 latency",
         "p95 latency", "windows/s"],
        title="Figure 2b (reproduced): the hospital stream under load",
    )
    for (depth, policy), (stats, horizon) in results.items():
        table.add_row(
            depth, policy, stats.completed, stats.dropped,
            format_ns(stats.percentile(50)), format_ns(stats.percentile(95)),
            f"{stats.throughput_per_s(horizon):,.0f}",
        )
    report("fig2_streaming_pipeline", table.render())

    serial, _ = results[(1, "queue")]
    deep, deep_horizon = results[(4, "queue")]
    # Pipelining absorbs the arrival rate: p95 collapses.
    assert deep.percentile(95) < serial.percentile(95) / 2
    assert deep.completed == N_WINDOWS
    # Dropping bounds latency at the price of coverage.
    dropping, _ = results[(1, "drop")]
    assert dropping.dropped > 0
    assert dropping.percentile(95) < serial.percentile(95)
