"""In-flight recovery claim — §3 Challenge 8(3), the runtime half.

``test_claim_resilience`` covers the *job-level* answer (retry, prune
with checkpoints).  This bench quantifies the layer below it: with the
health monitor, task-level retries/re-placement, and output backups
attached, a multi-task job should survive seeded infrastructure faults
**in flight** — no whole-job re-execution — while the baseline runtime
pays for every fault with a full (or checkpoint-pruned) rerun.

Two scenarios:

* **Seeded fault storm** — the same Poisson crash/restart schedule is
  run against the baseline stack (plain RTS + ResilientRuntime) and the
  recovery stack (HealthMonitor + RecoveryPolicy + OutputBackupStore +
  the same ResilientRuntime as a last resort).  Pass criteria: the
  recovery stack survives at least as many seeds and wastes strictly
  less simulated time on failed attempts.
* **Planned maintenance** — a NODE_RESTART against a busy compute blade
  must drain gracefully: zero failed tasks, one completed drain, and
  the job finishes normally.
"""

import pytest

from benchmarks.conftest import once
from repro.api import connect
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.ft import OutputBackupStore
from repro.hardware import Cluster
from repro.metrics import Table, format_ns
from repro.runtime import (
    HealthMonitor,
    JobAbandoned,
    RecoveryPolicy,
    ResilientRuntime,
    RuntimeSystem,
)
from repro.sim.faults import FaultKind

KiB = 1024
MiB = 1024 * KiB

SEEDS = range(10)
#: The failure domains the runtime actually lives on: compute blades
#: (whose node-local DRAM/GDDR holds the hot regions) plus the shared
#: memory shelf.  Crashing them loses in-flight regions in both modes.
FAULT_TARGETS = ["blade-cpu1", "blade-cpu2", "blade-gpu1",
                 "blade-gpu2", "mem-shelf"]


def build_job(tag) -> Job:
    """Four-stage pipeline; touches=2.0 so every input read spans two
    passes and a mid-read region loss is always detected."""
    job = Job(f"storm-{tag}")
    previous = None
    for i in range(4):
        task = job.add_task(Task(f"s{i}", work=WorkSpec(
            ops=2e5,
            input_usage=RegionUsage(0, touches=2.0) if previous else None,
            output=RegionUsage(8 * MiB) if i < 3 else None,
            scratch=RegionUsage(2 * MiB) if i % 2 else None,
        )))
        if previous is not None:
            job.connect(previous, task)
        previous = task
    return job


def fault_free_makespan() -> float:
    cluster = Cluster.preset("pooled-rack", seed=0)
    return connect(cluster=cluster).run(build_job("probe")).makespan


def run_storm(seed: int, horizon: float, with_recovery: bool) -> dict:
    cluster = Cluster.preset("pooled-rack", seed=seed)
    if with_recovery:
        HealthMonitor(cluster, detection_delay_ns=5_000.0)
        rts = RuntimeSystem(cluster, recovery=RecoveryPolicy(
            backoff_base_ns=5_000.0, max_task_attempts=4,
        ))
        rts.backups = OutputBackupStore(cluster, rts.memory)
    else:
        rts = RuntimeSystem(cluster)
    resilient = ResilientRuntime(rts, max_attempts=4)

    # The same seeded storm for both modes (streams derive from the
    # cluster seed): crashes take memory nodes out mid-run, planned
    # restarts bounce them (gracefully drained only with the monitor).
    cluster.faults.schedule_poisson(
        FaultKind.NODE_CRASH, FAULT_TARGETS,
        rate_per_ns=3.0 / horizon, horizon=horizon)
    cluster.faults.schedule_poisson(
        FaultKind.NODE_RESTART, FAULT_TARGETS,
        rate_per_ns=3.0 / horizon, horizon=horizon)

    counter = [0]

    def factory():
        counter[0] += 1
        rts.costmodel.invalidate()
        return build_job(f"{seed}-{counter[0]}")

    try:
        stats = resilient.run_job(factory)
        survived = stats.ok
    except JobAbandoned:
        stats = None
        survived = False
    return {
        "survived": survived,
        "job_failures": resilient.stats.failures,
        "wasted_ns": resilient.stats.wasted_time_ns,
        "task_retries": stats.task_retries if stats else 0,
        "replacements": stats.replacements if stats else 0,
        "degraded_reads": stats.degraded_reads if stats else 0,
        "makespan": stats.makespan if stats else float("nan"),
    }


def test_claim_inflight_recovery_survival(benchmark, report):
    results = {}

    def experiment():
        horizon = fault_free_makespan() * 2.0
        for mode, with_recovery in (("baseline", False), ("recovery", True)):
            runs = [run_storm(seed, horizon, with_recovery) for seed in SEEDS]
            results[mode] = {
                "survived": sum(r["survived"] for r in runs),
                "job_failures": sum(r["job_failures"] for r in runs),
                "wasted_ns": sum(r["wasted_ns"] for r in runs),
                "task_retries": sum(r["task_retries"] for r in runs),
                "replacements": sum(r["replacements"] for r in runs),
                "degraded_reads": sum(r["degraded_reads"] for r in runs),
                "inflight_only": sum(
                    1 for r in runs
                    if r["survived"] and r["job_failures"] == 0
                    and r["task_retries"] > 0
                ),
            }
        return results

    once(benchmark, experiment)
    n = len(SEEDS)
    table = Table(
        ["mode", "survived", "job-level retries", "wasted sim time",
         "task retries", "re-placements", "degraded reads"],
        title=f"In-flight recovery under a seeded fault storm ({n} seeds)",
    )
    for mode, r in results.items():
        table.add_row(
            mode, f"{r['survived']}/{n}", r["job_failures"],
            format_ns(r["wasted_ns"]), r["task_retries"],
            r["replacements"], r["degraded_reads"],
        )
    report("claim_inflight_recovery", table.render())

    baseline, recovery = results["baseline"], results["recovery"]
    # The recovery stack must never survive less...
    assert recovery["survived"] >= baseline["survived"]
    # ...and must pay strictly less in thrown-away simulated work.
    assert baseline["wasted_ns"] > 0
    assert recovery["wasted_ns"] < baseline["wasted_ns"]
    # At least one storm was absorbed entirely in flight: the job took
    # faults (task retries happened) yet never re-executed as a whole.
    assert recovery["inflight_only"] >= 1
    # The machinery actually engaged, not just got lucky placements.
    assert recovery["task_retries"] >= 1


def test_claim_planned_restart_drains_without_failures(benchmark, report):
    result = {}

    def experiment():
        cluster = Cluster.preset("pooled-rack", seed=7)
        monitor = HealthMonitor(cluster, detection_delay_ns=5_000.0,
                                drain_poll_ns=5_000.0)
        session = connect(cluster=cluster, recovery=RecoveryPolicy())
        execution = session.submit(build_job("drain")).execution
        # Restart the blade actually running the first stage, mid-run.
        victim = cluster.node_of(execution.assignment["s0"])
        cluster.faults.inject_at(10_000.0, FaultKind.NODE_RESTART, victim)
        stats = cluster.engine.run(until=execution.done)
        cluster.engine.run()  # let the drain finish and the node bounce
        result.update(
            ok=stats.ok,
            makespan=stats.makespan,
            node=victim,
            drains=monitor.stats.drains_completed,
            drain_time=monitor.stats.drain_time_ns,
            tasks_failed=cluster.obs.counter("tasks.failed").value,
            task_retries=stats.task_retries,
        )
        return result

    once(benchmark, experiment)
    table = Table(
        ["restarted node", "job", "drains completed", "drain time",
         "failed tasks"],
        title="Planned NODE_RESTART mid-job: graceful drain",
    )
    table.add_row(
        result["node"], "ok" if result["ok"] else "FAILED",
        result["drains"], format_ns(result["drain_time"]),
        result["tasks_failed"],
    )
    report("claim_inflight_drain", table.render())

    assert result["ok"]
    assert result["drains"] == 1
    assert result["tasks_failed"] == 0
    assert result["task_retries"] == 0
