"""The three benchmark workloads, each entering through the Session facade.

Every workload is open loop: inputs carry simulated arrival times drawn
from the seed, one arrival (or burst) at a random point of each of N
equal slots of a fixed window, so every seed offers the same load with
different gaps.  Seeds change which request arrives when and what it
asks for; the mix is drawn so that a few hundred requests already
represent it, which keeps run-to-run spread small.  A workload exposes ``generate(seed)``
(inputs), ``build(seed)`` (cluster + session) and ``drive(stack,
inputs)`` (first arrival to drained, closed session), and
``outcome(stack, inputs, result)`` turns what happened into per-request
latencies, the SLO each request was held to, correctness problems and
the program-side counters the traced run reports.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.api import Session, connect
from repro.apps import LLMEngine, define_pd_pools
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.ft import OutputBackupStore
from repro.hardware import Cluster
from repro.runtime import (
    DegradationPolicy,
    HealthMonitor,
    HedgePolicy,
    RecoveryPolicy,
    RuntimeSystem,
)
from repro.runtime.admission import RackDriver
from repro.sim.faults import RESTORE_OF, FaultInjector, FaultKind
from repro.workloads import llm_request_stream

KiB = 1024
MiB = 1024 * KiB
MS = 1e6  # simulated ns per ms

GRAY_KINDS = (FaultKind.DEVICE_SLOW, FaultKind.DEVICE_RESTORED,
              FaultKind.LINK_DEGRADED, FaultKind.LINK_RESTORED)


@dataclasses.dataclass
class Outcome:
    """What one repetition produced, in workload-neutral terms."""

    #: Arrival -> finish latency (sim ns) per offered request; None for
    #: a request that was shed or failed.
    latencies: typing.List[typing.Optional[float]]
    #: The latency target each offered request was held to (sim ns).
    slo_ns: typing.List[float]
    #: First arrival -> last finish (sim ns).
    horizon_ns: float
    #: Failed correctness checks, human readable; empty when correct.
    problems: typing.List[str]
    #: Program-side counters and simulated per-layer values.
    layer: typing.Dict[str, float]


def arrival_times(rng: np.random.Generator, n: int, window_ns: float,
                  jitter: float = 1.0):
    """``n`` arrivals over the window, one in each of ``n`` equal slots,
    placed uniformly at random within the middle ``jitter`` fraction of
    its slot: the offered rate is steady, the gaps random."""
    offsets = 0.5 + rng.uniform(-0.5, 0.5, size=n) * jitter
    return (np.arange(n) + offsets) * (window_ns / n)


def storm(cluster, rng: np.random.Generator, kind: FaultKind, targets,
          episodes: int, length_ns: float, factor: float,
          window_ns: float) -> None:
    """Fail-slow episodes spread like arrivals: one per equal slot of
    the window, seeded start within it, targets in seeded rotation so
    each gets its share.  The restore fires ``length_ns`` later."""
    order = [targets[i] for i in rng.permutation(len(targets))]
    for i, start in enumerate(arrival_times(rng, episodes, window_ns)):
        target = order[i % len(order)]
        cluster.faults.inject_at(float(start), kind, target, factor=factor)
        cluster.faults.inject_at(float(start) + length_ns,
                                 RESTORE_OF[kind], target)


def percentile(values: typing.Sequence[float], p: float) -> float:
    """p in [0, 100] over sorted values; linear interpolation."""
    if not values:
        return 0.0
    rank = (p / 100.0) * (len(values) - 1)
    low = int(rank)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (rank - low)


def _obs_counter(session, name: str) -> float:
    return float(session.obs.counter(name).value)


def _common_layer(session) -> typing.Dict[str, float]:
    """Counters every workload reads from the public session surface."""
    stats = session.stats
    waits = sorted(j.queue_wait for j in stats.jobs
                   if j.admission_index is not None)
    telemetry = session.obs.telemetry
    return {
        "engine.events": float(session.cluster.engine.events_processed),
        "admission.queue_wait_p95_ms": percentile(waits, 95) / MS,
        "admission.preemptions": float(stats.preemptions),
        "admission.shed": float(stats.shed),
        "rts.jobs": float(len(session.rts.executions)),
        "rts.task_retries": _obs_counter(session, "recovery.task_retries"),
        "health.degraded_events":
            _obs_counter(session, "health.degraded_events"),
        "hedge.launched": _obs_counter(session, "hedge.launched"),
        "hedge.won": _obs_counter(session, "hedge.won"),
        "hedge.wasted_bytes": _obs_counter(session, "hedge.wasted_bytes"),
        "telemetry.polls": float(telemetry.polls),
        "telemetry.poll_s": float(telemetry.self_wall_s),
        "telemetry.records": float(telemetry.samples),
        "sharing.hit_ratio": 0.0,
        "sharing.leaked": 0.0,
        "backups.bytes": 0.0,
        "llm.settles": 0.0,
        "llm.ttft_p95_ms": 0.0,
        "llm.decode_p95_ms": 0.0,
        "llm.kv_bytes_moved": 0.0,
    }


def _live_region_problems(session) -> typing.List[str]:
    """The closed session must have freed every memory region."""
    live = len(session.rts.memory.live_regions())
    return [f"{live} regions live after close"] if live else []


def _trace_outcome(session, slo_of, problems) -> Outcome:
    """Outcome of a ``Session.run_trace`` workload."""
    jobs = session.stats.jobs
    latencies = [j.e2e_latency if j.completed else None for j in jobs]
    first = min(j.arrived_at for j in jobs)
    last = max(j.finished_at for j in jobs if j.finished_at is not None)
    problems += _live_region_problems(session)
    return Outcome(
        latencies=latencies,
        slo_ns=[slo_of(j) for j in jobs],
        horizon_ns=last - first,
        problems=problems,
        layer=_common_layer(session),
    )


class LLMServe:
    """C21-shaped serving: disaggregated P/D plus prefix reuse.

    200 requests (so p95 has ten samples above it) arrive over 200 ms,
    below the knee of the P/D pools; the chat tenant is interactive with
    a 12 ms SLO, the batch tenant (the long-output quarter) has 60 ms.
    In-flight requests poll for completion, so engine events grow with
    the summed latency of the stream.
    """

    name = "llm_serve"
    N_REQUESTS = 200
    WINDOW_NS = 200 * MS
    SLO_NS = {"chat": 12 * MS, "batch": 60 * MS}
    #: The C21 model costs: multi-ms prefills on the calibrated GPUs.
    OPS_PER_TOKEN = 1e8
    KV_BYTES_PER_TOKEN = 512
    MAX_CONCURRENT = 32
    TAIL_TOKENS = (64, 512)

    def generate(self, seed: int):
        stream = llm_request_stream(
            self.N_REQUESTS, seed=seed,
            prompt_tail_tokens=self.TAIL_TOKENS, output_tokens=(4, 16),
            template_blocks=(4, 12),
            batch_tenant="batch", batch_fraction=0.25,
        )
        rng = np.random.default_rng([seed, 1])
        times = arrival_times(rng, len(stream), self.WINDOW_NS)
        # Prompt tails are what prefill pays for; drawing one from each
        # of N equal strata of their range gives every seed the same
        # length mix, in a seeded order.
        low, high = self.TAIL_TOKENS
        strata = (rng.permutation(len(stream))
                  + rng.uniform(size=len(stream))) / len(stream)
        tails = low + (strata * (high - low + 1)).astype(int)
        return [
            dataclasses.replace(r, arrival_ns=float(t),
                                prompt_tokens=r.prefix_tokens + int(tail))
            for r, t, tail in zip(stream, times, tails)
        ]

    def build(self, seed: int):
        session = connect("pooled-rack", seed=seed,
                          max_concurrent=self.MAX_CONCURRENT)
        session.register_tenant("chat", weight=2.0, priority="interactive",
                                slo_target_ns=self.SLO_NS["chat"])
        session.register_tenant("batch", weight=1.0, priority="batch",
                                slo_target_ns=self.SLO_NS["batch"])
        define_pd_pools(session.cluster)
        engine = LLMEngine(
            session, disaggregate=True, prefix_caching=True,
            kv_bytes_per_token=self.KV_BYTES_PER_TOKEN,
            ops_per_token=self.OPS_PER_TOKEN,
        )
        return session, engine

    def drive(self, stack, requests):
        session, engine = stack
        with session:
            result = engine.serve(requests)
            leaked = engine.audit()
            engine.shutdown()
        return result, leaked

    def outcome(self, stack, requests, ran) -> Outcome:
        session, _engine = stack
        result, leaked = ran
        problems = _live_region_problems(session)
        if leaked:
            problems.append(f"LLMEngine.audit() not empty: {len(leaked)} "
                            f"pinned prefix blocks")
        if result.kv_bytes_moved != 0:
            problems.append(f"{result.kv_bytes_moved:.0f} KV bytes moved "
                            f"by P->D handovers (expected 0)")
        records = result.records
        finished = [r.finished_at for r in records if r.finished_at is not None]
        layer = _common_layer(session)
        layer.update({
            "sharing.hit_ratio": result.hit_rate,
            "sharing.leaked": float(len(leaked)),
            "llm.settles": float(sum(
                1 for r in records if r.finished_at is not None or r.shed)),
            "llm.ttft_p95_ms": percentile(result.ttft_ns(), 95) / MS,
            "llm.decode_p95_ms": percentile(result.decode_ns(), 95) / MS,
            "llm.kv_bytes_moved": float(result.kv_bytes_moved),
        })
        return Outcome(
            latencies=[r.e2e_ns for r in records],
            slo_ns=[self.SLO_NS[r.request.tenant] for r in records],
            horizon_ns=max(finished) - min(r.arrived_at for r in records),
            problems=problems,
            layer=layer,
        )


def pipeline(name: str, stages: int, ops: float, payload: int,
             touches: float = 1.0) -> Job:
    """A linear pipeline; every stage but the last emits ``payload``."""
    job = Job(name)
    previous = None
    for i in range(stages):
        task = job.add_task(Task(f"s{i}", work=WorkSpec(
            ops=ops,
            input_usage=(RegionUsage(0, touches=touches)
                         if previous is not None else None),
            output=RegionUsage(payload) if i < stages - 1 else None,
        )))
        if previous is not None:
            job.connect(previous, task)
        previous = task
    return job


class TenantFlood:
    """Hundreds of tenants, three priority classes, mixed weights.

    500 tenants each submit two small two-stage pipelines of seeded
    size (1000 jobs) over 40 ms, in seeded order and in bursts of ten;
    WFQ and preemption are on and the load sits below the knee, so each
    burst's backlog drains before the next.  Every request is held to
    its class's latency target; interactive tenants also register
    theirs with the session (SLO tracking and burn-rate alerts).
    Admission work grows with the number of tenants, since every pump
    scans each tenant's queue.
    """

    name = "tenant_flood"
    N_TENANTS = 500
    JOBS_PER_TENANT = 2
    WINDOW_NS = 40 * MS
    #: Jobs arrive in bursts of this many, more than the admission
    #: gate's eight slots, so every burst queues briefly.
    BURST = 10
    #: Tenant i's class is CLASSES[i % 4]: a quarter interactive, half
    #: batch, a quarter best effort; weights cycle through WEIGHTS.
    CLASSES = ("interactive", "batch", "batch", "best_effort")
    WEIGHTS = (1.0, 2.0, 4.0, 8.0, 3.0)
    SLO_NS = {"interactive": 0.25 * MS, "batch": 0.3 * MS,
              "best_effort": 0.4 * MS}
    #: Per-job compute and payload, uniform over these ranges.
    OPS = (5e4, 2e5)
    PAYLOAD = (256 * KiB, 2 * MiB)

    def tenants(self):
        for i in range(self.N_TENANTS):
            yield (f"t{i:03d}", self.CLASSES[i % len(self.CLASSES)],
                   self.WEIGHTS[i % len(self.WEIGHTS)])

    def generate(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        owners = [name for name, _, _ in self.tenants()
                  for _ in range(self.JOBS_PER_TENANT)]
        order = rng.permutation(len(owners))
        times = np.repeat(
            arrival_times(rng, len(owners) // self.BURST, self.WINDOW_NS,
                          jitter=0.5),
            self.BURST,
        )
        ops = rng.uniform(*self.OPS, size=len(owners))
        payloads = rng.integers(*self.PAYLOAD, size=len(owners))
        arrivals = []
        for i, (t, k) in enumerate(zip(times, order)):
            name = f"{owners[k]}-j{i}"
            arrivals.append((
                float(t), name,
                lambda name=name, o=float(ops[i]), p=int(payloads[i]):
                    pipeline(name, 2, o, p),
                owners[k],
            ))
        return arrivals

    def build(self, seed: int):
        session = connect("pooled-rack", seed=seed, max_concurrent=8,
                          policy="wfq", enable_preemption=True)
        for name, klass, weight in self.tenants():
            session.register_tenant(
                name, weight=weight, priority=klass,
                slo_target_ns=(self.SLO_NS[klass]
                               if klass == "interactive" else None),
            )
        return session

    def drive(self, session, arrivals):
        with session:
            session.run_trace(arrivals)

    def outcome(self, session, arrivals, _ran) -> Outcome:
        return _trace_outcome(
            session, lambda job: self.SLO_NS[job.priority.name.lower()], [],
        )


class FailslowStorm:
    """Write-heavy pipelines riding out a seeded fail-slow storm.

    200 four-stage pipelines of seeded compute with 8 MiB stage outputs
    arrive over 400 ms from one tenant, below saturation.  Every output is also
    written to an ``OutputBackupStore``; ``DEVICE_SLOW`` episodes hit
    the blades and memories the pipelines lean on, ``LINK_DEGRADED``
    episodes the first two CXL switch links.  Detection is evidence
    only (median+MAD scorecards), with hedged copies and a retry budget.
    """

    name = "failslow_storm"
    N_JOBS = 200
    WINDOW_NS = 400 * MS
    SLO_NS = 2.5 * MS
    #: Per-job stage compute, uniform over this range.
    OPS = (1e5, 3e5)
    PAYLOAD = 8 * MiB
    SLOW_TARGETS = ["cpu1", "gpu1", "dram-local1", "gddr1"]
    #: (episodes over the window, episode length, speed factor).
    DEVICE_EPISODES = (12, 12 * MS, 0.05)
    LINK_EPISODES = (6, 6 * MS, 0.25)
    RETRY_TOKENS = 6.0

    def generate(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        times = arrival_times(rng, self.N_JOBS, self.WINDOW_NS)
        ops = rng.uniform(*self.OPS, size=self.N_JOBS)
        return [
            (float(t), f"p{i}",
             lambda i=i, o=float(ops[i]): pipeline(
                 f"p{i}", 4, o, self.PAYLOAD, touches=2.0),
             "pipelines")
            for i, t in enumerate(times)
        ]

    def build(self, seed: int):
        registered = []
        cluster = Cluster.preset("pooled-rack", seed=seed)
        # Record every fault handler as it is registered, for the
        # structural check that detection never hears of gray faults.
        original_on = FaultInjector.on

        def recording_on(injector, kind, handler):
            registered.append((kind, handler))
            return original_on(injector, kind, handler)

        FaultInjector.on = recording_on
        try:
            monitor = HealthMonitor(
                cluster, detection_delay_ns=5_000.0,
                degradation=DegradationPolicy(min_samples=2, window=4),
            )
            rts = RuntimeSystem(
                cluster,
                recovery=RecoveryPolicy(
                    backoff_base_ns=5_000.0, max_task_attempts=4,
                    retry_budget_tokens=self.RETRY_TOKENS,
                ),
                hedge=HedgePolicy(),
            )
            rts.backups = OutputBackupStore(cluster, rts.memory)
            session = Session(rts, RackDriver(rts, max_concurrent=8))
        finally:
            FaultInjector.on = original_on
        session.register_tenant("pipelines", slo_target_ns=self.SLO_NS)
        rng = np.random.default_rng([seed, 4])
        links = sorted(link.name for link in cluster.topology.links()
                       if "cxl-switch" in link.name)[:2]
        for kind, (episodes, length, factor), targets in (
            (FaultKind.DEVICE_SLOW, self.DEVICE_EPISODES, self.SLOW_TARGETS),
            (FaultKind.LINK_DEGRADED, self.LINK_EPISODES, links),
        ):
            storm(cluster, rng, kind, targets, episodes, length, factor,
                  self.WINDOW_NS)
        peeks = [kind.value for kind, handler in registered
                 if kind in GRAY_KINDS
                 and getattr(handler, "__self__", None) is monitor]
        return session, peeks

    def drive(self, stack, arrivals):
        session, _peeks = stack
        with session:
            session.run_trace(arrivals)

    def outcome(self, stack, arrivals, _ran) -> Outcome:
        session, peeks = stack
        problems = []
        failed = sum(1 for j in session.stats.jobs
                     if j.finished_at is not None and not j.completed)
        if failed:
            problems.append(f"{failed} jobs failed")
        if peeks:
            problems.append(f"HealthMonitor handles gray faults {peeks}")
        result = _trace_outcome(session, lambda job: self.SLO_NS, problems)
        if result.layer["health.degraded_events"] <= 0:
            problems.append("no device or link was ever flagged DEGRADED")
        result.layer["backups.bytes"] = float(
            session.rts.backups.stats.backup_bytes)
        return result


SCENARIOS = {s.name: s for s in (LLMServe(), TenantFlood(), FailslowStorm())}
