"""Multi-tenant rack driving: arrivals, weighted-fair admission, QoS.

The paper's RTS must serve "thousands of jobs in parallel" (§2.1) and
"optimize for concurrently running jobs" (§3 Challenge 5).
:class:`RackDriver` turns the runtime into that shared service — and,
since PR 5, a *fair* one: arrivals are queued per tenant and admitted
by start-time fair queueing (strict priority between
:class:`~repro.runtime.tenancy.PriorityClass` levels, weighted-fair
within a level), per-tenant quotas over pool memory and
compute-device-time gate admission (with SLO-error-budget-funded burst
credits), and a gate-blocked higher-class arrival may preempt a
running ``BEST_EFFORT`` job through the RTS's re-queue machinery.

``policy="fifo"`` keeps the original single-queue arrival-order gate
(the baseline the tenancy claim test measures against).
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import typing

from repro.runtime.rts import JobStats, RuntimeSystem
from repro.runtime.tenancy import (
    DEFAULT_TENANT,
    PriorityClass,
    Tenant,
    TenantRegistry,
    coerce_priority,
    estimate_job_footprint,
)
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataflow.graph import Job
    from repro.obs.telemetry import WindowedSeries


@dataclasses.dataclass
class AdmittedJob:
    name: str
    arrived_at: float
    admitted_at: float = 0.0
    stats: typing.Optional[JobStats] = None
    shed: bool = False  # rejected by a watermark or an impossible quota
    tenant: str = DEFAULT_TENANT
    priority: PriorityClass = PriorityClass.BATCH
    #: Position in the admission order (None while queued/shed).
    admission_index: typing.Optional[int] = None
    finished_at: typing.Optional[float] = None
    #: Times this job was preempted after admission (victim side).
    preemptions: int = 0
    #: The running _JobExecution once admitted (stats survive failure).
    execution: typing.Any = dataclasses.field(
        default=None, repr=False, compare=False
    )
    #: Engine event that fires once the job leaves admission for good:
    #: finished, failed, or shed.  Callbacks run after the driver has
    #: re-pumped its queues.
    settled: typing.Optional[Event] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def queue_wait(self) -> float:
        return self.admitted_at - self.arrived_at

    @property
    def completed(self) -> bool:
        return self.stats is not None and self.stats.ok

    @property
    def e2e_latency(self) -> typing.Optional[float]:
        """Arrival -> finish latency; None while queued or after shed."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.arrived_at


@dataclasses.dataclass
class RackStats:
    jobs: typing.List[AdmittedJob] = dataclasses.field(default_factory=list)
    #: The hub's ``rack.memory_util`` level series (pool used/capacity,
    #: read on every telemetry poll).
    memory_utilization: typing.Optional["WindowedSeries"] = None
    peak_concurrency: int = 0
    preemptions: int = 0

    @property
    def completed(self) -> int:
        return sum(1 for j in self.jobs if j.completed)

    @property
    def shed(self) -> int:
        return sum(1 for j in self.jobs if j.shed)

    @property
    def mean_queue_wait(self) -> float:
        done = [j for j in self.jobs if j.stats is not None]
        if not done:
            return 0.0
        return sum(j.queue_wait for j in done) / len(done)

    @property
    def mean_makespan(self) -> float:
        done = [j for j in self.jobs if j.stats is not None]
        if not done:
            return 0.0
        return sum(j.stats.makespan for j in done) / len(done)

    def mean_memory_utilization(self, until: float) -> float:
        """Time-weighted mean pool utilization up to ``until``."""
        if self.memory_utilization is None:
            return 0.0
        return self.memory_utilization.mean(until)

    def by_tenant(self, tenant: str) -> typing.List[AdmittedJob]:
        """This tenant's jobs, in arrival order."""
        return [j for j in self.jobs if j.tenant == tenant]


@dataclasses.dataclass
class _QueueEntry:
    """One queued arrival with its fair-queueing tags."""

    admitted: AdmittedJob
    #: A Job, or a zero-argument factory built at admission time.
    source: typing.Any
    start_tag: float
    finish_tag: float
    seq: int
    job: typing.Optional["Job"] = None
    footprint: typing.Optional[float] = None

    def materialize(self) -> "Job":
        if self.job is None:
            source = self.source
            self.job = source if hasattr(source, "tasks") else source()
        return self.job


class RackDriver:
    """Runs a job-arrival stream through one runtime with QoS admission."""

    def __init__(
        self,
        rts: RuntimeSystem,
        max_concurrent: int = 8,
        memory_headroom: float = 0.05,
        sample_interval_ns: float = 100_000.0,
        shed_below_capacity_fraction: float = 0.0,
        tenants: typing.Optional[TenantRegistry] = None,
        policy: str = "wfq",
        enable_preemption: bool = True,
        max_preemptions_per_job: int = 2,
        preempt_overcommit: int = 1,
        quota_retry_ns: float = 50_000.0,
    ):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if not 0.0 <= memory_headroom < 1.0:
            raise ValueError("memory_headroom must be in [0, 1)")
        if not 0.0 <= shed_below_capacity_fraction <= 1.0:
            raise ValueError("shed_below_capacity_fraction must be in [0, 1]")
        if policy not in ("wfq", "fifo"):
            raise ValueError(f"unknown admission policy {policy!r}")
        if max_preemptions_per_job < 0:
            raise ValueError("max_preemptions_per_job must be >= 0")
        if preempt_overcommit < 0:
            raise ValueError("preempt_overcommit must be >= 0")
        if quota_retry_ns <= 0:
            raise ValueError("quota_retry_ns must be > 0")
        self.rts = rts
        self.max_concurrent = max_concurrent
        self.memory_headroom = memory_headroom
        self.sample_interval_ns = sample_interval_ns
        #: Reject (shed) queued jobs while the *surviving* memory
        #: capacity — devices that are up and usable per the health
        #: monitor — is below this fraction of the rack's total.  0
        #: disables shedding (the pre-recovery behaviour).
        self.shed_below_capacity_fraction = shed_below_capacity_fraction
        self.tenants = tenants if tenants is not None else TenantRegistry()
        #: "wfq" (priority classes + start-time fair queueing + quotas
        #: + preemption) or "fifo" (the single-gate arrival-order
        #: baseline; quotas still apply, preemption never fires).
        self.policy = policy
        self.enable_preemption = enable_preemption
        #: A job preempted this many times is never chosen as a victim
        #: again (livelock bound — it eventually finishes).
        self.max_preemptions_per_job = max_preemptions_per_job
        #: How many preempt-admissions may run *above* max_concurrent
        #: at once (the victim's slots free only after its tasks
        #: unwind, so the preemptor briefly overcommits the gate).
        self.preempt_overcommit = preempt_overcommit
        #: Re-pump period while the queue is blocked purely by a
        #: time-refilling compute quota (nothing running to wake us).
        self.quota_retry_ns = quota_retry_ns
        self._running = 0
        #: tenant name -> FIFO of queued entries (WFQ picks between
        #: queue heads; in "fifo" mode the global min seq wins, which
        #: is exactly arrival order).  Only non-empty queues are kept
        #: (see ``_pop_head``), so scans cost O(tenants with work).
        self._queues: typing.Dict[str, typing.Deque[_QueueEntry]] = {}
        self._seq = itertools.count()
        self._admission_seq = itertools.count()
        #: System virtual time (start tag of the last dispatched job).
        self._vtime = 0.0
        #: Admitted-and-running jobs keyed by identity, in admission
        #: order (victim scan).
        self._active: typing.Dict[int, AdmittedJob] = {}
        self._retry_scheduled = False
        obs = rts.cluster.obs
        self._obs = obs
        telem = obs.telemetry
        # Level series: running/queued depth are pushed by the admission
        # paths on every change; pool memory utilization is read on
        # every telemetry poll (the rack or LLM sampler).
        self._running_level = telem.series("rack.running", "level")
        self._queued_level = telem.series("rack.queued", "level")
        self.stats = RackStats(memory_utilization=telem.watch(
            "rack.memory_util", self._memory_utilization, kind="level"
        ))
        obs.registry.add_collector(self._collect_tenant_metrics)

    # -- admission gate ------------------------------------------------------

    def _gate_open(self) -> bool:
        if self._running >= self.max_concurrent:
            return False
        capacity = sum(d.capacity for d in self.rts.cluster.memory.values())
        used = sum(d.used for d in self.rts.cluster.memory.values())
        return used <= capacity * (1.0 - self.memory_headroom)

    def _memory_utilization(self) -> float:
        """Pool-wide used / capacity across the cluster's memory."""
        memory = self.rts.cluster.memory.values()
        capacity = sum(d.capacity for d in memory)
        return sum(d.used for d in memory) / capacity if capacity else 0.0

    def _surviving_capacity_fraction(self) -> float:
        """Fraction of total memory capacity on usable devices."""
        cluster = self.rts.cluster
        monitor = getattr(cluster, "health_monitor", None)
        total = 0.0
        alive = 0.0
        for device in cluster.memory.values():
            total += device.capacity
            if device.failed:
                continue
            if monitor is not None and not monitor.can_use(device.name):
                continue
            alive += device.capacity
        return alive / total if total else 1.0

    def _queued_count(self) -> int:
        return sum(len(q) for q in self._queues.values())

    @property
    def queued_count(self) -> int:
        """Jobs waiting in the admission queues right now."""
        return self._queued_count()

    @property
    def running_count(self) -> int:
        """Jobs admitted and not yet finished."""
        return self._running

    def _pop_head(self, name: str) -> _QueueEntry:
        """Dequeue ``name``'s head, deleting the queue once it empties."""
        queue = self._queues[name]
        entry = queue.popleft()
        if not queue:
            del self._queues[name]
        return entry

    def _reject(self, entry: _QueueEntry, reason: str) -> None:
        """Shed one queued entry (watermark or impossible quota)."""
        engine = self.rts.cluster.engine
        entry.admitted.shed = True
        tenant = self.tenants.get(entry.admitted.tenant)
        tenant.shed += 1
        self._queued_level.adjust(engine.now, -1)
        self._obs.counter("rack.shed").inc()
        self._obs.counter(f"tenant.shed/{tenant.name}").inc()
        self._obs.event("admission", "shed", job=entry.admitted.name,
                        tenant=tenant.name, reason=reason)
        entry.admitted.settled.succeed()

    def _shed_queue(self) -> None:
        """Reject every queued job (the rack cannot serve them safely)."""
        for name in sorted(self._queues):
            while name in self._queues:
                self._reject(self._pop_head(name), reason="capacity_watermark")

    # -- tenancy: quotas and fair queueing -----------------------------------

    def _burst_credit_ns(self, tenant: Tenant) -> float:
        """SLO-funded compute overdraft: ``burst_ns`` scaled by the
        remaining error budget of the ``tenant:<name>`` workload."""
        if tenant.quota.burst_ns <= 0:
            return 0.0
        workload = f"tenant:{tenant.name}"
        slo = self._obs.slo
        if workload not in slo:
            return 0.0
        remaining = slo[workload].budget_remaining
        if remaining is None or remaining <= 0:
            return 0.0
        return tenant.quota.burst_ns * min(remaining, 1.0)

    def _eligible(self, tenant: Tenant, entry: _QueueEntry) -> bool:
        """May this tenant's queue head be admitted right now?"""
        quota = tenant.quota
        now = self.rts.cluster.engine.now
        if quota.max_running is not None and tenant.running >= quota.max_running:
            tenant.quota_deferrals += 1
            return False
        if quota.memory_bytes is not None:
            if entry.footprint is None:
                entry.footprint = estimate_job_footprint(entry.materialize())
            if tenant.in_flight_bytes + entry.footprint > quota.memory_bytes:
                tenant.quota_deferrals += 1
                return False
        if quota.compute_share is not None:
            tenant.refill(now)
            if tenant.bucket_ns < -self._burst_credit_ns(tenant):
                tenant.quota_deferrals += 1
                return False
        return True

    def _prune_impossible(self) -> None:
        """Shed queue heads that can *never* satisfy their memory quota
        (footprint alone exceeds the cap) so they don't wedge the
        tenant's queue forever."""
        for name in sorted(self._queues):
            cap = self.tenants.get(name).quota.memory_bytes
            if cap is None:
                continue
            while name in self._queues:
                entry = self._queues[name][0]
                if entry.footprint is None:
                    entry.footprint = estimate_job_footprint(
                        entry.materialize()
                    )
                if entry.footprint > cap:
                    self._reject(self._pop_head(name), reason="memory_quota")
                else:
                    break

    def _next_entry(
        self,
    ) -> typing.Optional[typing.Tuple[Tenant, _QueueEntry]]:
        """The eligible queue head the policy would admit next.

        WFQ: strict priority class first, then lowest start tag
        (weighted-fair within the class), then arrival order.  FIFO:
        lowest arrival sequence over all tenants — global arrival
        order.
        """
        best = None
        best_key = None
        for name in sorted(self._queues):
            tenant = self.tenants.get(name)
            entry = self._queues[name][0]
            if not self._eligible(tenant, entry):
                continue
            if self.policy == "fifo":
                key = (entry.seq,)
            else:
                key = (
                    int(entry.admitted.priority), entry.start_tag, entry.seq,
                )
            if best_key is None or key < best_key:
                best, best_key = (tenant, entry), key
        return best

    # -- preemption ----------------------------------------------------------

    def _try_preempt_for(self, entry: _QueueEntry) -> bool:
        """Free a slot for a gate-blocked higher-class arrival by
        preempting the most recently admitted BEST_EFFORT job (bounded
        per victim and by the overcommit window).  True on success."""
        if self.policy != "wfq" or not self.enable_preemption:
            return False
        if entry.admitted.priority >= PriorityClass.BEST_EFFORT:
            return False
        if self._running - self.max_concurrent >= self.preempt_overcommit:
            return False
        for victim in reversed(self._active.values()):
            if victim.priority != PriorityClass.BEST_EFFORT:
                continue
            if victim.preemptions >= self.max_preemptions_per_job:
                continue
            if victim.execution is None:
                continue
            interrupted = victim.execution.preempt(by=entry.admitted.name)
            if interrupted == 0:
                continue  # nothing of it holds a slot; next victim
            victim.preemptions += 1
            self.stats.preemptions += 1
            victim_tenant = self.tenants.get(victim.tenant)
            victim_tenant.preempted += 1
            self.tenants.get(entry.admitted.tenant).preemptions_won += 1
            self._obs.counter("rack.preemptions").inc()
            self._obs.counter(f"tenant.preempted/{victim_tenant.name}").inc()
            self._obs.counter(
                f"tenant.preemptions_won/{entry.admitted.tenant}"
            ).inc()
            self._obs.event(
                "admission", "preempt", victim=victim.name,
                victim_tenant=victim.tenant, by=entry.admitted.name,
                tenant=entry.admitted.tenant, tasks=interrupted,
            )
            return True
        return False

    # -- the pump ------------------------------------------------------------

    def _pump(self) -> None:
        """Admit queued jobs while the policy and the gate allow it."""
        if (
            self.shed_below_capacity_fraction > 0.0
            and self._queued_count()
            and self._surviving_capacity_fraction()
            < self.shed_below_capacity_fraction
        ):
            self._shed_queue()
            return
        self._prune_impossible()
        while True:
            pick = self._next_entry()
            if pick is None:
                break
            tenant, entry = pick
            if self._gate_open():
                self._admit(tenant, entry)
                continue
            if self._try_preempt_for(entry):
                # The victim's slots free only once its tasks unwind;
                # admit now and ride the overcommit window.
                self._admit(tenant, entry, via_preemption=True)
                continue
            break
        self._maybe_schedule_quota_retry()

    def _admit(
        self, tenant: Tenant, entry: _QueueEntry, via_preemption: bool = False
    ) -> None:
        engine = self.rts.cluster.engine
        popped = self._pop_head(tenant.name)
        assert popped is entry
        admitted = entry.admitted
        admitted.admitted_at = engine.now
        admitted.admission_index = next(self._admission_seq)
        if self.policy == "wfq":
            self._vtime = max(self._vtime, entry.start_tag)
        self._running += 1
        self.stats.peak_concurrency = max(
            self.stats.peak_concurrency, self._running
        )
        tenant.running += 1
        tenant.admitted += 1
        tenant.queue_wait_ns += admitted.queue_wait
        if entry.footprint is not None:
            tenant.in_flight_bytes += entry.footprint
        self._queued_level.adjust(engine.now, -1)
        self._running_level.adjust(engine.now, +1)
        self._obs.counter("rack.admitted").inc()
        self._obs.counter(f"tenant.admitted/{tenant.name}").inc()
        self._obs.event("admission", "admit",
                        job=admitted.name, tenant=tenant.name,
                        priority=admitted.priority.name.lower(),
                        wait=admitted.queue_wait, preempted=via_preemption)
        execution = self.rts._submit(
            entry.materialize(), tenant=tenant.name,
            priority=admitted.priority,
        )
        admitted.execution = execution
        self._active[id(admitted)] = admitted
        graph = getattr(execution, "causal", None)
        if graph is not None:
            # The admission wait happened *before* submit, so it
            # lies outside the makespan; record it as a detached
            # annotation node plus a job-level field.
            graph.admission_wait_ns = admitted.queue_wait
            graph.add_node(
                "admission_wait", "admission_backoff",
                admitted.arrived_at, admitted.admitted_at,
                detached=True, job=admitted.name, tenant=tenant.name,
            )
        execution.done.add_callback(
            lambda event, job=admitted, e=entry: self._on_done(job, e, event)
        )

    def _on_done(
        self, admitted: AdmittedJob, entry: _QueueEntry, event
    ) -> None:
        self._running -= 1
        engine = self.rts.cluster.engine
        admitted.finished_at = engine.now
        self._active.pop(id(admitted), None)
        tenant = self.tenants.get(admitted.tenant)
        tenant.running -= 1
        if entry.footprint is not None:
            tenant.in_flight_bytes = max(
                0.0, tenant.in_flight_bytes - entry.footprint
            )
        # Charge actual compute-device occupancy against the tenant's
        # bucket and fairness accounting (failures still consumed it).
        execution = admitted.execution
        compute_ns = 0.0
        if execution is not None:
            compute_ns = sum(
                ts.duration for ts in execution.stats.tasks.values()
            )
        tenant.refill(engine.now)
        tenant.spend(compute_ns)
        tenant.served_ns += compute_ns
        self._running_level.adjust(engine.now, -1)
        self._obs.event("admission", "done",
                        job=admitted.name, tenant=tenant.name,
                        ok=bool(event._ok))
        # End-to-end latency (arrival -> finish) includes the admission
        # queue; tracked per workload next to the RTS's makespan SLO,
        # and per tenant (the QoS claim the tenancy layer is about).
        e2e = engine.now - admitted.arrived_at
        self._obs.slo.record(f"{admitted.name}@e2e", e2e, ok=bool(event._ok))
        self._obs.slo.record(f"tenant:{tenant.name}", e2e, ok=bool(event._ok))
        if event._ok:
            admitted.stats = event._value
            tenant.completed += 1
        else:
            event.defuse()
            tenant.failed += 1
        self._pump()
        admitted.settled.succeed()

    def _maybe_schedule_quota_retry(self) -> None:
        """Re-pump on a timer while admission is blocked *only* by a
        time-refilling compute bucket (no completion will wake us)."""
        if self._retry_scheduled or not self._queued_count():
            return
        if not self._gate_open():
            return  # a completion (or preemption unwind) re-pumps
        if not any(
            self.tenants.get(name).quota.compute_share is not None
            for name in self._queues
        ):
            return
        engine = self.rts.cluster.engine

        def retry():
            yield engine.timeout(self.quota_retry_ns)
            self._retry_scheduled = False
            self._pump()

        self._retry_scheduled = True
        engine.process(retry(), name="rack-quota-retry")

    # -- submission ----------------------------------------------------------

    def submit_job(
        self,
        name: str,
        source,
        *,
        tenant: typing.Optional[str] = None,
        priority=None,
        cost: float = 1.0,
    ) -> AdmittedJob:
        """Queue one job (a Job or a zero-arg factory) at the current
        simulation time; returns its admission handle.

        ``cost`` is the job's weight-normalized fair-queueing charge
        (1.0 = one "ticket"; bigger jobs may be charged more so the
        byte/second shares stay proportional).
        """
        if cost <= 0:
            raise ValueError(f"cost must be > 0: {cost}")
        engine = self.rts.cluster.engine
        job_obj = source if hasattr(source, "tasks") else None
        tenant_name = tenant or (
            getattr(job_obj, "tenant", None) if job_obj is not None else None
        )
        state = self.tenants.get(tenant_name)
        if priority is None and job_obj is not None:
            priority = getattr(job_obj, "priority", None)
        prio = coerce_priority(priority) if priority is not None else state.priority
        admitted = AdmittedJob(
            name=name, arrived_at=engine.now, tenant=state.name, priority=prio,
            settled=engine.event(),
        )
        self.stats.jobs.append(admitted)
        state.submitted += 1
        start = max(self._vtime, state.virtual_finish)
        finish = start + cost / state.weight
        state.virtual_finish = finish
        entry = _QueueEntry(
            admitted=admitted, source=source,
            start_tag=start, finish_tag=finish, seq=next(self._seq),
            job=job_obj,
        )
        self._queues.setdefault(state.name, collections.deque()).append(entry)
        self._queued_level.adjust(engine.now, +1)
        self._obs.counter(f"tenant.submitted/{state.name}").inc()
        self._pump()
        return admitted

    # -- trace execution ---------------------------------------------------

    def _run_trace(
        self,
        arrivals: typing.Sequence[tuple],
    ) -> RackStats:
        """Run ``(time, name, job_factory[, tenant[, priority]])``
        arrivals to completion.

        Returns the rack statistics; the simulation clock ends when the
        last admitted job finishes.
        """
        engine = self.rts.cluster.engine
        ordered = sorted(arrivals, key=lambda a: a[0])

        def arrival_process():
            settled = []
            for arrival in ordered:
                time, name, factory = arrival[0], arrival[1], arrival[2]
                tenant = arrival[3] if len(arrival) > 3 else None
                priority = arrival[4] if len(arrival) > 4 else None
                if time > engine.now:
                    yield engine.timeout(time - engine.now)
                settled.append(self.submit_job(
                    name, factory, tenant=tenant, priority=priority
                ).settled)
            yield engine.all_of(settled)

        arrivals_proc = engine.process(arrival_process(), name="rack-arrivals")
        # The sampler is the rack's telemetry cadence: every tick folds
        # every watcher (memory utilization among them) and sweeps the
        # burn-rate rules.
        sampler_proc = engine.process(
            self._obs.telemetry.pump(engine, self.sample_interval_ns),
            name="rack-sampler",
        )
        # The arrivals end when the last job settles; the sampler alone
        # must not keep the run alive.
        engine.run(until=arrivals_proc)
        sampler_proc.kill()
        engine.run()
        # End-of-trace: one final fold so the last partial window and
        # any still-open alert spans land in the export.
        self._obs.telemetry.finalize(engine.now)
        return self.stats

    # -- per-tenant observability --------------------------------------------

    def _collect_tenant_metrics(self):
        """Per-tenant share/quota gauges for the obs registry snapshot."""
        total_served = sum(t.served_ns for t in self.tenants) or 0.0
        for tenant in self.tenants:
            name = tenant.name
            yield f"tenant.weight/{name}", tenant.weight
            yield f"tenant.running/{name}", float(tenant.running)
            yield f"tenant.served_ns/{name}", tenant.served_ns
            if total_served > 0:
                yield (
                    f"tenant.share/{name}", tenant.served_ns / total_served
                )
            if tenant.quota.compute_share is not None:
                yield f"tenant.bucket_ns/{name}", tenant.bucket_ns
            if tenant.quota.memory_bytes is not None:
                yield (
                    f"tenant.in_flight_bytes/{name}", tenant.in_flight_bytes
                )

    def tenant_report(self) -> typing.Dict[str, dict]:
        """Per-tenant accounting summary (claim tests and dashboards)."""
        total_served = sum(t.served_ns for t in self.tenants)
        report = {}
        for tenant in self.tenants:
            report[tenant.name] = {
                "weight": tenant.weight,
                "priority": tenant.priority.name.lower(),
                "submitted": tenant.submitted,
                "admitted": tenant.admitted,
                "completed": tenant.completed,
                "failed": tenant.failed,
                "shed": tenant.shed,
                "preempted": tenant.preempted,
                "preemptions_won": tenant.preemptions_won,
                "quota_deferrals": tenant.quota_deferrals,
                "served_ns": tenant.served_ns,
                "share": (
                    tenant.served_ns / total_served if total_served else 0.0
                ),
                "mean_queue_wait": (
                    tenant.queue_wait_ns / tenant.admitted
                    if tenant.admitted else 0.0
                ),
            }
        return report
