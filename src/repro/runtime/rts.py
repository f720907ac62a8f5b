"""The Runtime System facade: submit jobs, run them, collect metrics.

:class:`RuntimeSystem` wires together the memory manager, cost model,
placement policy, scheduler, and handover manager, and executes
dataflow jobs on the simulated cluster:

* the scheduler maps tasks to compute devices *before* execution
  (deployment decision, §3 challenge 2);
* every region a task requests is placed by the declarative placement
  policy from the viewpoint of the devices that will touch it
  (Figure 3), with output regions placed for *both* the producer and
  the consumers so that handover can be zero-copy (Figure 4);
* when the last owner of a region drops, it is freed (RTS duty 3);
* tasks run as simulation processes; their behaviour is either the
  default derived from the :class:`~repro.dataflow.workspec.WorkSpec`
  or a user generator function receiving a :class:`TaskContext`.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.dataflow.graph import Job, Task
from repro.dataflow.workspec import RegionUsage
from repro.hardware.cluster import Cluster
from repro.hardware.compute import ComputePhase
from repro.hardware.spec import OpClass
from repro.memory.interfaces import AccessMode, AccessPattern, Accessor
from repro.memory.manager import MemoryManager
from repro.memory.properties import MemoryProperties
from repro.memory.region import MemoryRegion, RegionHandle, RegionLostError
from repro.memory.regions import RegionType, region_properties
from repro.runtime.costmodel import CostModel
from repro.runtime.placement import (
    DeclarativePlacement,
    PlacementPolicy,
    PlacementRequest,
)
from repro.obs.span import NOOP_SPAN
from repro.runtime.health import DeviceDegraded
from repro.runtime.scheduler import HeftScheduler, Scheduler
from repro.runtime.tenancy import DEFAULT_TENANT, Preempted, coerce_priority
from repro.runtime.transfer import HandoverManager
from repro.sim.events import Event, Interrupt


class TaskFailure(Exception):
    """A task's execution failed; carries the original cause."""


@dataclasses.dataclass
class TaskStats:
    name: str
    device: str = ""
    #: ``None`` until the corresponding lifecycle point is reached.  A
    #: task whose upstream fails never becomes ready or starts; its
    #: timestamps stay ``None`` instead of a meaningless 0.0.
    ready_at: typing.Optional[float] = None
    started_at: typing.Optional[float] = None
    finished_at: typing.Optional[float] = None
    #: How many times the task was (re)started; >1 means in-flight
    #: recovery retried it after an infrastructure failure.
    attempts: int = 0
    #: How many times the task was preempted by a higher-class job and
    #: re-queued (does not consume the recovery attempt budget).
    preemptions: int = 0
    #: The backoff the task's last retry actually slept (feeds the
    #: decorrelated-jitter schedule: next sleep ~ U(base, 3·previous)).
    last_backoff_ns: float = 0.0

    @property
    def started(self) -> bool:
        return self.started_at is not None

    @property
    def duration(self) -> float:
        """Execution time; 0.0 for tasks that never started."""
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.started_at

    @property
    def queue_delay(self) -> typing.Optional[float]:
        """Ready → start wait; ``None`` for tasks that never started."""
        if self.ready_at is None or self.started_at is None:
            return None
        return self.started_at - self.ready_at


@dataclasses.dataclass
class JobStats:
    job_name: str
    submitted_at: float = 0.0
    finished_at: float = 0.0
    assignment: typing.Dict[str, str] = dataclasses.field(default_factory=dict)
    tasks: typing.Dict[str, TaskStats] = dataclasses.field(default_factory=dict)
    zero_copy_handover: int = 0
    copy_handover: int = 0
    bytes_copied: float = 0.0
    regions_allocated: int = 0
    #: In-flight recovery activity (nonzero only with a RecoveryPolicy).
    task_retries: int = 0
    replacements: int = 0
    degraded_reads: int = 0
    error: typing.Optional[BaseException] = None
    #: Multi-tenancy: which tenant submitted the job, at which class,
    #: and how many times the whole job was preempted (victim side).
    tenant: str = DEFAULT_TENANT
    priority: str = ""
    preemptions: int = 0

    @property
    def makespan(self) -> float:
        if self.finished_at < self.submitted_at:
            return 0.0  # still in flight; a makespan is not defined yet
        return self.finished_at - self.submitted_at

    @property
    def ok(self) -> bool:
        return self.error is None


class TaskContext:
    """What a running task sees: its regions and simulation verbs.

    All memory-touching methods are generators and must be used with
    ``yield from`` inside the task function.
    """

    def __init__(self, execution: "_JobExecution", task: Task, device_name: str):
        self._execution = execution
        self._rts = execution.rts
        self.task = task
        self.compute = device_name
        #: This task's span (parent for phase spans); NOOP when disabled.
        self.span = NOOP_SPAN
        self.inputs: typing.List[RegionHandle] = []
        self._scratch: typing.Optional[MemoryRegion] = None
        self._output: typing.Optional[MemoryRegion] = None
        self._extra_regions: typing.List[MemoryRegion] = []
        #: Nominal (spec-sheet) cost of the work this attempt has done
        #: so far — what a retry would have to redo at healthy speed.
        #: Feeds the economics gate of the voluntary fail-slow aborts.
        self.attempt_nominal_ns = 0.0

    # -- identity / time ------------------------------------------------------

    @property
    def owner(self) -> str:
        return self.task.qualified_name

    @property
    def now(self) -> float:
        return self._rts.cluster.engine.now

    def log(self, message: str, **fields) -> None:
        """Emit a structured trace message attributed to this task."""
        self._rts.cluster.trace.emit(self.now, "task", message,
                                     task=self.owner, **fields)

    # -- regions ----------------------------------------------------------

    def input(self) -> RegionHandle:
        """The (single) input handle; raises if there is none."""
        if not self.inputs:
            raise TaskFailure(f"{self.owner} has no input region")
        return self.inputs[0]

    def _avoided_devices(self) -> typing.Tuple[str, ...]:
        """Devices this task fled in earlier attempts (fail-slow aborts
        or implicated failures).  Passed to placement as a soft avoid
        list: the monitor's flag can lag the abort by a detection
        window, and without this a retry is routinely placed straight
        back onto the device it just escaped."""
        failed_on = self._execution._failed_on.get(self.task.name, ())
        return tuple(sorted(failed_on))

    def _scratch_properties(self) -> MemoryProperties:
        """Table 2 Private Scratch defaults, tightened by the task card."""
        base = region_properties(RegionType.PRIVATE_SCRATCH)
        card = self.task.properties
        return dataclasses.replace(
            base,
            latency=card.mem_latency if card.mem_latency is not None else base.latency,
            confidential=card.confidential,
        )

    def private_scratch(self, size: typing.Optional[int] = None) -> RegionHandle:
        """Allocate (once) and return this task's Private Scratch."""
        if self._scratch is None:
            if size is None:
                size = self.task.work.scratch_size
            if size <= 0:
                raise TaskFailure(f"{self.owner}: no scratch size declared or given")
            props = self._scratch_properties()
            region = self._rts.placement.place(PlacementRequest(
                size=size, properties=props, owner=self.owner,
                observers=(self.compute,),
                name=f"{self.owner}#scratch",
                region_type=RegionType.PRIVATE_SCRATCH,
                usage=self.task.work.scratch,
                avoid=self._avoided_devices(),
            ))
            self._scratch = region
        return self._scratch.handle(self.owner)

    def output(self, size: typing.Optional[int] = None) -> RegionHandle:
        """Allocate (once) and return this task's output region.

        Placed for this device *and* all downstream consumers' devices,
        which is what makes zero-copy handover possible.
        """
        if self._output is None:
            if size is None:
                size = self.task.work.output_size
            if size <= 0:
                raise TaskFailure(f"{self.owner}: no output size declared or given")
            observers = [self.compute] + [
                self._execution.assignment[d.name] for d in self.task.downstream()
            ]
            props = self.task.properties.output_properties()
            if not self.task.properties.persistent:
                # Persistent media are slow by nature (Table 1); the
                # durability requirement overrides the speed defaults.
                props = props.merged_with(region_properties(RegionType.OUTPUT))
            region = self._rts.placement.place(PlacementRequest(
                size=size, properties=props, owner=self.owner,
                observers=tuple(dict.fromkeys(observers)),
                name=f"{self.owner}#out",
                region_type=RegionType.OUTPUT,
                usage=self.task.work.output,
                avoid=self._avoided_devices(),
            ))
            self._output = region
        return self._output.handle(self.owner)

    def request(
        self,
        region_type,
        size: int,
        name: typing.Optional[str] = None,
    ) -> RegionHandle:
        """Allocate a region of any named type, owned by this task.

        ``region_type`` may be a predefined
        :class:`~repro.memory.regions.RegionType`, a type returned by
        :func:`~repro.memory.regions.define_region_type`, or its name as
        a string.  The region is task-owned and freed automatically when
        the task finishes (like Private Scratch).
        """
        from repro.memory.regions import lookup_region_type

        if isinstance(region_type, str):
            region_type = lookup_region_type(region_type)
        props = region_properties(region_type)
        if self.task.properties.confidential and not props.confidential:
            props = dataclasses.replace(props, confidential=True)
        region = self._rts.placement.place(PlacementRequest(
            size=size, properties=props, owner=self.owner,
            observers=(self.compute,),
            name=name or f"{self.owner}#{region_type.value}",
            region_type=region_type,
        ))
        self._extra_regions.append(region)
        return region.handle(self.owner)

    def global_state(self) -> RegionHandle:
        """Handle to the job's Global State region (Table 2)."""
        region = self._execution.global_state
        if region is None:
            raise TaskFailure(
                f"job {self.task.job.name!r} declared no global state"
            )
        return region.handle(self._execution.job_owner)

    def publish(self, slot: str, size: typing.Optional[int] = None) -> RegionHandle:
        """Allocate a Global Scratch slot and make it visible to consumers."""
        return self._execution.publish_slot(self, slot, size)

    def consume(self, slot: str):
        """Generator: wait until ``slot`` is published, return its handle."""
        handle = yield from self._execution.consume_slot(self, slot)
        return handle

    # -- verbs ------------------------------------------------------------

    def read(
        self,
        handle: RegionHandle,
        nbytes: typing.Optional[int] = None,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
        access_size: int = 64,
        mode: typing.Optional[AccessMode] = None,
    ):
        """Generator: read through the region's access interface."""
        duration = yield from self._touch(
            handle, nbytes, pattern, access_size, mode, is_write=False
        )
        return duration

    def write(
        self,
        handle: RegionHandle,
        nbytes: typing.Optional[int] = None,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
        access_size: int = 64,
        mode: typing.Optional[AccessMode] = None,
    ):
        """Generator: write through the region's access interface."""
        duration = yield from self._touch(
            handle, nbytes, pattern, access_size, mode, is_write=True
        )
        return duration

    def _touch(self, handle, nbytes, pattern, access_size, mode, is_write):
        sp = self._rts.cluster.obs.span("profile", "memory_phase",
                                        parent=self.span)
        began = self.now
        accessor = Accessor(self._rts.cluster, handle, self.compute)
        region_size = handle.region.size
        remaining = region_size if nbytes is None else nbytes
        requested = remaining
        total = 0.0
        monitor = self._rts.health
        # With fail-slow detection on, large touches run in slices so
        # evidence lands — and mitigation can react — *mid-access*
        # instead of only at the end.  Same bytes at the same rates;
        # only the per-access latency term repeats per slice.
        sliced = (
            monitor is not None
            and getattr(monitor, "degradation", None) is not None
        )
        step = (
            max(1, region_size // self.TOUCH_SLICES)
            if sliced else region_size
        )
        # Larger-than-region touches wrap around (multiple passes).
        redirect = None
        while remaining > 0:
            if not is_write:
                # Re-check the path between slices: a device flagged
                # fail-slow mid-read stops hurting after one slow slice
                # when a healthy replica can serve the rest.
                target = self._read_redirect(handle.region)
                if target != redirect:
                    redirect = target
                    accessor = Accessor(
                        self._rts.cluster, handle, self.compute,
                        source_device=redirect,
                    )
                    if redirect is not None:
                        self._rts.cluster.obs.counter(
                            "hedge.read_around").inc()
                        self.log("read_around", region=handle.region.name,
                                 primary=handle.region.device.name,
                                 replica=redirect)
            chunk = min(remaining, step)
            op = accessor.write if is_write else accessor.read
            duration = yield from op(
                chunk, pattern=pattern, mode=mode, access_size=access_size
            )
            total += duration
            remaining -= chunk
            self.attempt_nominal_ns += accessor.last_expected_ns
            chunks_left = (remaining + step - 1) // step
            if (
                is_write and remaining > 0
                and self._abort_write_if_degraded(
                    handle.region, duration, accessor.last_expected_ns
                )
                and self._abort_pays_off(
                    duration * chunks_left,
                    accessor.last_expected_ns * chunks_left,
                )
            ):
                # Writes have no replica to redirect to — the escape
                # hatch is a voluntary abort: the retry re-places the
                # output region off the flagged device (placement
                # treats it as a last resort) and re-runs the attempt.
                if sp:
                    region = handle.region
                    sp.set(
                        task=self.owner, device=self.compute,
                        region=region.name, backing=region.device.name,
                        op="write", nbytes=requested, duration=total,
                        aborted=True,
                    )
                sp.close()
                raise DeviceDegraded(handle.region.device.name)
        if sp:
            region = handle.region
            sp.set(
                task=self.owner, device=self.compute,
                region=region.name, backing=region.device.name,
                rtype=region.region_type.value if region.region_type else "",
                op="write" if is_write else "read",
                nbytes=requested, duration=total,
                pattern=pattern.value, access_size=access_size,
            )
        sp.close()
        if self._execution.causal is not None:
            region = handle.region
            self._execution._causal_chain(
                self.task.name, "memory_phase", "transfer",
                began, self.now,
                task=self.owner, device=self.compute,
                op="write" if is_write else "read",
                nbytes=requested, region=region.name,
                backing=region.device.name,
            )
        return total

    #: Memory touches run in this many slices while fail-slow detection
    #: is on, so the detector gets evidence (and the read-around /
    #: write-abort mitigations a decision point) every slice instead of
    #: once per whole-region access.
    TOUCH_SLICES = 8

    def _retry_affordable(self) -> bool:
        """Whether recovery could actually pay for one more attempt.

        A voluntary fail-slow abort that recovery cannot afford (no
        policy, attempt cap reached, dry retry budget) would turn a
        slow-but-correct attempt into a job failure — so the escape
        hatches stay shut without headroom.
        """
        policy = self._rts.recovery
        if policy is None:
            return False
        stats = self._execution.stats.tasks.get(self.task.name)
        if stats is not None and stats.attempts >= policy.max_task_attempts:
            return False
        budget = self._execution.retry_budget
        if budget is not None and not budget.can_spend(self.now):
            return False
        return True

    def _abort_pays_off(
        self, projected_ns: float, nominal_remaining_ns: float
    ) -> bool:
        """Economics gate for voluntary aborts.

        Fleeing a flagged device is only worth it when riding out the
        *remaining* slices at the observed slow rate costs more than a
        whole fresh attempt at nominal speed — the work already done
        plus the remainder plus one retry backoff.  Without this gate a
        mildly slow device triggers aborts that spend more (and drain
        the retry budget that a genuinely pathological episode will
        need) than they save.
        """
        policy = self._rts.recovery
        retry_cost = (
            self.attempt_nominal_ns + nominal_remaining_ns
            + (policy.backoff_base_ns if policy is not None else 0.0)
        )
        return projected_ns > retry_cost

    def _abort_if_degraded(
        self, observed_ns: float, nominal_ns: float
    ) -> bool:
        """Whether this attempt should abandon its flagged compute device.

        True only when the mitigation stack can actually act on the
        evidence: detection flagged this device, *this* slice really ran
        slow (a stale flag over a since-restored device must not abort
        healthy work), recovery can afford the re-placement, and the
        task has not already fled this device once (a repeat abort
        would burn retry budget for nothing when no better candidate
        existed).
        """
        monitor = self._rts.health
        if monitor is None or getattr(monitor, "degradation", None) is None:
            return False
        if nominal_ns <= 0 or (
            observed_ns < monitor.degradation.degrade_ratio * nominal_ns
        ):
            return False
        if not monitor.is_degraded(self.compute):
            return False
        if not self._retry_affordable():
            return False
        failed_on = self._execution._failed_on.get(self.task.name, set())
        return self.compute not in failed_on

    def _abort_write_if_degraded(
        self, region, observed_ns: float, expected_ns: float
    ) -> bool:
        """Whether an in-flight write should flee its flagged backing.

        The write-side analogue of :meth:`_abort_if_degraded`: the
        evidence must have flagged the region's device (or its route),
        *this* slice must really have run slow against the cost model's
        nominal expectation, recovery must be able to afford the retry,
        and the task must not have fled this backing device already.
        """
        monitor = self._rts.health
        if monitor is None or getattr(monitor, "degradation", None) is None:
            return False
        if expected_ns <= 0 or (
            observed_ns < monitor.degradation.degrade_ratio * expected_ns
        ):
            return False
        if not self._rts.handover.path_degraded(
            region.device.name, self.compute
        ):
            return False
        if not self._retry_affordable():
            return False
        failed_on = self._execution._failed_on.get(self.task.name, set())
        return region.device.name not in failed_on

    def _read_redirect(self, region) -> typing.Optional[str]:
        """Replica device to serve reads from, or ``None`` to read in place.

        The hedged read-around: when evidence has flagged the region's
        primary path fail-slow and a backup replica of the same bytes
        sits on a device whose path is healthy, the remaining read
        passes are served from the replica — the mid-access analogue of
        the hedged handover copy, at zero extra data movement.  Engaged
        only with the full gray-failure stack (detection + hedge policy
        + backup store); otherwise reads always go to the primary.
        """
        handover = self._rts.handover
        if handover.hedge is None or handover.replica_source is None:
            return None
        if not handover.path_degraded(region.device.name, self.compute):
            return None
        replica = handover.replica_source(region)
        if replica is None or replica == region.device.name:
            return None
        monitor = self._rts.cluster.health_monitor
        if monitor.is_degraded(replica):
            return None
        # Only links *unique* to the replica route can veto: the
        # monitor blames every link on a slow route, so a flagged link
        # both paths share says nothing about which is faster — and a
        # shared slow hop costs the same either way.
        degraded_links = monitor.degraded_links()
        if degraded_links:
            topo = self._rts.cluster.topology
            try:
                primary_links = {
                    link.name
                    for link in topo.route(self.compute, region.device.name)
                }
                replica_links = {
                    link.name for link in topo.route(self.compute, replica)
                }
            except Exception:
                return None
            if any(
                name in degraded_links
                for name in replica_links - primary_links
            ):
                return None
        return replica

    def read_async(
        self,
        handle: RegionHandle,
        nbytes: typing.Optional[int] = None,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
        access_size: int = 64,
    ):
        """Start a background read; returns an event to ``yield`` later.

        This is the paper's §2.2(3) interleaving: kick off the fetch,
        keep computing, then wait for the event when the data is needed::

            pending = ctx.read_async(ctx.input())
            yield from ctx.compute_ops(1e6)   # overlaps with the fetch
            yield pending
        """
        generator = self._touch(
            handle, nbytes, pattern, access_size, AccessMode.ASYNC,
            is_write=False,
        )
        return self._rts.cluster.engine.process(
            generator, name=f"{self.owner}#prefetch"
        )

    def write_async(
        self,
        handle: RegionHandle,
        nbytes: typing.Optional[int] = None,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
        access_size: int = 64,
    ):
        """Start a background write; returns an event to ``yield`` later."""
        generator = self._touch(
            handle, nbytes, pattern, access_size, AccessMode.ASYNC,
            is_write=True,
        )
        return self._rts.cluster.engine.process(
            generator, name=f"{self.owner}#writeback"
        )

    #: Compute phases run as this many slices, each priced at the
    #: device's *current* speed — so a fault or restore landing
    #: mid-phase changes the remainder, the way real hardware behaves,
    #: and the detector gets evidence per slice instead of per phase.
    COMPUTE_SLICES = 8

    def compute_ops(self, ops: float, op_class: typing.Optional[OpClass] = None):
        """Generator: burn ``ops`` operations on this task's device.

        When latency evidence flags this device fail-slow mid-phase
        (and the recovery machinery can still move the task), the
        attempt aborts with :class:`~repro.runtime.health.DeviceDegraded`
        rather than riding the slow device to the end — the retry
        re-places it onto a healthy peer, budget permitting.

        Without a :class:`~repro.runtime.health.DegradationPolicy`
        nothing reads the per-slice evidence, so the slices run as one
        :class:`~repro.hardware.compute.ComputePhase` event that ends
        where the last slice's timeout would.
        """
        if op_class is None:
            op_class = self.task.work.op_class
        sp = self._rts.cluster.obs.span("profile", "compute_phase",
                                        parent=self.span)
        device = self._rts.cluster.compute[self.compute]
        began = self.now
        monitor = self._rts.health
        slices = self.COMPUTE_SLICES if ops > 0 else 1
        if slices > 1 and getattr(monitor, "degradation", None) is None:
            phase = ComputePhase(device, op_class, ops, slices)
            try:
                yield phase
            except BaseException:
                # Preempted or killed: only the slices that ended count.
                for _ in range(phase.stop()):
                    self.attempt_nominal_ns += phase.nominal
                raise
            for _ in range(slices):
                self.attempt_nominal_ns += phase.nominal
            duration = phase.duration
        else:
            duration = yield from self._sliced_phase(
                device, op_class, ops, slices, monitor, sp)
        if sp:
            sp.set(task=self.owner, device=self.compute,
                   op=op_class.value, ops=ops, duration=duration)
        sp.close()
        if self._execution.causal is not None:
            self._execution._causal_chain(
                self.task.name, "compute_phase", "compute",
                began, self.now,
                task=self.owner, device=self.compute,
                op=op_class.value, ops=ops,
            )
        return duration

    def _sliced_phase(self, device, op_class, ops, slices, monitor, sp):
        """Generator: the phase as ``slices`` timeouts, feeding the
        fail-slow detector and offering an abort after each slice."""
        duration = 0.0
        for i in range(slices):
            slice_ops = ops / slices
            slice_duration = device.compute_time(op_class, slice_ops)
            yield self._rts.cluster.engine.timeout(slice_duration)
            duration += slice_duration
            nominal = device.nominal_compute_time(op_class, slice_ops)
            self.attempt_nominal_ns += nominal
            if monitor is not None and slice_ops > 0:
                # Evidence for the fail-slow detector: physical duration
                # vs the spec-sheet estimate (no-op with detection off).
                monitor.observe_latency(
                    self.compute, slice_duration, nominal)
            slices_left = slices - (i + 1)
            if slices_left > 0 and self._abort_if_degraded(
                slice_duration, nominal
            ) and self._abort_pays_off(
                slice_duration * slices_left, nominal * slices_left
            ):
                if sp:
                    sp.set(task=self.owner, device=self.compute,
                           op=op_class.value, ops=ops, duration=duration,
                           aborted=True)
                sp.close()
                raise DeviceDegraded(self.compute)
        return duration

    def sleep(self, ns: float):
        """Generator: idle for ``ns`` simulated nanoseconds."""
        yield self._rts.cluster.engine.timeout(ns)


def _preemption_cause(exc: BaseException) -> typing.Optional[Preempted]:
    """The Preempted cause if ``exc`` is a preemption, else None."""
    if isinstance(exc, Preempted):
        return exc
    if isinstance(exc, Interrupt) and isinstance(exc.cause, Preempted):
        return exc.cause
    return None


class _JobExecution:
    """One running job: mailboxes, per-task processes, completion event."""

    def __init__(
        self,
        rts: "RuntimeSystem",
        job: Job,
        tenant: typing.Optional[str] = None,
        priority=None,
    ):
        # The job is validated once, by the scheduler's assign() below.
        self.rts = rts
        self.job = job
        self.job_owner = f"job:{job.name}#{job.id}"
        # Tenancy: explicit argument > job-level annotation > default.
        self.tenant = tenant or getattr(job, "tenant", None) or DEFAULT_TENANT
        if priority is None:
            priority = getattr(job, "priority", None)
        self.priority = coerce_priority(priority) if priority is not None else None
        self.stats = JobStats(
            job_name=job.name, submitted_at=rts.cluster.engine.now,
            tenant=self.tenant,
            priority=self.priority.name.lower() if self.priority else "",
        )
        # Root of this job's span tree (explicit close: the job scope
        # crosses simulation processes).  No-op when "job" is disabled.
        self.span = rts.cluster.obs.begin_span(
            "job", "run", job=job.name, tenant=self.tenant
        )
        self.assignment = rts.scheduler.assign(job, rts.cluster, rts.costmodel)
        self.stats.assignment = dict(self.assignment)
        # Causal DAG for critical-path attribution (None when the
        # "causal" trace category is off; every call site guards on it).
        self.causal = rts.cluster.obs.causal.job_begin(
            self.job_owner, job.name, self.stats.submitted_at
        )
        if self.causal is not None:
            self.causal.fields["tenant"] = self.tenant
        #: task name -> live attempt process (set only while the task
        #: holds a compute slot; the window preemption may interrupt).
        self._attempt_procs: typing.Dict[str, typing.Any] = {}
        #: task name -> id of the task's latest causal node (chain head).
        self._cnodes: typing.Dict[str, int] = {}
        #: consumer task name -> handover nodes that delivered its inputs.
        self._delivered: typing.Dict[str, typing.List[int]] = {}
        #: global-scratch slot -> publisher's chain node at publish time.
        self._slot_nodes: typing.Dict[str, int] = {}
        if self.causal is not None:
            est = getattr(rts.scheduler, "last_estimate", None)
            if est is not None and est.get("job") == job.name:
                self.causal.fields["est_makespan"] = est["makespan"]

        engine = rts.cluster.engine
        self.done: Event = engine.event()
        self._task_done: typing.Dict[str, Event] = {
            name: engine.event() for name in job.tasks
        }
        #: task -> list of input region handles delivered by upstreams
        self._inboxes: typing.Dict[str, typing.List[RegionHandle]] = {
            name: [] for name in job.tasks
        }
        self._expected_inputs: typing.Dict[str, int] = {}
        #: task -> devices it already failed on (avoided when re-placing)
        self._failed_on: typing.Dict[str, typing.Set[str]] = {}
        #: global scratch slots: name -> (event, region)
        self._slots: typing.Dict[str, typing.List] = {
            slot: [engine.event(), None] for slot in job.global_scratch_slots()
        }
        self.global_state: typing.Optional[MemoryRegion] = None
        self._handover_base = (
            rts.handover.stats.zero_copy,
            rts.handover.stats.copies,
            rts.handover.stats.bytes_copied,
        )
        self._regions_base = rts.placement.placements
        #: Set once the job's backups were released; a concurrent backup
        #: that lands after this point re-releases itself (see
        #: :meth:`_follow_backup`).
        self._backups_released = False
        #: Per-job retry token bucket (None = unlimited, the legacy shape).
        self.retry_budget = (
            rts.recovery.make_retry_budget() if rts.recovery is not None else None
        )
        self._start()

    # -- startup -----------------------------------------------------------

    def _start(self) -> None:
        if self.job.global_state_size > 0:
            observers = tuple(dict.fromkeys(self.assignment.values()))
            self.global_state = self.rts.placement.place(PlacementRequest(
                size=self.job.global_state_size,
                properties=region_properties(RegionType.GLOBAL_STATE),
                owner=self.job_owner,
                observers=observers,
                name=f"{self.job.name}#state",
                region_type=RegionType.GLOBAL_STATE,
            ))
        engine = self.rts.cluster.engine
        for task in self.job.tasks.values():
            upstream_with_output = [
                u for u in task.upstream() if u.work.output is not None
            ]
            self._expected_inputs[task.name] = len(upstream_with_output)
            engine.process(self._run_task(task), name=task.qualified_name)
        engine.process(self._finalize(), name=f"{self.job.name}#finalize")

    # -- global scratch slots -------------------------------------------------

    def publish_slot(
        self, ctx: TaskContext, slot: str, size: typing.Optional[int]
    ) -> RegionHandle:
        if slot not in self._slots:
            raise TaskFailure(f"slot {slot!r} was not declared by any task")
        event, existing = self._slots[slot]
        if existing is not None:
            if existing.alive:
                if slot in ctx.task.work.scratch_puts:
                    # A retried producer re-publishing its own slot is
                    # idempotent; a second *distinct* publisher is a bug.
                    return existing.handle(self.job_owner)
                raise TaskFailure(f"slot {slot!r} already published")
            # The published region was lost to a fault: publish afresh.
            self._slots[slot][1] = None
        if size is None:
            size = self.job.global_scratch_slots()[slot]
        region = self.rts.placement.place(PlacementRequest(
            size=size,
            properties=region_properties(RegionType.GLOBAL_SCRATCH),
            owner=self.job_owner,
            observers=tuple(dict.fromkeys(self.assignment.values())),
            name=f"{self.job.name}#{slot}",
            region_type=RegionType.GLOBAL_SCRATCH,
            usage=ctx.task.work.scratch_puts.get(slot),
        ))
        self._slots[slot][1] = region
        if not event.triggered:
            event.succeed(region)
        if self.causal is not None:
            publisher = self._cnodes.get(ctx.task.name)
            if publisher is not None:
                self._slot_nodes[slot] = publisher
        return region.handle(self.job_owner)

    def consume_slot(self, ctx: TaskContext, slot: str):
        if slot not in self._slots:
            raise TaskFailure(f"unknown global scratch slot {slot!r}")
        event, region = self._slots[slot]
        if region is None:
            waited_from = self.rts.cluster.engine.now
            yield event
            # Re-read: the slot may have been re-published since the
            # event first fired (fault recovery replaces lost regions).
            region = self._slots[slot][1]
            if self.causal is not None:
                publisher = self._slot_nodes.get(slot)
                self._causal_chain(
                    ctx.task.name, "slot_wait", "dependency_wait",
                    waited_from, self.rts.cluster.engine.now,
                    extra_parents=(
                        () if publisher is None
                        else ((publisher, "data_dep"),)
                    ),
                    task=ctx.owner, device=ctx.compute, slot=slot,
                )
        return region.handle(self.job_owner)

    # -- causal emission ---------------------------------------------------

    def _causal_chain(
        self,
        task_name: str,
        kind: str,
        bucket: typing.Optional[str],
        begin: float,
        end: float,
        extra_parents: typing.Iterable = (),
        chain_kind: str = "seq",
        **fields,
    ) -> typing.Optional[int]:
        """Append a node to ``task_name``'s causal chain.  No-op (None)
        when causal tracing is off or the graph is saturated."""
        if self.causal is None:
            return None
        parents = []
        chain = self._cnodes.get(task_name)
        if chain is not None:
            parents.append((chain, chain_kind))
        parents.extend(extra_parents)
        nid = self.causal.add_node(kind, bucket, begin, end,
                                   parents=parents, **fields)
        if nid is not None:
            self._cnodes[task_name] = nid
        return nid

    def _chain_end(self, task_name: str, default: float) -> float:
        """End time of the task's latest causal node (clamped to now)."""
        chain = self._cnodes.get(task_name)
        if self.causal is None or chain is None:
            return default
        return min(self.causal.nodes[chain].end, default)

    # -- preemption ----------------------------------------------------------

    def preempt(self, by: str = "") -> int:
        """Interrupt every task attempt currently holding a compute slot.

        Called by the admission layer when a higher-class arrival needs
        the slots this (``BEST_EFFORT``) job occupies.  Preempted tasks
        release their slot, scratch, and output through the normal
        attempt-failure unwind, then re-queue behind the preemptor;
        tasks still waiting on dependencies are untouched (they and the
        preempted tasks' not-yet-started successors simply keep waiting
        on the done-events).  Returns the number of tasks interrupted
        (0 = nothing was running, the caller should pick another
        victim).
        """
        interrupted = 0
        for name, process in list(self._attempt_procs.items()):
            if process is not None and process.is_alive:
                process.interrupt(Preempted(by))
                interrupted += 1
        if interrupted:
            self.stats.preemptions += 1
            obs = self.rts.cluster.obs
            obs.counter("preemption.jobs").inc()
            obs.event(
                "recovery", "job_preempted", job=self.job.name,
                tenant=self.tenant, by=by, tasks=interrupted,
            )
        return interrupted

    # -- task execution ------------------------------------------------------

    def _run_task(self, task: Task):
        engine = self.rts.cluster.engine
        obs = self.rts.cluster.obs
        spawned = engine.now
        stats = TaskStats(name=task.name, device=self.assignment[task.name])
        self.stats.tasks[task.name] = stats
        policy = self.rts.recovery
        try:
            # 1. Wait for every upstream task (data and control edges).
            upstream_events = [self._task_done[u.name] for u in task.upstream()]
            if upstream_events:
                yield engine.all_of(upstream_events)
            stats.ready_at = engine.now
            if self.causal is not None:
                # Data edges come from the handover nodes that delivered
                # our inputs; control-only upstreams contribute their
                # chain heads.
                parents = [
                    (nid, "data_dep")
                    for nid in self._delivered.get(task.name, ())
                ]
                for up in task.upstream():
                    if up.work.output is None:
                        up_node = self._cnodes.get(up.name)
                        if up_node is not None:
                            parents.append((up_node, "data_dep"))
                self._causal_chain(
                    task.name, "dep_wait", "dependency_wait",
                    spawned, engine.now, extra_parents=parents,
                    task=task.qualified_name,
                )

            # 2. Run attempts.  Recoverable infrastructure failures are
            # retried with backoff, re-placement onto surviving devices,
            # and degraded reads of lost inputs from backups; anything
            # else (or an exhausted budget) falls through to the job-level
            # failure path below.  The repair itself runs inside the
            # loop: a fault landing mid-restore burns an attempt and is
            # retried too (with the dead device replaced by then).
            if policy is not None:
                monitor = self.rts.cluster.health_monitor
                if (
                    monitor is not None
                    and getattr(monitor, "degradation", None) is not None
                    and monitor.is_degraded(self.assignment[task.name])
                ):
                    # Degraded-last applies at dispatch time too: the
                    # assignment was made at submit, and evidence that
                    # arrived while we waited on upstream tasks should
                    # move us off a since-flagged device *before* we
                    # pay a slow attempt to find out.
                    self._replace(task)
            repair_cause: typing.Optional[BaseException] = None
            requeue_cause: typing.Optional[BaseException] = None
            while True:
                if requeue_cause is None:
                    # A preemption re-queue is not a fresh attempt: it
                    # must not consume the recovery attempt budget.
                    stats.attempts += 1
                try:
                    if repair_cause is not None:
                        yield from self._prepare_retry(task, stats, repair_cause)
                        repair_cause = None
                    if requeue_cause is not None:
                        yield from self._prepare_requeue(
                            task, stats, requeue_cause
                        )
                        requeue_cause = None
                    yield from self._attempt(task, stats)
                    break
                except BaseException as exc:  # noqa: BLE001
                    if (
                        _preemption_cause(exc) is not None
                        and stats.preemptions < self.rts.max_task_preemptions
                    ):
                        # Preemption is policy, not failure: re-queue
                        # even with no RecoveryPolicy configured.  The
                        # per-task bound is a livelock backstop; the
                        # driver already bounds preemptions per job.
                        stats.preemptions += 1
                        requeue_cause = exc
                        continue
                    if (
                        policy is None
                        or stats.attempts >= policy.max_task_attempts
                        or not policy.recoverable(exc)
                        # Last in the chain: tokens are only spent on
                        # failures that would otherwise retry.
                        or not self._budget_allows(task)
                    ):
                        raise
                    repair_cause = exc
            self._task_done[task.name].succeed(stats)
        except BaseException as exc:  # noqa: BLE001 - report any task failure
            # Only tasks that actually ran get a finish time; a task whose
            # upstream failed never started, and its timestamps stay None.
            if stats.started_at is not None:
                stats.finished_at = engine.now
            obs.counter("tasks.failed").inc()
            if self.causal is not None and task.name in self._cnodes:
                self._causal_chain(
                    task.name, "task_failed", "recovery_retry",
                    self._chain_end(task.name, engine.now), engine.now,
                    chain_kind="retry",
                    task=task.qualified_name,
                    device=self.assignment.get(task.name, ""),
                    error=type(exc).__name__, attempt=stats.attempts,
                )
            if not self._task_done[task.name].triggered:
                self._task_done[task.name].fail(TaskFailure(
                    f"task {task.qualified_name} failed: {exc!r}"
                ))
                self._task_done[task.name].defuse()
            if not self.done.triggered:
                # The first failure ends the job: stamp the finish time
                # here, because _finalize's all_of fails and returns early
                # (a failed job used to report a negative makespan).
                self.stats.error = exc
                self.stats.finished_at = engine.now
                if self.span:
                    self.span.set(
                        ok=False, error=repr(exc),
                        tasks=len(self.stats.tasks),
                        zero_copy=self.stats.zero_copy_handover,
                        copies=self.stats.copy_handover,
                        bytes_copied=self.stats.bytes_copied,
                    )
                self.span.close()
                obs.counter("jobs.failed").inc()
                if self.causal is not None:
                    failed = self._cnodes.get(task.name)
                    obs.causal.job_finish(
                        self.causal, engine.now, ok=False,
                        parents=() if failed is None else (failed,),
                    )
                obs.slo.record(self.job.name, self.stats.makespan, ok=False)
                self.done.fail(exc)
                self.done.defuse()
            return

    def _attempt(self, task: Task, stats: TaskStats):
        """One try at running ``task`` end-to-end (slot, behaviour,
        epilogue).  Raises on failure after releasing everything the
        attempt allocated, so a retry starts from a clean slate."""
        engine = self.rts.cluster.engine
        obs = self.rts.cluster.obs
        monitor = self.rts.cluster.health_monitor
        device = self.rts.cluster.compute[self.assignment[task.name]]
        stats.device = device.name
        process = engine.active_process
        watched = monitor is not None and process is not None
        if watched:
            monitor.watch(device.name, process)
        slot_request = device.acquire_slot()
        try:
            yield slot_request
        except BaseException:
            if watched:
                monitor.unwatch(device.name, process)
            device.cancel_slot(slot_request)
            raise
        stats.started_at = engine.now
        if process is not None:
            # Holding a slot makes this attempt a preemption target;
            # the registration window closes when the slot is released
            # (the epilogue's handovers are never interrupted).
            self._attempt_procs[task.name] = process
        if self.causal is not None:
            begin = self._chain_end(
                task.name,
                stats.ready_at if stats.ready_at is not None else engine.now,
            )
            extra = []
            fields = {}
            release = obs.causal.last_slot_release(device.name)
            if release is not None and begin < engine.now:
                rel_key, rel_node, rel_task = release
                if rel_key == self.job_owner:
                    # Same-job hand-off: a real queue edge.
                    extra.append((rel_node, "queue"))
                else:
                    # Cross-job hand-off: annotate only, so per-job
                    # graphs stay self-contained.
                    fields["blocked_by"] = f"{rel_key}/{rel_task}"
            self._causal_chain(
                task.name, "queue_wait", "queue_wait",
                min(begin, engine.now), engine.now, extra_parents=extra,
                task=task.qualified_name, device=device.name,
                attempt=stats.attempts, **fields,
            )
        task_span = obs.begin_span(
            "task", "run", parent=self.span,
            task=task.qualified_name, device=device.name,
            attempt=stats.attempts,
        )
        ctx = TaskContext(self, task, device.name)
        ctx.span = task_span
        ctx.inputs = list(self._inboxes[task.name])
        try:
            behaviour = task.fn if task.fn is not None else _default_behaviour
            yield from behaviour(ctx)
            device.tasks_completed += 1
        except BaseException as exc:  # noqa: BLE001
            if task_span:
                task_span.set(error=repr(exc))
            task_span.close()
            self._release_attempt(ctx)
            raise
        finally:
            self._attempt_procs.pop(task.name, None)
            if watched:
                monitor.unwatch(device.name, process)
            device.busy_time += engine.now - stats.started_at
            device.release_slot(slot_request)
        stats.finished_at = engine.now
        if task_span:
            task_span.set(queue_delay=stats.queue_delay)
        task_span.close()
        if self.causal is not None:
            done_node = self._causal_chain(
                task.name, "task_done", None, engine.now, engine.now,
                task=task.qualified_name, device=device.name,
            )
            if done_node is not None:
                obs.causal.note_slot_release(
                    device.name, self.job_owner, done_node,
                    task.qualified_name,
                )

        # Epilogue: hand outputs over, drop owned regions.
        try:
            yield from self._epilogue(task, ctx)
        except BaseException:
            self._release_attempt(ctx)
            raise

    def _release_attempt(self, ctx: TaskContext) -> None:
        """Free regions a failed attempt allocated (scratch, output,
        ad-hoc requests).  Inputs are kept: the next attempt re-reads
        them (or repairs them from backups if they were lost)."""
        regions = [ctx._scratch, ctx._output] + list(ctx._extra_regions)
        for region in regions:
            if (
                region is not None
                and region.alive
                and region.ownership.is_owner(ctx.owner)
            ):
                self.rts.memory.drop_owner(region, ctx.owner)

    def _budget_allows(self, task: Task) -> bool:
        """Spend one retry token; a dry bucket ends recovery for good.

        The budget is per *job*, deadline-aware, and token-bucketed
        (see :class:`~repro.runtime.health.RetryBudget`): a degradation
        storm that keeps failing attempts drains the bucket and the job
        fails fast instead of amplifying into a retry storm.
        """
        if self.retry_budget is None:
            return True
        rts = self.rts
        if self.retry_budget.try_spend(rts.cluster.engine.now):
            return True
        rts.cluster.obs.counter("recovery.budget_denied").inc()
        rts.cluster.obs.event(
            "recovery", "budget_denied", job=self.job.name,
            task=task.qualified_name, spent=self.retry_budget.spent,
        )
        rts.cluster.trace.emit(
            rts.cluster.engine.now, "recovery", "budget_denied",
            task=task.qualified_name, spent=self.retry_budget.spent,
        )
        return False

    def _prepare_retry(self, task: Task, stats: TaskStats, exc: BaseException):
        """Between attempts: back off, move off bad devices, repair
        lost inputs.  Raises (ending recovery) when the job's global
        state is gone or a lost input has no backup."""
        rts = self.rts
        engine = rts.cluster.engine
        rts.cluster.obs.counter("recovery.task_retries").inc()
        self.stats.task_retries += 1
        failed_device = self.assignment[task.name]
        recovery_begin = self._chain_end(task.name, engine.now)
        degraded_base = self.stats.degraded_reads
        rts.cluster.trace.emit(
            engine.now, "recovery", "task_retry",
            task=task.qualified_name, attempt=stats.attempts,
            device=self.assignment[task.name], error=type(exc).__name__,
        )
        if isinstance(exc, DeviceDegraded):
            # The abort names the slow device itself — for a write
            # abort that is the *memory* backing, not the task's
            # compute, and pinning the right one keeps a healthy
            # compute assignment in place.
            self._failed_on.setdefault(task.name, set()).add(exc.device)
        elif self._device_implicated(task, exc):
            self._failed_on.setdefault(task.name, set()).add(
                self.assignment[task.name]
            )
        # Seeded per-job stream for decorrelated retry jitter: co-failed
        # tasks draw different delays, so one storm's retries fan out
        # instead of colliding on the same wake tick.  Created by the
        # job's first retry; most jobs never retry.
        retry_rng = rts.cluster.streams.stream(f"retry-jitter:{self.job_owner}")
        delay = rts.recovery.jittered_backoff_ns(
            stats.attempts, retry_rng, stats.last_backoff_ns
        )
        stats.last_backoff_ns = delay
        yield engine.timeout(delay)
        if self.global_state is not None and not self.global_state.alive:
            raise TaskFailure(
                f"job {self.job.name!r} lost its Global State region"
            ) from exc
        self._replace(task)
        # A dead device poisons this task's successors too: the output is
        # placed for *their* devices and the handover targets them.  They
        # cannot have started yet (they wait on this task's done-event),
        # so they are safe to move off dead devices here.
        for downstream in task.downstream():
            self._replace(downstream)
        yield from self._repair_inputs(task)
        if self.causal is not None:
            # The recovery interval starts where the doomed attempt's
            # last recorded node ended: it absorbs the in-flight time the
            # failure wasted, the backoff, and the input repair.
            fields = dict(
                attempt=stats.attempts, error=type(exc).__name__,
                device=failed_device,
                degraded_reads=self.stats.degraded_reads - degraded_base,
            )
            fault = rts.cluster.obs.causal.last_fault(failed_device)
            if fault is not None:
                fields["cause"] = fault["kind"]
                fields["cause_target"] = fault["target"]
            if self.assignment[task.name] != failed_device:
                fields["replaced_by"] = self.assignment[task.name]
            self._causal_chain(
                task.name, "recovery", "recovery_retry",
                min(recovery_begin, engine.now), engine.now,
                chain_kind="retry", task=task.qualified_name, **fields,
            )

    def _prepare_requeue(self, task: Task, stats: TaskStats, exc: BaseException):
        """Between a preemption and the re-attempt: back off briefly.

        Unlike :meth:`_prepare_retry` there is nothing to repair — the
        device is healthy, the attempt's scratch/output were released
        by the normal unwind, and the inputs are still live.  The
        backoff exists so the preemptor's slot requests land ahead of
        ours in the device's FIFO queue.
        """
        rts = self.rts
        engine = rts.cluster.engine
        cause = _preemption_cause(exc)
        rts.cluster.obs.counter("preemption.task_requeues").inc()
        begin = self._chain_end(task.name, engine.now)
        rts.cluster.trace.emit(
            engine.now, "recovery", "task_preempted",
            task=task.qualified_name, device=self.assignment[task.name],
            by=cause.by if cause is not None else "",
        )
        yield engine.timeout(rts.preemption_backoff_ns)
        if self.causal is not None:
            self._causal_chain(
                task.name, "preempted", "preemption",
                min(begin, engine.now), engine.now, chain_kind="retry",
                task=task.qualified_name,
                device=self.assignment[task.name],
                by=cause.by if cause is not None else "",
                preemption=stats.preemptions,
            )

    def _device_implicated(self, task: Task, exc: BaseException) -> bool:
        from repro.runtime.health import DeviceDown
        from repro.sim.events import Interrupt

        if isinstance(exc, (DeviceDown, DeviceDegraded)):
            return True
        if isinstance(exc, Interrupt) and isinstance(exc.cause, DeviceDown):
            return True
        return self.rts.cluster.compute[self.assignment[task.name]].failed

    def _replace(self, task: Task) -> None:
        """Move the task off a dead/unhealthy/blacklisted device onto the
        cheapest surviving candidate (no-op while the current one is fine)."""
        rts = self.rts
        cluster = rts.cluster
        monitor = cluster.health_monitor
        current = self.assignment[task.name]
        avoid = self._failed_on.get(task.name, set())
        device = cluster.compute.get(current)
        flagged = (
            monitor is not None
            and getattr(monitor, "degradation", None) is not None
            and monitor.is_degraded(current)
        )
        if (
            device is not None
            and not device.failed
            and current not in avoid
            and not flagged
            and (monitor is None or monitor.can_use(current))
        ):
            return
        candidates = Scheduler.candidates(task, cluster)
        preferred = [d for d in candidates if d.name not in avoid] or candidates
        if monitor is not None and hasattr(monitor, "is_degraded"):
            # A re-placed task should land on a device the evidence
            # trusts; flagged peers stay last-resort candidates.
            fresh = [d for d in preferred if not monitor.is_degraded(d.name)]
            preferred = fresh or preferred

        input_bytes = sum(u.work.output_size for u in task.upstream())

        def estimate(d):
            try:
                scratch = rts.costmodel.best_scratch_device(d.name)
                return rts.costmodel.task_time_estimate(
                    task, d.name, lambda role: scratch, input_bytes,
                )
            except Exception:  # noqa: BLE001 - unreachable memory etc.
                return float("inf")

        best = min(preferred, key=estimate)
        if best.name == current:
            return
        self.assignment[task.name] = best.name
        self.stats.assignment[task.name] = best.name
        cluster.obs.counter("recovery.replacements").inc()
        self.stats.replacements += 1
        cluster.trace.emit(
            cluster.engine.now, "recovery", "replace",
            task=task.qualified_name, src=current, dst=best.name,
        )

    def _repair_inputs(self, task: Task):
        """Re-materialize lost input regions from the backup store
        (degraded read); raises :class:`TaskFailure` when impossible."""
        inbox = self._inboxes[task.name]
        backups = self.rts.backups
        for index, handle in enumerate(list(inbox)):
            region = handle.region
            if region.alive:
                continue
            owner = task.qualified_name
            restored = None
            if backups is not None:
                restored = yield from backups.restore(
                    region, owner=owner,
                    observers=(self.assignment[task.name],),
                    placement=self.rts.placement,
                )
            if restored is None:
                raise TaskFailure(
                    f"task {task.qualified_name} lost input {region.name!r} "
                    "and no backup copy is available"
                )
            inbox[index] = restored.handle(owner)
            self.rts.cluster.obs.counter("recovery.degraded_reads").inc()
            self.stats.degraded_reads += 1
            self.rts.cluster.trace.emit(
                self.rts.cluster.engine.now, "recovery", "degraded_read",
                task=task.qualified_name, region=region.name,
                device=restored.device.name,
            )

    def task_succeeded(self, name: str) -> bool:
        """Whether the named task completed successfully (public API for
        resilience layers harvesting checkpoints)."""
        event = self._task_done.get(name)
        return bool(event is not None and event.triggered and event.ok)

    def _follow_backup(self, proc, delivered):
        """Simulation generator: re-key a finished concurrent backup
        onto the regions the consumers actually received.

        If the job was already torn down by the time the copy lands,
        the protection is moot — release it again so the store holds
        no orphaned copies."""
        entry = yield proc
        backups = self.rts.backups
        if entry is None or backups is None:
            return
        backups.register_delivered(entry, delivered)
        if self._backups_released:
            backups.release_job(self.job_owner)

    def _epilogue(self, task: Task, ctx: TaskContext):
        # Hand the output over first: if the handover fails, the inputs
        # below are still intact and a retried attempt can re-run the
        # task (dropping them first would leave nothing to retry from).
        output = ctx._output
        downstream = task.downstream()
        if output is not None and downstream:
            engine = self.rts.cluster.engine
            handover_begin = engine.now
            report = [] if self.causal is not None else None
            receivers = [
                (d.qualified_name, self.assignment[d.name]) for d in downstream
            ]
            backup_proc = None
            if self.rts.backups is not None:
                # The backup copy streams *concurrently* with delivery
                # instead of serializing a full extra transfer into the
                # critical path.  Protection — and the hedge/read-around
                # replica — becomes available the moment the copy lands;
                # until then transfers simply run unhedged.  Best-effort
                # either way: a copy whose source died mid-stream is
                # discarded by the store, not registered.
                backup_proc = engine.process(
                    self.rts.backups.backup_delivery(
                        [output], self.job_owner
                    ),
                    name=f"{task.qualified_name}#backup",
                )
            if len(receivers) == 1:
                owner, compute = receivers[0]
                region = yield from self.rts.handover.hand_over(
                    output, ctx.owner, owner, compute, report=report
                )
                delivered = {owner: region}
            else:
                delivered = yield from self.rts.handover.share_out(
                    output, ctx.owner, receivers, report=report
                )
            if backup_proc is not None:
                unique = {id(r): r for r in delivered.values()}
                engine.process(
                    self._follow_backup(backup_proc, list(unique.values())),
                    name=f"{task.qualified_name}#backup-register",
                )
            # A fault may have wiped a delivered region while the
            # epilogue was still in flight.  Fail THIS attempt (the
            # producer can simply re-run and re-deliver) instead of
            # handing downstream a dead input it cannot recover alone.
            dead = [r for r in delivered.values() if not r.alive]
            if dead:
                raise RegionLostError(
                    f"delivery of {output.name!r} was lost before "
                    f"{task.qualified_name} finished handing it over"
                )
            if self.causal is not None:
                copies = report or []
                handover_node = self._causal_chain(
                    task.name, "handover",
                    "transfer" if copies else "ownership_stall",
                    handover_begin, engine.now,
                    task=task.qualified_name, device=ctx.compute,
                    zero_copy=not copies, copies=copies,
                    nbytes=output.size, receivers=len(downstream),
                )
                if handover_node is not None:
                    for d in downstream:
                        self._delivered.setdefault(d.name, []).append(
                            handover_node
                        )
            for d in downstream:
                region = delivered[d.qualified_name]
                self._inboxes[d.name].append(region.handle(d.qualified_name))
        elif output is not None:
            # Sink output: belongs to the job until the job completes.
            self.rts.memory.transfer_ownership(output, ctx.owner, self.job_owner)

        # Drop scratch and any ad-hoc task-owned regions.
        if ctx._scratch is not None and ctx._scratch.alive:
            self.rts.memory.drop_owner(ctx._scratch, ctx.owner)
        for region in ctx._extra_regions:
            if region.alive and region.ownership.is_owner(ctx.owner):
                self.rts.memory.drop_owner(region, ctx.owner)
        # Drop our claim on inputs (frees them once all consumers did).
        for handle in ctx.inputs:
            if handle.region.alive and handle.region.ownership.is_owner(ctx.owner):
                self.rts.memory.drop_owner(handle.region, ctx.owner)

    def abort(self) -> None:
        """Release every region still owned by this job or its tasks.

        Called by resilience layers after a failed run so a retry starts
        from a clean pool (the RTS's normal last-owner-drop path never
        fires for tasks that crashed before consuming their inputs).
        """
        owners = {t.qualified_name for t in self.job.tasks.values()}
        owners.add(self.job_owner)
        for region in list(self.rts.memory.live_regions()):
            for owner in owners & region.ownership.owners:
                if region.alive and not region.ownership.released:
                    region.ownership.drop(owner)
        if self.rts.backups is not None:
            self._backups_released = True
            self.rts.backups.release_job(self.job_owner)

    def _finalize(self):
        engine = self.rts.cluster.engine
        try:
            yield engine.all_of(list(self._task_done.values()))
        except BaseException:
            return  # failure already recorded on self.done
        # Free job-owned regions: global state, slots, sink outputs.
        for region in list(self.rts.memory.live_regions()):
            if region.ownership.is_owner(self.job_owner):
                self.rts.memory.drop_owner(region, self.job_owner)
        if self.rts.backups is not None:
            self._backups_released = True
            self.rts.backups.release_job(self.job_owner)
        self.stats.finished_at = engine.now
        zc, cp, bc = self._handover_base
        self.stats.zero_copy_handover = self.rts.handover.stats.zero_copy - zc
        self.stats.copy_handover = self.rts.handover.stats.copies - cp
        self.stats.bytes_copied = self.rts.handover.stats.bytes_copied - bc
        self.stats.regions_allocated = self.rts.placement.placements - self._regions_base
        obs = self.rts.cluster.obs
        if self.span:
            self.span.set(
                ok=True, tasks=len(self.stats.tasks),
                zero_copy=self.stats.zero_copy_handover,
                copies=self.stats.copy_handover,
                bytes_copied=self.stats.bytes_copied,
            )
        self.span.close()
        obs.counter("jobs.completed").inc()
        if self.causal is not None:
            # Every task's chain head is a candidate finish-parent; the
            # critical-path walk picks whichever actually ended last.
            obs.causal.job_finish(
                self.causal, engine.now, ok=True,
                parents=list(self._cnodes.values()),
            )
        obs.slo.record(self.job.name, self.stats.makespan, ok=True)
        if not self.done.triggered:
            self.done.succeed(self.stats)


def _default_behaviour(ctx: TaskContext):
    """The behaviour synthesized from a task's WorkSpec.

    Phases (sequential, mirroring the cost model): read inputs, read
    consumed global-scratch slots, touch private scratch, compute, touch
    global state, write output, publish global-scratch slots.
    """
    work = ctx.task.work

    if work.input_usage is not None:
        for handle in ctx.inputs:
            yield from ctx.read(
                handle,
                nbytes=int(handle.region.size * work.input_usage.touches),
                pattern=work.input_usage.pattern,
                access_size=work.input_usage.access_size,
            )

    for slot in work.scratch_gets:
        handle = yield from ctx.consume(slot)
        yield from ctx.read(handle)

    if work.scratch is not None and work.scratch.size > 0:
        scratch = ctx.private_scratch()
        touched = work.scratch.touched_bytes
        yield from ctx.write(
            scratch, nbytes=touched // 2,
            pattern=work.scratch.pattern, access_size=work.scratch.access_size,
        )
        yield from ctx.read(
            scratch, nbytes=touched - touched // 2,
            pattern=work.scratch.pattern, access_size=work.scratch.access_size,
        )

    if work.ops > 0:
        yield from ctx.compute_ops(work.ops)

    if work.state_usage is not None and work.state_usage.touched_bytes > 0:
        state = ctx.global_state()
        yield from ctx.write(
            state, nbytes=work.state_usage.touched_bytes,
            pattern=work.state_usage.pattern,
            access_size=work.state_usage.access_size,
        )

    if work.output is not None and work.output.size > 0:
        out = ctx.output()
        yield from ctx.write(
            out, pattern=work.output.pattern, access_size=work.output.access_size
        )

    for slot, usage in work.scratch_puts.items():
        handle = ctx.publish(slot, usage.size)
        yield from ctx.write(
            handle, nbytes=usage.size, pattern=usage.pattern,
            access_size=usage.access_size,
        )


class RuntimeSystem:
    """Public facade: a runtime system bound to one cluster."""

    #: How long a preempted task waits before re-queueing, so the
    #: preemptor's slot requests land first in the device FIFO.
    preemption_backoff_ns: float = 10_000.0
    #: Livelock backstop: after this many preemptions a task treats the
    #: next one as a plain failure (the admission layer bounds
    #: preemptions per *job* well below this).
    max_task_preemptions: int = 8

    def __init__(
        self,
        cluster: Cluster,
        scheduler: typing.Optional[Scheduler] = None,
        placement: typing.Optional[PlacementPolicy] = None,
        memory: typing.Optional[MemoryManager] = None,
        health=None,
        recovery=None,
        backups=None,
        hedge=None,
    ):
        self.cluster = cluster
        self.memory = memory if memory is not None else MemoryManager(cluster)
        self.costmodel = CostModel(cluster)
        self.placement = (
            placement
            if placement is not None
            else DeclarativePlacement(cluster, self.memory, self.costmodel)
        )
        self.scheduler = scheduler if scheduler is not None else HeftScheduler()
        #: Health/recovery plumbing (all optional; None = the pre-health
        #: behaviour where any infrastructure failure fails the job).
        self.health = (
            health if health is not None
            else getattr(cluster, "health_monitor", None)
        )
        self.recovery = recovery
        #: Optional :class:`~repro.runtime.transfer.HedgePolicy`: with a
        #: backup store attached, handover copies race a backup replica
        #: after an evidence-based delay (gray-failure mitigation).
        self.hedge = hedge
        self.handover = HandoverManager(
            cluster, self.memory, self.costmodel, self.placement,
            transfer_retries=(
                recovery.transfer_retries if recovery is not None else 0
            ),
            transfer_timeout_ns=(
                recovery.transfer_timeout_ns if recovery is not None else None
            ),
            hedge=hedge,
        )
        # Through the property setter so the handover's hedge replica
        # source stays wired even when callers attach the store later
        # (``rts.backups = OutputBackupStore(...)`` is a common idiom).
        self.backups = backups
        self.executions: typing.List[_JobExecution] = []
        cluster.obs.registry.add_collector(self._collect_runtime_metrics)
        # Continuous-telemetry watchers: per-window job throughput and
        # the in-flight level, derived from counters the hot paths
        # already maintain (no extra work per job event).
        obs = cluster.obs
        telem = obs.telemetry
        telem.watch(
            "jobs.completed",
            lambda: obs.counter("jobs.completed").value, kind="rate",
        )
        telem.watch(
            "jobs.failed",
            lambda: obs.counter("jobs.failed").value, kind="rate",
        )
        telem.watch(
            "rts.inflight",
            lambda: (
                obs.counter("jobs.submitted").value
                - obs.counter("jobs.completed").value
                - obs.counter("jobs.failed").value
            ),
            kind="level",
        )

    @property
    def backups(self):
        """The attached :class:`~repro.ft.backups.OutputBackupStore`."""
        return self._backups

    @backups.setter
    def backups(self, store) -> None:
        self._backups = store
        self.handover.replica_source = (
            store.replica_device
            if store is not None and hasattr(store, "replica_device")
            else None
        )

    def _collect_runtime_metrics(self):
        """Runtime-layer readings for the obs registry snapshot (the
        subsystems already count these; no hot-path double counting)."""
        yield "handover.zero_copy", self.handover.stats.zero_copy
        yield "handover.copies", self.handover.stats.copies
        yield "handover.bytes_copied", self.handover.stats.bytes_copied
        yield "handover.hedged_copies", self.handover.stats.hedged_copies
        yield "placement.placements", self.placement.placements
        yield "placement.rejections", self.placement.rejections
        if self.health is not None and self.health.degradation is not None:
            yield "health.degraded_now", len(self.health.degraded_devices())
            yield "health.degraded_links_now", len(self.health.degraded_links())

    def _submit(
        self,
        job: Job,
        *,
        tenant: typing.Optional[str] = None,
        priority=None,
    ) -> _JobExecution:
        """Canonical submission: validate, schedule, and start a job.

        Internal — :class:`repro.api.Session` and the admission layer
        land here; external callers go through the Session facade.
        """
        self.cluster.obs.counter("jobs.submitted").inc()
        execution = _JobExecution(self, job, tenant=tenant, priority=priority)
        self.executions.append(execution)
        return execution

    def plan(self, job: Job):
        """Dry-run: the assignment, placements, and makespan the runtime
        *would* produce for ``job`` — no allocation, no execution.  See
        :mod:`repro.runtime.planner`."""
        from repro.runtime.planner import plan_job

        return plan_job(self, job)
