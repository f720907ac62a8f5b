"""Resource-aware task scheduling (RTS duty 4, paper §2.3).

The default :class:`HeftScheduler` is a HEFT-style list scheduler with
the paper's twist: the communication cost of an edge drops to the
(constant, tiny) ownership-transfer cost whenever the downstream device
can directly address the region the upstream task's output will land on
— i.e. the zero-copy handover of Figure 4 is visible to the optimizer,
not just to the data plane.

:class:`RoundRobinScheduler` and :class:`RandomScheduler` are the
ablation baselines (bench C6).
"""

from __future__ import annotations

import heapq
import math
import typing

from repro.dataflow.graph import Job, Task
from repro.hardware.cluster import Cluster
from repro.hardware.compute import ComputeDevice
from repro.runtime.costmodel import OWNERSHIP_TRANSFER_NS, CostModel


class SchedulingError(Exception):
    """No feasible assignment exists."""


Assignment = typing.Dict[str, str]  # task name -> compute device name


class Scheduler:
    """Interface: map every task of a job to a compute device."""

    #: The :class:`DeviceTable` of the cluster last scheduled on.
    _table: typing.Optional["DeviceTable"] = None

    def assign(self, job: Job, cluster: Cluster, costmodel: CostModel) -> Assignment:
        """Map every task of the job to a compute device."""
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def candidates(
        task: Task,
        cluster: Cluster,
        allowed: typing.Optional[typing.Set[str]] = None,
    ) -> typing.List[ComputeDevice]:
        """Compute devices that may run ``task`` (kind + op-class filter,
        optionally restricted to a coherence domain).  A health monitor,
        when attached, rules out SUSPECT/DOWN/DRAINING and blacklisted
        devices — unless that would leave nothing to schedule on, in
        which case the health filter is waived rather than deadlocking."""
        return DeviceTable(cluster).candidates(
            task, None if allowed is None else frozenset(allowed)
        ).devices

    def _device_table(self, cluster: Cluster, costmodel: CostModel) -> "DeviceTable":
        """This scheduler's table for ``cluster``, current as of now."""
        table = self._table
        if (table is None or table.cluster is not cluster
                or table.costmodel is not costmodel):
            table = self._table = DeviceTable(cluster, costmodel)
        table.refresh()
        return table

    @staticmethod
    def state_domain(
        job: Job, cluster: Cluster, costmodel: CostModel
    ) -> typing.Optional[typing.Set[str]]:
        """The compute devices a job with Global State may use.

        Table 2 requires the Global State region to be coherent and
        synchronously addressable by *every* task.  On architectures
        without a shared coherence domain (Figure 1a) that constrains
        scheduling: we pick the memory device whose coherent+sync
        reach covers the most compute devices and restrict the job to
        that set.  Returns None when the job declares no global state.
        """
        if job.global_state_size <= 0:
            return None
        best: typing.Set[str] = set()
        for memory in cluster.memory_devices():
            members = {
                compute.name
                for compute in cluster.compute_devices()
                if (offer := costmodel.offered(compute.name, memory)).coherent
                and offer.sync
            }
            if len(members) > len(best):
                best = members
        if not best:
            raise SchedulingError(
                f"job {job.name!r} declares Global State but no memory "
                "device is coherently addressable from any compute device"
            )
        return best


class _Candidates:
    """The devices one kind of task may run on, in cluster order, with
    their names and slot counts.  Hashed by identity: within one
    ``assign()`` an entry stands for its whole candidate list."""

    __slots__ = ("devices", "names", "slots")

    def __init__(self, devices: typing.List[ComputeDevice]):
        self.devices = devices
        self.names = [d.name for d in devices]
        self.slots = [d.slots for d in devices]


class DeviceTable:
    """The job-independent part of scheduling on one cluster.

    Every job asks the same questions: which devices are usable, which
    of them can run a task of a given pool, compute kind and op class,
    where each candidate's scratch would land, and whether two devices
    share an addressable memory.  The answers depend only on the inputs
    listed in :meth:`refresh`, so the table keeps them until one of
    those changes and builds each entry on first use — it never asks
    the fabric or the health monitor anything a job would not have.
    """

    def __init__(self, cluster: Cluster,
                 costmodel: typing.Optional[CostModel] = None):
        self.cluster = cluster
        self.costmodel = costmodel
        #: How many times a changed input dropped the table.
        self.rebuilds = 0
        self._inputs: typing.Optional[tuple] = None
        self._clear()

    def _clear(self) -> None:
        self._usable: dict = {}
        self._entries: dict = {}
        #: compute name -> (input, scratch, state, output) devices: the
        #: candidate's hypothetical scratch device in every role.
        self.roles: typing.Dict[str, tuple] = {}
        #: (device, device) -> whether both address a common memory.
        self._shared: typing.Dict[tuple, bool] = {}
        self._domain: typing.Optional[frozenset] = None

    def refresh(self) -> None:
        """Drop the table if an input changed since it was built: the
        fabric's topology epoch, the health monitor's epoch (after its
        time-driven probation sweep, which may re-admit devices), any
        device's ``failed`` flag, or the compute pools."""
        cluster = self.cluster
        flownet = getattr(cluster, "flownet", None)
        monitor = getattr(cluster, "health_monitor", None)
        inputs = (
            flownet.topology_epoch if flownet is not None else 0,
            monitor.settled_epoch() if monitor is not None else -1,
            [d.failed for d in cluster.compute.values()],
            [d.failed for d in cluster.memory.values()],
            cluster.device_pools,
        )
        if inputs != self._inputs:
            if self._inputs is not None:
                self.rebuilds += 1
                self._clear()
            self._inputs = inputs[:4] + (dict(cluster.device_pools),)

    def domain(self, job: Job) -> typing.Optional[frozenset]:
        """:meth:`Scheduler.state_domain` of ``job``, kept per table."""
        if job.global_state_size <= 0:
            return None
        if self._domain is None:
            self._domain = frozenset(
                Scheduler.state_domain(job, self.cluster, self.costmodel)
            )
        return self._domain

    def usable(self, allowed: typing.Optional[frozenset]) -> typing.List[ComputeDevice]:
        """Live devices after the health filter, restricted to
        ``allowed``.  The health filter is waived when it would rule
        out every device."""
        devices = self._usable.get(allowed)
        if devices is None:
            cluster = self.cluster
            devices = cluster.compute_devices()
            monitor = getattr(cluster, "health_monitor", None)
            if monitor is not None:
                healthy = [d for d in devices if monitor.can_use(d.name)]
                devices = healthy or devices
            if allowed is not None:
                devices = [d for d in devices if d.name in allowed]
            self._usable[allowed] = devices
        return devices

    def candidates(self, task: Task,
                   allowed: typing.Optional[frozenset]) -> _Candidates:
        """The devices that may run ``task``: pool, kind, op-class and
        degraded filters over :meth:`usable`."""
        properties = task.properties
        pool = getattr(properties, "device_pool", None)
        kind = properties.compute
        op = task.work.op_class if task.work.ops > 0 else None
        key = (allowed, pool, kind, op)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = self._build(task, allowed, pool,
                                                     kind, op)
        return entry

    def _build(self, task, allowed, pool, kind, op) -> _Candidates:
        cluster = self.cluster
        devices = self.usable(allowed)
        if pool is not None and pool in cluster.device_pools:
            members = set(cluster.device_pools[pool])
            pooled = [d for d in devices if d.name in members]
            if not pooled:
                raise SchedulingError(
                    f"no device in pool {pool!r} can run task "
                    f"{task.qualified_name!r} (pool members: "
                    f"{sorted(members)})"
                )
            devices = pooled
        if kind is not None:
            devices = [d for d in devices if d.kind == kind]
        if op is not None:
            devices = [d for d in devices if d.supports(op)]
        if not devices:
            raise SchedulingError(
                f"no compute device can run task {task.qualified_name!r} "
                f"(kind={task.properties.compute}, op={task.work.op_class}"
                + (", constrained to the job's Global State coherence domain"
                   if allowed is not None else "")
                + ")"
            )
        monitor = getattr(cluster, "health_monitor", None)
        if monitor is not None and hasattr(monitor, "is_degraded"):
            # Devices observed fail-slow are a last resort: schedule
            # around them while any non-degraded *feasible* device
            # exists.  This runs after the kind/op filters so a fresh
            # device that can't run the task never starves it.
            fresh = [d for d in devices if not monitor.is_degraded(d.name)]
            devices = fresh or devices
        entry = _Candidates(devices)
        if self.costmodel is not None:
            roles = self.roles
            for name in entry.names:
                if name not in roles:
                    scratch = self.costmodel.best_scratch_device(name)
                    roles[name] = (scratch, scratch, scratch, scratch)
        return entry

    def shared(self, src: str, dst: str) -> bool:
        """Whether some live memory device is addressable from both
        compute devices (a handover there is an ownership transfer)."""
        key = (src, dst)
        found = self._shared.get(key)
        if found is None:
            topo = self.cluster.topology
            found = False
            for mem in self.cluster.memory_devices():
                if topo.addressable(src, mem.name) and topo.addressable(
                    dst, mem.name
                ):
                    found = True
                    break
            self._shared[key] = found
        return found


class HeftScheduler(Scheduler):
    """Heterogeneous-Earliest-Finish-Time list scheduling.

    A job pays for its own arithmetic only: everything that does not
    depend on the job comes from the scheduler's :class:`DeviceTable`,
    each distinct task shape is estimated once over all its candidates
    (:meth:`CostModel.task_estimates`), and slot lists exist only for
    the devices the job can use.
    """

    def __init__(self):
        #: Predictions of the most recent ``assign()`` — the job name,
        #: its estimated makespan, and per-task estimated finish times.
        #: Causal attribution stamps these onto the job graph so reports
        #: can compare predicted vs. actual critical paths.
        self.last_estimate: typing.Optional[dict] = None

    def assign(self, job: Job, cluster: Cluster, costmodel: CostModel) -> Assignment:
        """HEFT list scheduling with handover-aware edge costs."""
        job.validate()
        tasks = job.topological_order()
        table = self._device_table(cluster, costmodel)
        allowed = table.domain(job)
        roles = table.roles
        # Large DAGs repeat a handful of task shapes across hundreds of
        # tasks; estimate each shape once per assign().  The key holds
        # every WorkSpec field an estimate reads (WorkSpec itself
        # carries a dict, so it can't be a key) and the candidate entry,
        # which fixes the op class whenever the task computes.
        memo: typing.Dict[tuple, typing.List[float]] = {}
        entries: typing.Dict[str, _Candidates] = {}
        preds: typing.Dict[str, typing.List[Task]] = {}
        exec_time: typing.Dict[str, typing.List[float]] = {}
        for t in tasks:
            entry = entries[t.name] = table.candidates(t, allowed)
            upstream = preds[t.name] = t.upstream()
            input_bytes = 0
            for u in upstream:
                output = u.work.output
                if output is not None:
                    input_bytes += output.size
            work = t.work
            key = (
                entry, work.ops, work.input_usage, work.output, work.scratch,
                work.state_usage, input_bytes,
            )
            times = memo.get(key)
            if times is None:
                times = memo[key] = costmodel.task_estimates(
                    t, entry.names, roles, input_bytes
                )
            exec_time[t.name] = times

        rank = self._upward_ranks(tasks, costmodel, exec_time)
        order = sorted(tasks, key=lambda t: -rank[t.name])

        assignment: Assignment = {}
        finish: typing.Dict[str, float] = {}
        # Per-device slot-available times as a min-heap (as many entries
        # as the device has slots), for the devices this job can use.
        device_slots: typing.Dict[str, typing.List[float]] = {}
        for entry in entries.values():
            for name, slots in zip(entry.names, entry.slots):
                if name not in device_slots:
                    device_slots[name] = [0.0] * slots

        # Edge costs depend only on (payload size, src device, dst
        # device); the candidate loop re-asks the same triples for
        # every sibling sharing a predecessor.
        edge_memo: typing.Dict[tuple, float] = {}
        for task in order:
            entry = entries[task.name]
            times = exec_time[task.name]
            placed = [
                (pred.work.output_size, assignment[pred.name],
                 finish[pred.name])
                for pred in preds[task.name] if pred.name in assignment
            ]  # a pred that ranks lower counts as a conservative zero
            best, best_eft = -1, math.inf
            for i, name in enumerate(entry.names):
                ready = 0.0
                for nbytes, pred_device, pred_finish in placed:
                    ekey = (nbytes, pred_device, name)
                    comm = edge_memo.get(ekey)
                    if comm is None:
                        comm = edge_memo[ekey] = self._edge_cost(
                            nbytes, pred_device, name, table, costmodel
                        )
                    arrival = pred_finish + comm
                    if arrival > ready:
                        ready = arrival
                # Start on the device's earliest-free slot.
                free = device_slots[name][0]
                start = free if free > ready else ready
                eft = start + times[i]
                if eft < best_eft:
                    best, best_eft = i, eft
            if best < 0 or best_eft == math.inf:
                raise SchedulingError(f"task {task.qualified_name!r} is unschedulable")
            name = entry.names[best]
            assignment[task.name] = name
            finish[task.name] = best_eft
            heapq.heapreplace(device_slots[name], best_eft)
        est_makespan = max(finish.values()) if finish else 0.0
        self.last_estimate = {
            "job": job.name,
            "makespan": est_makespan,
            "finish": dict(finish),
        }
        trace = cluster.trace
        if trace.wants("sched"):
            trace.emit(
                cluster.engine.now, "sched", "assign",
                job=job.name, tasks=len(assignment),
                devices=len(set(assignment.values())),
                est_makespan=est_makespan,
            )
        return assignment

    # -- estimates ----------------------------------------------------------

    @staticmethod
    def _upward_ranks(
        tasks: typing.List[Task],
        costmodel: CostModel,
        exec_time: typing.Dict[str, typing.List[float]],
    ) -> typing.Dict[str, float]:
        mean_exec = {}
        for name, times in exec_time.items():
            finite = [v for v in times if v < math.inf]
            mean_exec[name] = sum(finite) / max(1, len(finite))
        # Rough fleet-average bandwidth for the ranking phase only.
        mean_bw = costmodel.mean_memory_bandwidth()
        rank: typing.Dict[str, float] = {}
        for task in reversed(tasks):
            downstream_cost = 0.0
            nbytes = task.work.output_size
            if nbytes:
                comm = nbytes / max(mean_bw, 1e-9)
                for succ in task.downstream():
                    downstream_cost = max(
                        downstream_cost, comm + rank[succ.name]
                    )
            else:
                for succ in task.downstream():
                    downstream_cost = max(downstream_cost, rank[succ.name])
            rank[task.name] = mean_exec[task.name] + downstream_cost
        return rank

    @staticmethod
    def _edge_cost(
        nbytes: int,
        pred_device: str,
        device: str,
        table: DeviceTable,
        costmodel: CostModel,
    ) -> float:
        """Edge cost under the ownership model: a metadata update when a
        shared-addressable placement exists, a physical copy between the
        two devices' hypothetical scratch devices otherwise."""
        if nbytes == 0:
            return 0.0
        if pred_device == device or table.shared(pred_device, device):
            return OWNERSHIP_TRANSFER_NS
        src = table.roles[pred_device][1]
        dst = table.roles[device][1]
        if src is None or dst is None:
            return math.inf
        return costmodel.transfer_time(src, dst, nbytes)


class RoundRobinScheduler(Scheduler):
    """Baseline: cycle through feasible devices, ignoring all costs."""

    def __init__(self):
        self._cursor = 0

    def assign(self, job: Job, cluster: Cluster, costmodel: CostModel) -> Assignment:
        """Cycle tasks through feasible devices, ignoring costs."""
        job.validate()
        table = self._device_table(cluster, costmodel)
        allowed = table.domain(job)
        assignment: Assignment = {}
        for task in job.topological_order():
            names = table.candidates(task, allowed).names
            assignment[task.name] = names[self._cursor % len(names)]
            self._cursor += 1
        return assignment


class RandomScheduler(Scheduler):
    """Baseline: seeded-random feasible device per task."""

    def __init__(self, stream_name: str = "random-scheduler"):
        self.stream_name = stream_name

    def assign(self, job: Job, cluster: Cluster, costmodel: CostModel) -> Assignment:
        """Seeded-random feasible device per task (baseline)."""
        job.validate()
        table = self._device_table(cluster, costmodel)
        allowed = table.domain(job)
        rng = cluster.streams.stream(self.stream_name)
        assignment: Assignment = {}
        for task in job.topological_order():
            names = table.candidates(task, allowed).names
            assignment[task.name] = names[int(rng.integers(0, len(names)))]
        return assignment


class FixedScheduler(Scheduler):
    """Explicit developer-chosen mapping (the traditional model)."""

    def __init__(self, mapping: Assignment):
        self.mapping = dict(mapping)

    def assign(self, job: Job, cluster: Cluster, costmodel: CostModel) -> Assignment:
        job.validate()
        missing = [t for t in job.tasks if t not in self.mapping]
        if missing:
            raise SchedulingError(f"fixed mapping lacks tasks: {missing}")
        for task_name, device_name in self.mapping.items():
            if task_name not in job.tasks:
                continue
            if device_name not in [d.name for d in cluster.compute_devices()]:
                raise SchedulingError(f"unknown/failed device {device_name!r}")
        return {t: self.mapping[t] for t in job.tasks}
