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

import typing

from repro.dataflow.graph import Job, Task
from repro.hardware.cluster import Cluster
from repro.hardware.compute import ComputeDevice
from repro.hardware.devices import MemoryDevice
from repro.runtime.costmodel import OWNERSHIP_TRANSFER_NS, CostModel


class SchedulingError(Exception):
    """No feasible assignment exists."""


Assignment = typing.Dict[str, str]  # task name -> compute device name


class Scheduler:
    """Interface: map every task of a job to a compute device."""

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
        return Scheduler._task_candidates(
            task, cluster, Scheduler._usable_devices(cluster, allowed),
            constrained=allowed is not None,
        )

    @staticmethod
    def _usable_devices(
        cluster: Cluster, allowed: typing.Optional[typing.Set[str]] = None
    ) -> typing.List[ComputeDevice]:
        """The task-independent part of :meth:`candidates`: live devices
        after the health filter, restricted to ``allowed``.  Schedulers
        compute it once per job."""
        devices = cluster.compute_devices()
        monitor = getattr(cluster, "health_monitor", None)
        if monitor is not None:
            healthy = [d for d in devices if monitor.can_use(d.name)]
            devices = healthy or devices
        if allowed is not None:
            devices = [d for d in devices if d.name in allowed]
        return devices

    @staticmethod
    def _task_candidates(
        task: Task,
        cluster: Cluster,
        devices: typing.List[ComputeDevice],
        constrained: bool,
    ) -> typing.List[ComputeDevice]:
        """The per-task part of :meth:`candidates`: pool, kind, op-class
        and degraded filters over the usable ``devices``."""
        pool = getattr(task.properties, "device_pool", None)
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
        if task.properties.compute is not None:
            devices = [d for d in devices if d.kind == task.properties.compute]
        if task.work.ops > 0:
            devices = [d for d in devices if d.supports(task.work.op_class)]
        if not devices:
            raise SchedulingError(
                f"no compute device can run task {task.qualified_name!r} "
                f"(kind={task.properties.compute}, op={task.work.op_class}"
                + (", constrained to the job's Global State coherence domain"
                   if constrained else "")
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
        return devices

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


class HeftScheduler(Scheduler):
    """Heterogeneous-Earliest-Finish-Time list scheduling."""

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
        allowed = self.state_domain(job, cluster, costmodel)
        # Everything that does not depend on the task is computed once
        # per job: the health-filtered devices and, for every candidate,
        # the hypothetical scratch device its estimates assume.
        usable = self._usable_devices(cluster, allowed)
        constrained = allowed is not None
        candidates = {
            t.name: self._task_candidates(t, cluster, usable, constrained)
            for t in tasks
        }
        names = dict.fromkeys(
            d.name for devices in candidates.values() for d in devices
        )
        scratch = {name: costmodel.best_scratch_device(name) for name in names}
        # Large DAGs repeat a handful of task shapes across hundreds of
        # tasks; estimate each (shape, device) pair once per assign().
        # The shape tuple captures every WorkSpec field the estimate
        # reads (WorkSpec itself carries a dict, so it can't be a key).
        est_memo: typing.Dict[tuple, float] = {}
        exec_time: typing.Dict[str, typing.Dict[str, float]] = {}
        for t in tasks:
            work = t.work
            input_bytes = sum(u.work.output_size for u in t.upstream())
            shape = (
                work.op_class, work.ops, work.input_usage, work.output,
                work.scratch, work.state_usage, input_bytes,
            )
            times: typing.Dict[str, float] = {}
            for d in candidates[t.name]:
                key = (shape, d.name)
                estimate = est_memo.get(key)
                if estimate is None:
                    estimate = self._exec_estimate(
                        t, d.name, costmodel, scratch[d.name], input_bytes
                    )
                    est_memo[key] = estimate
                times[d.name] = estimate
            exec_time[t.name] = times

        rank = self._upward_ranks(tasks, costmodel, exec_time)
        order = sorted(tasks, key=lambda t: -rank[t.name])

        assignment: Assignment = {}
        finish: typing.Dict[str, float] = {}
        # Per-device list of slot-available times (length = slot count).
        device_slots = {
            d.name: [0.0] * d.slots for d in cluster.compute_devices()
        }

        # Edge costs depend only on (payload size, src device, dst
        # device); the candidate loop re-asks the same triples for
        # every sibling sharing a predecessor.
        edge_memo: typing.Dict[tuple, float] = {}
        for task in order:
            best_device, best_eft, best_start = None, float("inf"), 0.0
            for device in candidates[task.name]:
                ready = 0.0
                for pred in task.upstream():
                    if pred.name not in assignment:
                        continue  # pred ranks lower; conservative zero
                    ekey = (
                        pred.work.output_size,
                        assignment[pred.name],
                        device.name,
                    )
                    comm = edge_memo.get(ekey)
                    if comm is None:
                        comm = self._edge_cost(
                            pred, assignment[pred.name], device.name,
                            cluster, costmodel, scratch,
                        )
                        edge_memo[ekey] = comm
                    ready = max(ready, finish[pred.name] + comm)
                # Start on the device's earliest-free slot.
                start = max(ready, min(device_slots[device.name]))
                eft = start + exec_time[task.name][device.name]
                if eft < best_eft:
                    best_device, best_eft, best_start = device, eft, start
            if best_device is None or best_eft == float("inf"):
                raise SchedulingError(f"task {task.qualified_name!r} is unschedulable")
            assignment[task.name] = best_device.name
            finish[task.name] = best_eft
            slots = device_slots[best_device.name]
            slots[slots.index(min(slots))] = best_eft
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
    def _exec_estimate(
        task: Task,
        device_name: str,
        costmodel: CostModel,
        scratch_device: typing.Optional[MemoryDevice],
        input_bytes: int,
    ) -> float:
        """``task`` on ``device_name`` with every role's memory on the
        device's hypothetical scratch device."""
        return costmodel.task_time_estimate(
            task, device_name, lambda role: scratch_device,
            input_bytes=input_bytes,
        )

    @staticmethod
    def _upward_ranks(
        tasks: typing.List[Task],
        costmodel: CostModel,
        exec_time: typing.Dict[str, typing.Dict[str, float]],
    ) -> typing.Dict[str, float]:
        mean_exec = {
            name: sum(v for v in times.values() if v < float("inf"))
            / max(1, sum(1 for v in times.values() if v < float("inf")))
            for name, times in exec_time.items()
        }
        # Rough fleet-average bandwidth for the ranking phase only.
        mean_bw = costmodel.mean_memory_bandwidth()
        rank: typing.Dict[str, float] = {}
        for task in reversed(tasks):
            downstream_cost = 0.0
            if task.work.output_size:
                comm = HeftScheduler._mean_edge_cost(task, mean_bw)
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
    def _mean_edge_cost(task: Task, mean_bw: float) -> float:
        nbytes = task.work.output_size
        if nbytes == 0:
            return 0.0
        return nbytes / max(mean_bw, 1e-9)

    @staticmethod
    def _edge_cost(
        pred: Task,
        pred_device: str,
        device: str,
        cluster: Cluster,
        costmodel: CostModel,
        scratch: typing.Dict[str, typing.Optional[MemoryDevice]],
    ) -> float:
        """Edge cost under the ownership model: a metadata update when a
        shared-addressable placement exists, a physical copy otherwise.
        ``scratch`` maps each candidate to its hypothetical scratch
        device."""
        nbytes = pred.work.output_size
        if nbytes == 0:
            return 0.0
        if pred_device == device:
            return OWNERSHIP_TRANSFER_NS
        topo = cluster.topology
        for mem in cluster.memory_devices():
            if topo.addressable(pred_device, mem.name) and topo.addressable(
                device, mem.name
            ):
                return OWNERSHIP_TRANSFER_NS
        src = scratch[pred_device]
        dst = scratch[device]
        if src is None or dst is None:
            return float("inf")
        return costmodel.transfer_time(src, dst, nbytes)


class RoundRobinScheduler(Scheduler):
    """Baseline: cycle through feasible devices, ignoring all costs."""

    def __init__(self):
        self._cursor = 0

    def assign(self, job: Job, cluster: Cluster, costmodel: CostModel) -> Assignment:
        """Cycle tasks through feasible devices, ignoring costs."""
        job.validate()
        allowed = self.state_domain(job, cluster, costmodel)
        usable = self._usable_devices(cluster, allowed)
        assignment: Assignment = {}
        for task in job.topological_order():
            devices = self._task_candidates(
                task, cluster, usable, constrained=allowed is not None
            )
            assignment[task.name] = devices[self._cursor % len(devices)].name
            self._cursor += 1
        return assignment


class RandomScheduler(Scheduler):
    """Baseline: seeded-random feasible device per task."""

    def __init__(self, stream_name: str = "random-scheduler"):
        self.stream_name = stream_name

    def assign(self, job: Job, cluster: Cluster, costmodel: CostModel) -> Assignment:
        """Seeded-random feasible device per task (baseline)."""
        job.validate()
        allowed = self.state_domain(job, cluster, costmodel)
        rng = cluster.streams.stream(self.stream_name)
        usable = self._usable_devices(cluster, allowed)
        assignment: Assignment = {}
        for task in job.topological_order():
            devices = self._task_candidates(
                task, cluster, usable, constrained=allowed is not None
            )
            assignment[task.name] = devices[int(rng.integers(0, len(devices)))].name
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
