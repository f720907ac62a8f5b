"""HEFT's device table and one-call estimates change no decision.

``reference_assign`` below is the list scheduler as it was before the
device table: it recomputes every job-independent answer per job and
prices each (task, device) pair through one-device estimates built from
``compute_time`` and ``access_time``.  Over seeded DAGs and between-job
health and fabric changes, :meth:`HeftScheduler.assign` must return the
same assignment and a bit-identical ``last_estimate``.
"""

from __future__ import annotations

import random
import typing

import pytest

from repro.dataflow import Job, RegionUsage, Task, TaskProperties, WorkSpec
from repro.hardware import Cluster
from repro.hardware.spec import OpClass
from repro.memory.interfaces import AccessPattern
from repro.runtime import CostModel, HealthMonitor, HeftScheduler
from repro.runtime.health import DegradationPolicy, HealthState
from repro.runtime.costmodel import OWNERSHIP_TRANSFER_NS
from repro.runtime.scheduler import (
    RandomScheduler,
    RoundRobinScheduler,
    SchedulingError,
)
from repro.sim.faults import FaultKind

MiB = 1024 * 1024
INF = float("inf")


# -- the reference: HEFT before the device table -------------------------


class _Touch(typing.NamedTuple):
    touched_bytes: int
    pattern: AccessPattern
    access_size: int


def _reference_estimate(costmodel, task, name, device, input_bytes):
    work = task.work
    total = costmodel.compute_time(task, name)
    if total == INF:
        return total
    if work.input_usage is not None and device is not None and input_bytes:
        usage = work.input_usage
        total += costmodel.access_time(name, device, _Touch(
            int(input_bytes * usage.touches), usage.pattern,
            usage.access_size))
    if work.scratch is not None and device is not None:
        total += costmodel.access_time(name, device, work.scratch)
    if work.state_usage is not None and device is not None:
        total += costmodel.access_time(name, device, work.state_usage,
                                       is_write=True)
    if work.output is not None and device is not None:
        total += costmodel.access_time(name, device, work.output,
                                       is_write=True)
    return total


def _reference_domain(job, cluster, costmodel):
    if job.global_state_size <= 0:
        return None
    best: set = set()
    for memory in cluster.memory_devices():
        members = {
            compute.name for compute in cluster.compute_devices()
            if (offer := costmodel.offered(compute.name, memory)).coherent
            and offer.sync
        }
        if len(members) > len(best):
            best = members
    if not best:
        raise SchedulingError("no coherent domain")
    return best


def _reference_candidates(task, cluster, usable, constrained):
    devices = usable
    pool = getattr(task.properties, "device_pool", None)
    if pool is not None and pool in cluster.device_pools:
        members = set(cluster.device_pools[pool])
        devices = [d for d in devices if d.name in members]
        if not devices:
            raise SchedulingError("empty pool")
    if task.properties.compute is not None:
        devices = [d for d in devices if d.kind == task.properties.compute]
    if task.work.ops > 0:
        devices = [d for d in devices if d.supports(task.work.op_class)]
    if not devices:
        raise SchedulingError("no candidate")
    monitor = cluster.health_monitor
    if monitor is not None:
        fresh = [d for d in devices if not monitor.is_degraded(d.name)]
        devices = fresh or devices
    return devices


def reference_assign(job, cluster, costmodel):
    """(assignment, last_estimate) the pre-table HEFT produced."""
    job.validate()
    tasks = job.topological_order()
    allowed = _reference_domain(job, cluster, costmodel)
    usable = cluster.compute_devices()
    monitor = cluster.health_monitor
    if monitor is not None:
        usable = [d for d in usable if monitor.can_use(d.name)] or usable
    if allowed is not None:
        usable = [d for d in usable if d.name in allowed]
    candidates = {
        t.name: _reference_candidates(t, cluster, usable, allowed is not None)
        for t in tasks
    }
    scratch = {
        d.name: costmodel.best_scratch_device(d.name)
        for devices in candidates.values() for d in devices
    }
    exec_time = {}
    for t in tasks:
        input_bytes = sum(u.work.output_size for u in t.upstream())
        exec_time[t.name] = {
            d.name: _reference_estimate(costmodel, t, d.name,
                                        scratch[d.name], input_bytes)
            for d in candidates[t.name]
        }
    mean_exec = {
        name: sum(v for v in times.values() if v < INF)
        / max(1, sum(1 for v in times.values() if v < INF))
        for name, times in exec_time.items()
    }
    mean_bw = costmodel.mean_memory_bandwidth()
    rank = {}
    for task in reversed(tasks):
        downstream_cost = 0.0
        if task.work.output_size:
            comm = task.work.output_size / max(mean_bw, 1e-9)
            for succ in task.downstream():
                downstream_cost = max(downstream_cost, comm + rank[succ.name])
        else:
            for succ in task.downstream():
                downstream_cost = max(downstream_cost, rank[succ.name])
        rank[task.name] = mean_exec[task.name] + downstream_cost
    order = sorted(tasks, key=lambda t: -rank[t.name])

    def edge_cost(pred, src, dst):
        nbytes = pred.work.output_size
        if nbytes == 0:
            return 0.0
        if src == dst:
            return OWNERSHIP_TRANSFER_NS
        topo = cluster.topology
        for mem in cluster.memory_devices():
            if topo.addressable(src, mem.name) and topo.addressable(
                    dst, mem.name):
                return OWNERSHIP_TRANSFER_NS
        if scratch[src] is None or scratch[dst] is None:
            return INF
        return costmodel.transfer_time(scratch[src], scratch[dst], nbytes)

    assignment, finish = {}, {}
    slots = {d.name: [0.0] * d.slots for d in cluster.compute_devices()}
    for task in order:
        best, best_eft = None, INF
        for device in candidates[task.name]:
            ready = 0.0
            for pred in task.upstream():
                if pred.name not in assignment:
                    continue
                comm = edge_cost(pred, assignment[pred.name], device.name)
                ready = max(ready, finish[pred.name] + comm)
            start = max(ready, min(slots[device.name]))
            eft = start + exec_time[task.name][device.name]
            if eft < best_eft:
                best, best_eft = device, eft
        if best is None or best_eft == INF:
            raise SchedulingError("unschedulable")
        assignment[task.name] = best.name
        finish[task.name] = best_eft
        free = slots[best.name]
        free[free.index(min(free))] = best_eft
    makespan = max(finish.values()) if finish else 0.0
    return assignment, {"job": job.name, "makespan": makespan,
                        "finish": dict(finish)}


# -- seeded DAGs ---------------------------------------------------------

OPS = [OpClass.SCALAR, OpClass.VECTOR, OpClass.MATMUL, OpClass.COMPRESS]


def _usage(rng, size=None):
    return RegionUsage(
        rng.choice([0, 4096, MiB, 3 * MiB + 7]) if size is None else size,
        touches=rng.choice([0.5, 1.0, 2.0]),
        pattern=rng.choice(list(AccessPattern)),
        access_size=rng.choice([64, 256, 4096]),
    )


def random_job(rng: random.Random, name: str, cluster: Cluster, pools=(),
               global_state: bool = False) -> Job:
    """A seeded DAG: a chain, a fan-out/fan-in or a layered mesh, with
    mixed op classes, usages, kinds and pools."""
    job = Job(name, global_state_size=MiB if global_state else 0)
    kinds = [None] * 6 + sorted({d.kind for d in cluster.compute.values()},
                                key=lambda k: k.value)
    shape = rng.choice(["chain", "fan", "mesh", "single"])
    n = {"chain": rng.randint(2, 5), "fan": rng.randint(3, 7),
         "mesh": rng.randint(4, 12), "single": 1}[shape]
    tasks = []
    for i in range(n):
        op = rng.choice(OPS)
        properties = TaskProperties(
            compute=rng.choice(kinds),
            device_pool=(rng.choice(pools) if pools and rng.random() < 0.2
                         else None),
        )
        tasks.append(job.add_task(Task(f"t{i}", properties=properties,
                                       work=WorkSpec(
            op_class=op,
            ops=rng.choice([0.0, rng.uniform(1e4, 1e7)]),
            input_usage=_usage(rng, 0) if i else None,
            output=_usage(rng) if rng.random() < 0.8 else None,
            scratch=_usage(rng) if rng.random() < 0.4 else None,
            state_usage=(_usage(rng) if global_state and rng.random() < 0.5
                         else None),
        ))))
    for i in range(1, n):
        if shape == "chain":
            parents = [i - 1]
        elif shape == "fan":
            parents = [0] if i < n - 1 else list(range(1, n - 1))
        else:
            parents = rng.sample(range(i), k=min(i, rng.randint(1, 3)))
        for p in parents:
            job.connect(tasks[p], tasks[i])
    return job


def _outcome(fn):
    try:
        return fn()
    except SchedulingError:
        return SchedulingError


def _check(scheduler, job, cluster, costmodel):
    got = _outcome(lambda: scheduler.assign(job, cluster, costmodel))
    want = _outcome(lambda: reference_assign(job, cluster, costmodel))
    if want is SchedulingError:
        assert got is SchedulingError, job.name
        return
    assignment, estimate = want
    assert got == assignment, job.name
    assert scheduler.last_estimate == estimate, job.name
    assert repr(scheduler.last_estimate) == repr(estimate)


def _perturb(rng, cluster, monitor):
    """One between-job change to the inputs the device table reads."""
    engine = cluster.engine
    compute = sorted(cluster.compute)
    action = rng.choice(["degrade", "down", "probation", "blacklist",
                         "link_fail", "link_degrade", "pool", "advance",
                         "none"])
    if action == "degrade":
        name = rng.choice(compute)
        if monitor.state(name) is HealthState.UP:
            monitor._mark_degraded(name, True, 9.0)
    elif action == "down":
        node = rng.choice(sorted(n for n in cluster.nodes
                                 if n.startswith(("blade", "server"))))
        cluster.crash_node(node)
        engine.run(until=engine.now + 2 * monitor.detection_delay_ns)
        cluster.faults.inject_now(FaultKind.NODE_REBOOT, node)
    elif action == "probation":
        engine.run(until=engine.now
                   + monitor.degradation.probation_ns * 1.5)
    elif action == "blacklist" and not monitor.blacklist:
        name = rng.choice(compute)
        monitor._blacklist.add(name)
        monitor.epoch += 1
    elif action in ("link_fail", "link_degrade"):
        link = rng.choice(sorted(l.name for l in cluster.topology.links()))
        if action == "link_fail":
            cluster.faults.inject_now(FaultKind.LINK_DOWN, link)
            if rng.random() < 0.5:
                cluster.faults.inject_now(FaultKind.LINK_UP, link)
        else:
            cluster.faults.inject_now(FaultKind.LINK_DEGRADED, link,
                                      factor=0.2)
    elif action == "pool":
        cluster.define_pool(rng.choice(["p0", "p1"]), rng.sample(
            compute, rng.randint(1, min(3, len(compute)))))
    elif action == "advance":
        engine.run(until=engine.now + rng.uniform(1e3, 1e6))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("preset", ["pooled-rack", "compute-centric",
                                    "dual-plane-rack"])
def test_assign_matches_reference(preset, seed):
    rng = random.Random(seed)
    cluster = Cluster.preset(preset, seed=seed)
    names = sorted(cluster.compute)
    cluster.define_pool("p0", names[:3])
    cluster.define_pool("p1", names[-3:])
    monitor = HealthMonitor(cluster, detection_delay_ns=1_000.0,
                            degradation=DegradationPolicy(
                                probation_ns=50_000.0))
    costmodel = CostModel(cluster)
    monitor.on_change(costmodel.invalidate)
    scheduler = HeftScheduler()
    for j in range(40):
        job = random_job(rng, f"{preset}-{seed}-{j}", cluster,
                         pools=("p0", "p1"),
                         global_state=(preset == "compute-centric"
                                       and rng.random() < 0.4))
        _check(scheduler, job, cluster, costmodel)
        _perturb(rng, cluster, monitor)


def test_assign_matches_reference_without_a_monitor():
    rng = random.Random(99)
    cluster = Cluster.preset("pooled-rack", seed=99)
    costmodel = CostModel(cluster)
    scheduler = HeftScheduler()
    for j in range(60):
        _check(scheduler, random_job(rng, f"bare-{j}", cluster), cluster, costmodel)


def test_baselines_read_the_same_candidates():
    """Round-robin and random pick from the table's candidate lists,
    which equal the reference filter's."""
    rng = random.Random(5)
    cluster = Cluster.preset("pooled-rack", seed=5)
    monitor = HealthMonitor(cluster)
    monitor._mark_degraded("gpu1", True, 9.0)
    costmodel = CostModel(cluster)
    for scheduler in (RoundRobinScheduler(), RandomScheduler()):
        for j in range(10):
            job = random_job(rng, f"b{j}", cluster)
            usable = [d for d in cluster.compute_devices()
                      if monitor.can_use(d.name)]
            want = _outcome(lambda: {
                task.name: {d.name for d in _reference_candidates(
                    task, cluster, usable, False)}
                for task in job.tasks.values()
            })
            got = _outcome(lambda: scheduler.assign(job, cluster, costmodel))
            if want is SchedulingError:
                assert got is SchedulingError
                continue
            assert all(got[name] in names for name, names in want.items())


# -- the device table rebuilds exactly when an input changes --------------


class TestDeviceTableInvalidation:
    @pytest.fixture
    def env(self):
        cluster = Cluster.preset("pooled-rack")
        monitor = HealthMonitor(cluster, degradation=DegradationPolicy(
            probation_ns=10_000.0))
        costmodel = CostModel(cluster)
        scheduler = HeftScheduler()
        rng = random.Random(3)

        def rebuilds_after(change=None) -> int:
            if change is not None:
                change()
            job = random_job(rng, f"j{rng.random()}", cluster)
            _outcome(lambda: scheduler.assign(job, cluster, costmodel))
            return scheduler._table.rebuilds

        rebuilds_after()
        return cluster, monitor, rebuilds_after

    def test_nothing_changed_nothing_rebuilt(self, env):
        cluster, _monitor, rebuilds_after = env
        engine = cluster.engine
        assert rebuilds_after() == 0
        assert rebuilds_after(lambda: engine.run(until=engine.now + 5e5)) == 0
        assert rebuilds_after(lambda: cluster.define_pool(
            "p", ["cpu1"])) == 1
        # Re-defining a pool with the same members changes no input.
        assert rebuilds_after(lambda: cluster.define_pool(
            "p", ["cpu1"])) == 1

    def test_topology_epoch(self, env):
        cluster, _monitor, rebuilds_after = env
        link = cluster.memory["dram-pool0"].port
        assert rebuilds_after(lambda: cluster.flownet.fail_link(link)) == 1
        assert rebuilds_after() == 1
        assert rebuilds_after(lambda: cluster.flownet.restore_link(link)) == 2
        assert rebuilds_after(lambda: cluster.faults.inject_now(
            FaultKind.LINK_DEGRADED, "cpu1--cxl-switch", factor=0.5)) == 3

    def test_health_epoch_and_probation(self, env):
        cluster, monitor, rebuilds_after = env
        engine = cluster.engine
        assert rebuilds_after(lambda: monitor._mark_degraded(
            "gpu1", True, 9.0)) == 1
        assert rebuilds_after() == 1
        # Probation expires with time alone; the sweep before the epoch
        # read re-admits gpu1, and that is one rebuild.
        assert rebuilds_after(lambda: engine.run(
            until=engine.now + 20_000.0)) == 2
        assert monitor.state("gpu1") is HealthState.UP
        assert rebuilds_after() == 2

    def test_failed_flags(self, env):
        cluster, _monitor, rebuilds_after = env
        cpu, memory = cluster.compute["cpu2"], cluster.memory["cxl-exp0"]
        assert rebuilds_after(cpu.fail) == 1
        assert rebuilds_after(cpu.recover) == 2
        assert rebuilds_after(memory.fail) == 3
        assert rebuilds_after() == 3

    def test_pools(self, env):
        cluster, _monitor, rebuilds_after = env
        assert rebuilds_after(lambda: cluster.define_pool(
            "p", ["cpu1", "gpu1"])) == 1
        assert rebuilds_after(lambda: cluster.define_pool(
            "p", ["gpu1"])) == 2
