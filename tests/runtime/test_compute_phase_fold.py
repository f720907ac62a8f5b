"""A compute phase without a degradation policy is one engine event.

``reference_compute_ops`` is the phase as a loop of ``COMPUTE_SLICES``
timeouts, each slice priced at the device's speed when it starts.  The
folded phase (:class:`~repro.hardware.compute.ComputePhase`) must match
it on every phase's end time, return value and ``attempt_nominal_ns``,
on every device's busy time, and on the resume order of every process
that is not itself waiting on a phase — across speed changes mid-phase
and on slice boundaries, interrupts mid-phase and on boundaries, and
metronomes that tick on phase ends.
"""

from __future__ import annotations

import contextlib
import random
import types

import pytest

from repro.api import connect
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.hardware import Cluster
from repro.hardware.spec import OpClass
from repro.runtime import HealthMonitor
from repro.runtime.health import DegradationPolicy, DeviceDegraded
from repro.runtime.rts import TaskContext
from repro.sim.events import Interrupt
from repro.sim.faults import FaultKind

KiB = 1024


def reference_compute_ops(self, ops, op_class=None):
    """The phase as slices (the loop ``compute_ops`` ran before it was
    folded), kept as the reference the fold must reproduce."""
    if op_class is None:
        op_class = self.task.work.op_class
    sp = self._rts.cluster.obs.span("profile", "compute_phase",
                                    parent=self.span)
    device = self._rts.cluster.compute[self.compute]
    began = self.now
    monitor = self._rts.health
    slices = self.COMPUTE_SLICES if ops > 0 else 1
    duration = 0.0
    for i in range(slices):
        slice_ops = ops / slices
        slice_duration = device.compute_time(op_class, slice_ops)
        yield self._rts.cluster.engine.timeout(slice_duration)
        duration += slice_duration
        nominal = device.nominal_compute_time(op_class, slice_ops)
        self.attempt_nominal_ns += nominal
        if monitor is not None and slice_ops > 0:
            monitor.observe_latency(self.compute, slice_duration, nominal)
        slices_left = slices - (i + 1)
        if slices_left > 0 and self._abort_if_degraded(
            slice_duration, nominal
        ) and self._abort_pays_off(
            slice_duration * slices_left, nominal * slices_left
        ):
            sp.close()
            raise DeviceDegraded(self.compute)
    if sp:
        sp.set(task=self.owner, device=self.compute,
               op=op_class.value, ops=ops, duration=duration)
    sp.close()
    if self._execution.causal is not None:
        self._execution._causal_chain(
            self.task.name, "compute_phase", "compute", began, self.now,
            task=self.owner, device=self.compute, op=op_class.value, ops=ops,
        )
    return duration


@contextlib.contextmanager
def sliced_phases():
    """Run ``TaskContext.compute_ops`` as the sliced reference."""
    folded = TaskContext.compute_ops
    TaskContext.compute_ops = reference_compute_ops
    try:
        yield
    finally:
        TaskContext.compute_ops = folded


def _context(cluster, device, name, health=None):
    """A TaskContext over a stand-in job execution: what compute_ops
    reads of it, and nothing else."""
    execution = types.SimpleNamespace(
        rts=types.SimpleNamespace(cluster=cluster, health=health,
                                  recovery=None),
        causal=None,
    )
    task = Task(name, work=WorkSpec(op_class=OpClass.SCALAR))
    return TaskContext(execution, task, device)


# -- seeded scripts --------------------------------------------------------

#: (device, SCALAR ops/ns): integer ops per slice give integer slices.
WORKERS = [("cpu1", 8.0), ("cpu1", 8.0), ("gpu1", 2.0), ("fpga1", 1.0)]


def draw_script(seed: int, integer: bool) -> dict:
    """Everything a script does, drawn before it runs."""
    rng = random.Random(seed)
    horizon = 4000.0

    def instant():  # faults and interrupts land in the first quarter
        return float(rng.randrange(0, int(horizon) // 4)) if integer else \
            rng.uniform(0.0, horizon / 4)

    phases = []
    for _device, rate in WORKERS:
        plan = []
        for _ in range(rng.randint(3, 6)):
            gap = float(rng.randrange(0, 60)) if integer else rng.uniform(0, 60)
            slice_ns = rng.randrange(1, 40) if integer else rng.uniform(1, 40)
            plan.append((gap, 8 * rate * slice_ns))
        phases.append(plan)
    devices = sorted({device for device, _ in WORKERS})
    faults = []
    for _ in range(rng.randint(4, 12)):
        kind = rng.choice([FaultKind.DEVICE_SLOW, FaultKind.DEVICE_RESTORED])
        detail = {"factor": rng.choice([0.5, 0.25])} if (
            kind is FaultKind.DEVICE_SLOW) else {}
        faults.append((instant(), kind, rng.choice(devices), detail))
    interrupts = [(instant(), rng.randrange(len(WORKERS)))
                  for _ in range(rng.randint(0, 6))]
    periods = [rng.uniform(7.0, 90.0) + 0.123 for _ in range(2)]
    return {"phases": phases, "faults": faults, "interrupts": interrupts,
            "periods": periods, "horizon": horizon}


def run_script(script: dict, boundaries=None) -> dict:
    """Run a drawn script; returns what the fold must reproduce.  With
    a ``boundaries`` set, every instant a worker's timeout ends at is
    added to it (the slice boundaries, when phases run sliced)."""
    cluster = Cluster.preset("pooled-rack")
    engine = cluster.engine
    order = []  # resume order of the processes that wait on no phase
    for kind in (FaultKind.DEVICE_SLOW, FaultKind.DEVICE_RESTORED):
        cluster.faults.on(kind, lambda f: order.append(
            ("fault", engine.now, f.kind.value, f.target)))
    for time, kind, target, detail in script["faults"]:
        cluster.faults.inject_at(time, kind, target, **detail)
    records = {}
    in_phase = [False] * len(WORKERS)
    processes = []

    def worker(w, device, plan):
        ctx = _context(cluster, device, f"w{w}")
        for i, (gap, ops) in enumerate(plan):
            yield engine.timeout(gap)
            began = engine.now
            in_phase[w] = True
            try:
                ret = yield from ctx.compute_ops(ops)
                outcome = ("end", ret)
            except Interrupt:
                outcome = ("interrupted", None)
            in_phase[w] = False
            cluster.compute[device].busy_time += engine.now - began
            records[(w, i)] = (began, engine.now, outcome,
                               ctx.attempt_nominal_ns)

    def interrupter(time, w):
        yield engine.timeout(time)
        hit = in_phase[w] and processes[w].is_alive
        order.append(("interrupt", engine.now, w, hit))
        if hit:
            processes[w].interrupt("preempt")

    def metronome(m, period):
        ticks = 0
        while engine.now + period < script["horizon"]:
            yield engine.timeout(period)
            ticks += 1
            order.append(("tick", engine.now, m, ticks))

    for m, period in enumerate(script["periods"]):
        engine.process(metronome(m, period))
    for w, ((device, _rate), plan) in enumerate(zip(WORKERS,
                                                    script["phases"])):
        processes.append(engine.process(worker(w, device, plan)))
    for time, w in script["interrupts"]:
        engine.process(interrupter(time, w))
    if boundaries is not None:
        timeout = engine.timeout

        def recording_timeout(delay, value=None):
            if engine.active_process in processes:
                boundaries.add(engine.now + delay)
            return timeout(delay, value)

        engine.timeout = recording_timeout
    engine.run()
    return {
        "records": records,
        "order": order,
        "busy": {name: d.busy_time for name, d in cluster.compute.items()},
        "events": engine.events_processed,
    }


def _both(script):
    folded = run_script(script)
    with sliced_phases():
        sliced = run_script(script)
    return folded, sliced


@pytest.mark.parametrize("integer", [True, False], ids=["integer", "float"])
@pytest.mark.parametrize("seed", range(40))
def test_fold_matches_sliced_reference(seed, integer):
    script = draw_script(seed, integer)
    folded, sliced = _both(script)
    assert folded["records"] == sliced["records"]
    assert repr(folded["records"]) == repr(sliced["records"])
    assert folded["order"] == sliced["order"]
    assert folded["busy"] == sliced["busy"]
    assert folded["events"] < sliced["events"]


def test_scripts_hit_boundaries_and_interrupts():
    """The integer scripts do exercise what the fold must get right:
    speed changes and interrupts on exact slice boundaries, and speed
    changes strictly inside a phase."""
    on_boundary = inside = interrupted = 0
    for seed in range(40):
        script = draw_script(seed, True)
        sliced_run = run_script_with_boundaries(script)
        on_boundary += sliced_run["on_boundary"]
        inside += sliced_run["inside"]
        interrupted += sliced_run["interrupted"]
    assert on_boundary > 0 and inside > 0 and interrupted > 0


def run_script_with_boundaries(script):
    """Classify each fault and interrupt of the sliced run against its
    slice boundaries."""
    bounds = set()
    with sliced_phases():
        result = run_script(script, bounds)
    spans = [(began, end) for began, end, _o, _n
             in result["records"].values()]
    on_boundary = sum(1 for entry in result["order"]
                      if entry[0] in ("fault", "interrupt")
                      and entry[1] in bounds)
    inside = sum(1 for entry in result["order"] if entry[0] == "fault"
                 and entry[1] not in bounds
                 and any(began < entry[1] < end for began, end in spans))
    interrupted = sum(1 for r in result["records"].values()
                      if r[2][0] == "interrupted")
    return {"on_boundary": on_boundary, "inside": inside,
            "interrupted": interrupted}


def test_speed_change_on_a_boundary_reprices_the_next_slice():
    """A DEVICE_SLOW queued before the phase, landing exactly where
    slice 3 ends, slows slices 4..8 — the loop's resume order."""
    script = {"phases": [[(0.0, 8 * 8.0 * 10)], [], [], []],
              "faults": [(30.0, FaultKind.DEVICE_SLOW, "cpu1",
                          {"factor": 0.5})],
              "interrupts": [], "periods": [], "horizon": 1000.0}
    folded, sliced = _both(script)
    began, end, (kind, ret), nominal = folded["records"][(0, 0)]
    assert (began, end, kind) == (0.0, 30.0 + 5 * 20.0, "end")
    assert ret == 30.0 + 5 * 20.0
    assert folded["records"] == sliced["records"]


def test_interrupt_on_a_boundary_counts_only_finished_slices():
    """An URGENT interrupt at the instant slice 2 would end comes before
    that slice's timeout: one slice counted, as in the loop."""
    script = {"phases": [[(0.0, 8 * 8.0 * 10)], [], [], []], "faults": [],
              "interrupts": [(20.0, 0)], "periods": [], "horizon": 1000.0}
    folded, sliced = _both(script)
    assert folded["records"][(0, 0)] == (0.0, 20.0, ("interrupted", None),
                                         10.0)
    assert folded["records"] == sliced["records"]


# -- same-instant order: metronomes on phase ends --------------------------


def _metronome_run(period: float, phase_ns: float, phases: int):
    """One worker running back-to-back phases of ``phase_ns`` from t=0
    and one metronome (started first) ticking every ``period``; returns
    the order in which the two resume at each instant."""
    cluster = Cluster.preset("pooled-rack")
    engine = cluster.engine
    order = []

    def metronome():
        for _ in range(int(phases * phase_ns / period)):
            yield engine.timeout(period)
            order.append(("tick", engine.now))

    def worker():
        ctx = _context(cluster, "cpu1", "w")
        for _ in range(phases):
            yield from ctx.compute_ops(8.0 * phase_ns)
            order.append(("end", engine.now))

    engine.process(metronome())
    engine.process(worker())
    engine.run()
    return order


def test_metronome_created_at_phase_starts_keeps_its_order():
    """Ticks on every phase end, each queued at the previous end (the
    next phase's start, before the phase began): the argument says the
    fold changes nothing, and it does not."""
    folded = _metronome_run(800.0, 800.0, 6)
    with sliced_phases():
        sliced = _metronome_run(800.0, 800.0, 6)
    assert folded == sliced
    assert ("tick", 800.0) in folded and ("end", 800.0) in folded


def test_metronome_created_inside_a_phase_is_the_only_swap():
    """Ticks every half phase: each tick that lands on a phase end was
    queued at the phase's midpoint, inside (t0, t7).  The sliced end
    took its sequence at t7, after the tick, the folded one at t0,
    before it — so at exactly those instants, and nowhere else, the
    phase end now resumes first."""
    folded = _metronome_run(400.0, 800.0, 6)
    with sliced_phases():
        sliced = _metronome_run(400.0, 800.0, 6)
    expected = list(sliced)
    for i in range(len(expected) - 1):
        a, b = expected[i], expected[i + 1]
        if a[0] == "tick" and b == ("end", a[1]):
            expected[i], expected[i + 1] = b, a
    assert expected != sliced
    assert folded == expected


# -- event budget ----------------------------------------------------------


def _phase_events(health) -> int:
    cluster = Cluster.preset("pooled-rack")
    engine = cluster.engine
    ctx = _context(cluster, "cpu1", "t", health=health)

    def body():
        yield from ctx.compute_ops(8.0 * 800.0)

    engine.run(until=engine.process(body()))
    # One event starts the process and one ends it; the rest is the phase.
    return engine.events_processed - 2


def test_a_phase_costs_one_event_without_a_degradation_policy():
    cluster = Cluster.preset("pooled-rack")
    assert _phase_events(None) == 1
    assert _phase_events(HealthMonitor(cluster)) == 1


def test_a_phase_keeps_its_slices_under_a_degradation_policy():
    cluster = Cluster.preset("pooled-rack")
    monitor = HealthMonitor(cluster, degradation=DegradationPolicy())
    assert _phase_events(monitor) == TaskContext.COMPUTE_SLICES


# -- through the runtime: preemption, faults, busy time --------------------


def _pipeline(name: str, ops: float, payload: int) -> Job:
    job = Job(name)
    produce = job.add_task(Task("s0", work=WorkSpec(
        ops=ops, output=RegionUsage(payload))))
    consume = job.add_task(Task("s1", work=WorkSpec(
        ops=ops, input_usage=RegionUsage(0))))
    job.connect(produce, consume)
    return job


def _session_run(seed: int) -> dict:
    rng = random.Random(seed)
    session = connect("pooled-rack", seed=seed, max_concurrent=4,
                      policy="wfq", enable_preemption=True)
    classes = ["interactive", "batch", "best_effort"]
    for i, klass in enumerate(classes):
        session.register_tenant(f"t{i}", weight=1.0 + i, priority=klass)
    cluster = session.rts.cluster
    for _ in range(6):
        start = rng.uniform(0, 400_000)
        target = rng.choice(["cpu1", "cpu2", "gpu1", "gpu2"])
        cluster.faults.inject_at(start, FaultKind.DEVICE_SLOW, target,
                                 factor=rng.choice([0.5, 0.1]))
        cluster.faults.inject_at(start + rng.uniform(1e4, 1e5),
                                 FaultKind.DEVICE_RESTORED, target)
    arrivals = []
    for j in range(80):
        ops, payload = rng.uniform(5e4, 4e5), rng.randrange(64 * KiB, KiB * KiB)
        arrivals.append((
            rng.uniform(0, 300_000), f"j{j}",
            lambda j=j, ops=ops, payload=payload: _pipeline(f"j{j}", ops,
                                                            payload),
            f"t{rng.randrange(len(classes))}",
        ))
    arrivals.sort(key=lambda a: a[0])
    with session:
        session.run_trace(arrivals)
    jobs = [
        (admitted.name, admitted.arrived_at, admitted.admitted_at,
         admitted.finished_at, admitted.preemptions, admitted.shed,
         None if (stats := admitted.stats) is None else (
             stats.submitted_at, stats.finished_at, dict(stats.assignment),
             repr(stats.error),
             {name: (t.device, t.ready_at, t.started_at, t.finished_at,
                     t.attempts, t.preemptions)
              for name, t in stats.tasks.items()}))
        for admitted in session.stats.jobs
    ]
    return {
        "jobs": jobs,
        "busy": {n: d.busy_time for n, d in cluster.compute.items()},
        "done": {n: d.tasks_completed for n, d in cluster.compute.items()},
        "preemptions": sum(j[4] for j in jobs),
    }


def test_runtime_results_match_the_sliced_reference():
    """Tenant pipelines under WFQ with preemption and a DEVICE_SLOW
    storm: every job, task and device statistic matches."""
    preemptions = 0
    for seed in range(4):
        folded = _session_run(seed)
        with sliced_phases():
            sliced = _session_run(seed)
        assert folded == sliced, seed
        preemptions += folded["preemptions"]
    assert preemptions > 0
