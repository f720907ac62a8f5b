"""A region access waits on one event, processed where its join would be.

``Accessor._access`` passes its latency term to
``FlowNetwork.transfer`` as a latency floor, and the transfer's done
event stands in for ``all_of([transfer, timeout(floor)])``: it fires in
the floor timeout's reserved queue slot when the last byte lands
first, and resumes its waiter directly when the join would be the very
next event.  These tests drive seeded scripts — processes making
latency- and stream-dominant reads and writes, zero-byte accesses and
raw floored transfers over shared links, with integer latencies and
bandwidths so stream ends, latency ends and other processes' timeouts
collide; links failing mid-stream; interrupts while waiting — and
check, ``==``, against a reference network whose floored transfers
still return that ``all_of``:

* the ``(now, process name)`` sequence of every process resume;
* every access's outcome and every exception the engine raised;
* every link's ``bytes_carried``.

The final clock of the drained queue is not compared: a failed or
interrupted access's floor timeout still fires, to no effect, in the
reference, while the folded join queues nothing for it.
"""

import math
import random

import pytest

from repro.hardware import Cluster
from repro.hardware.calibration import make_cpu
from repro.hardware.spec import (
    Attachment,
    LinkKind,
    LinkSpec,
    MemoryDeviceSpec,
    MemoryKind,
)
from repro.memory.interfaces import AccessMode, AccessPattern, Accessor
from repro.memory.manager import MemoryManager
from repro.memory.properties import MemoryProperties
from repro.sim import FlowNetwork
from repro.sim.events import Interrupt, Process
from repro.sim.flows import LinkDown, _FloorJoin

KiB = 1024


class _ReferenceJoin(FlowNetwork):
    """Floored transfers return the join ``_access`` used to build: the
    plain done event and, for a positive floor, a timeout created right
    after it, under one ``all_of``."""

    def transfer(self, route, nbytes, extra_latency=0.0, latency_floor=None):
        done = super().transfer(route, nbytes, extra_latency)
        if latency_floor is None:
            return done
        pending = [done]
        if latency_floor > 0:
            pending.append(self.engine.timeout(latency_floor))
        return self.engine.all_of(pending)


def _memory(name, kind, latency, bandwidth, attachment, sync):
    return MemoryDeviceSpec(
        name=name, kind=kind, capacity=1 << 30, latency=latency,
        bandwidth=bandwidth, granularity=64, attachment=attachment,
        supports_sync=sync, persistent=False, coherent=False,
    )


def _cluster(net_cls):
    """Two CPUs and two memories behind one switch, integer-timed."""
    cluster = Cluster(seed=0)
    cluster.flownet = net_cls(cluster.engine, trace=cluster.trace)
    for cpu in ("cpu0", "cpu1"):
        cluster.add_compute(make_cpu(cpu))
    cluster.add_switch("sw")
    cluster.add_memory(_memory("near", MemoryKind.CXL_DRAM, 80.0, 16.0,
                               Attachment.PCIE, True))
    cluster.add_memory(_memory("far", MemoryKind.FAR_MEMORY, 300.0, 8.0,
                               Attachment.NIC, False))
    for a, b, kind, bandwidth, latency in (
        ("cpu0", "sw", LinkKind.CXL, 32.0, 5.0),
        ("cpu1", "sw", LinkKind.CXL, 16.0, 5.0),
        ("sw", "near", LinkKind.CXL, 32.0, 10.0),
        ("sw", "far", LinkKind.NIC, 8.0, 20.0),
    ):
        cluster.connect(a, b, kind, LinkSpec(f"{a}--{b}", kind, bandwidth,
                                             latency))
    return cluster


def _drive(net_cls, seed):
    """Run one seeded script; returns everything the run observed."""
    rng = random.Random(seed)
    cluster = _cluster(net_cls)
    engine, net = cluster.engine, cluster.flownet
    mm = MemoryManager(cluster)
    links = list(cluster.topology.links()) + [
        device.port for device in cluster.memory.values()
    ]
    outcomes = []
    workers = []

    def accessor(i):
        device = rng.choice(["near", "far"])
        region = mm.allocate_on(device, 256 * KiB, MemoryProperties(),
                                owner=f"w{i}")
        return Accessor(cluster, region.handle(f"w{i}"), f"cpu{i % 2}")

    def worker(i, acc):
        for _ in range(40):
            action = rng.random()
            try:
                if action < 0.35:  # latency-dominant, or close
                    value = yield from acc.read(
                        rng.choice([64, 256, 1 * KiB, 4 * KiB]),
                        pattern=AccessPattern.RANDOM,
                        access_size=64,
                    )
                elif action < 0.6:  # stream-dominant
                    op = acc.write if rng.random() < 0.5 else acc.read
                    value = yield from op(
                        rng.choice([4 * KiB, 16 * KiB, 64 * KiB]),
                        mode=AccessMode.ASYNC,
                    )
                elif action < 0.7:
                    value = yield from acc.read(0)
                else:  # a raw floored transfer, zero bytes included
                    route = cluster.access_route(
                        acc.observer, acc.handle.region.device.name)
                    started = engine.now
                    yield net.transfer(
                        route, rng.choice([0.0, 0.0, 64.0, 1000.0, 4096.0]),
                        latency_floor=rng.choice(
                            [0.0, 10.0, 45.0, 100.0, 600.0]),
                    )
                    value = engine.now - started  # the join has no value
                outcomes.append((engine.now, i, "ok", value))
            except (Interrupt, LinkDown) as exc:
                outcomes.append((engine.now, i, type(exc).__name__))
            try:
                # Back onto the integer grid, then an integer think time.
                yield engine.timeout(math.ceil(engine.now) - engine.now)
                yield engine.timeout(rng.choice([0.0, 0.0, 5.0, 10.0, 40.0]))
            except Interrupt:
                outcomes.append((engine.now, i, "idle"))

    def metronome():
        # Timeouts created mid-access that land on integer floors, each
        # with same-instant follow-up work queued behind it.
        for _ in range(400):
            yield engine.timeout(rng.choice([1.0, 3.0, 16.0, 50.0, 112.0]))
            yield engine.timeout(0.0)

    def chaos():
        for _ in range(30):
            yield engine.timeout(rng.choice([0.0, 5.0, 20.0, 100.0, 400.0]))
            action = rng.random()
            if action < 0.5:
                alive = [p for p in workers if p.is_alive]
                if alive:
                    rng.choice(alive).interrupt("poke")
            elif action < 0.65:
                link = rng.choice(links)
                net.fail_link(link)
                yield engine.timeout(rng.choice([0.0, 5.0, 50.0]))
                net.restore_link(link)
            elif action < 0.8:
                for link in links:
                    net.restore_link_speed(link)
            else:
                net.degrade_link(rng.choice(links), rng.choice([0.5, 0.25]))

    for i in range(6):
        workers.append(engine.process(worker(i, accessor(i)), name=f"w{i}"))
    engine.process(chaos(), name="chaos")
    engine.process(metronome(), name="metronome")
    raised = []
    while engine.peek() != float("inf"):
        try:
            engine.step()
        except LinkDown as exc:
            # An interrupted access's join failing with nobody waiting.
            raised.append((engine.now, exc.link.name))
    return {
        "outcomes": outcomes,
        "raised": raised,
        "bytes": [link.bytes_carried for link in links],
        "completed": net.completed_transfers,
    }


@pytest.fixture
def resumes(monkeypatch):
    """Log ``(now, process name)`` of every resume of a live process."""
    log = []
    original = Process._resume

    def resume(self, trigger):
        if self.is_alive:
            log.append((self.engine.now, self.name))
        original(self, trigger)

    monkeypatch.setattr(Process, "_resume", resume)
    return log


@pytest.mark.parametrize("seed", range(30))
def test_folded_join_matches_the_all_of_reference(seed, resumes):
    run = _drive(FlowNetwork, seed)
    folded = list(resumes)
    resumes.clear()
    ref = _drive(_ReferenceJoin, seed)
    assert folded == resumes
    assert run == ref


class _Census:
    def __init__(self):
        self.slot = self.fresh = self.direct = self.hop = self.failed = 0


def test_scripts_exercise_every_branch(monkeypatch):
    """The seeds above are not vacuous: dones land in reserved slots and
    at fresh ones, waiters resume directly and through the hop, and
    failures reach waiters."""
    census = _Census()
    succeed, process = _FloorJoin.succeed, _FloorJoin._process

    def counted_succeed(self, value=None, delay=0.0):
        slot = self._slot
        if slot is not None and self.engine.now + delay < slot[0]:
            census.slot += 1
        else:
            census.fresh += 1
        return succeed(self, value, delay)

    def counted_process(self):
        if self._hopped:
            census.hop += 1
        elif self.engine.peek() > self.engine.now:
            census.direct += 1
        if not self._ok:
            census.failed += 1
        process(self)

    monkeypatch.setattr(_FloorJoin, "succeed", counted_succeed)
    monkeypatch.setattr(_FloorJoin, "_process", counted_process)
    outcomes = raised = 0
    for seed in range(30):
        run = _drive(FlowNetwork, seed)
        outcomes += sum(1 for o in run["outcomes"] if o[2] != "ok")
        raised += len(run["raised"])
    assert census.slot > 500 and census.fresh > 500
    assert census.direct > 500 and census.hop > 500
    assert census.failed > 100
    assert outcomes > 200 and raised > 0


# -- cancelling a floored transfer ------------------------------------------


def _floored(engine_run_until: float, floor: float = 1000.0):
    """A 100-byte floored transfer over a 1 B/ns link with 10 ns of
    latency (the stream ends at 110 ns), cancelled at
    ``engine_run_until``; returns the network, the done event and what
    ``cancel`` said."""
    from repro.sim import Engine, Link

    engine = Engine()
    net = FlowNetwork(engine)
    done = net.transfer([Link("l", bandwidth=1.0, latency=10.0)], 100,
                        latency_floor=floor)
    engine.run(until=engine_run_until)
    return engine, net, done, net.cancel(done)


@pytest.mark.parametrize("when", [5.0, 60.0], ids=["latency", "mid-stream"])
@pytest.mark.parametrize("waiter", [False, True], ids=["alone", "waited"])
def test_cancelled_join_stays_defused(when, waiter):
    """A cancel fails and defuses the join; the engine raises nothing,
    with or without a waiter, and a waiter still sees the failure."""
    from repro.sim.flows import TransferTimeout

    engine, _net, done, cancelled = _floored(when)
    assert cancelled
    seen = []

    def wait():
        try:
            yield done
        except TransferTimeout as exc:
            seen.append(exc)

    if waiter:
        engine.process(wait())
    engine.run()
    assert done.processed and not done.ok
    assert len(seen) == (1 if waiter else 0)


def test_cancel_after_the_last_byte_is_a_no_op():
    """The last byte landed before the floor, so the join already sits
    in the floor's reserved slot: ``cancel`` declines, and the join
    succeeds there."""
    engine, _net, done, cancelled = _floored(500.0)
    assert not cancelled
    assert done.triggered and done._slot is not None
    engine.run()
    assert done.ok and engine.now == 1000.0
