"""Live compute-device objects.

A :class:`ComputeDevice` pairs a
:class:`~repro.hardware.spec.ComputeDeviceSpec` with simulation state: a
slot pool limiting concurrent tasks, failure state, and busy-time
accounting used for the utilization metrics the paper's Figure 1
economics argument relies on.  Busy slots are a telemetry level series
(``device.occupancy/<name>``); a cluster registers it in its hub.

A :class:`ComputePhase` is a compute phase of equal slices, each priced
at the device's speed when it starts, run as one engine event: the
device re-prices the slices still ahead whenever its speed changes.
"""

from __future__ import annotations

import typing

from repro.hardware.spec import ComputeDeviceSpec, ComputeKind, OpClass
from repro.obs.telemetry import DEFAULT_WINDOW_NS, WindowedSeries
from repro.sim.engine import NORMAL, Engine
from repro.sim.events import Event
from repro.sim.resources import Request, Resource


class ComputeDevice:
    """A compute device with a bounded number of execution slots."""

    def __init__(self, spec: ComputeDeviceSpec, engine: Engine):
        self.spec = spec
        self.engine = engine
        self.failed = False
        self._slow_factor = 1.0
        #: Compute phases in flight, re-priced on every speed change.
        self._phases: typing.Dict["ComputePhase", None] = {}
        self._slots = Resource(engine, capacity=spec.slots)
        #: Granted slots over time; :meth:`Cluster.add_compute` swaps in
        #: the cluster hub's ``device.occupancy/<name>`` series.
        self.busy_slots = WindowedSeries(
            f"device.occupancy/{spec.name}", DEFAULT_WINDOW_NS, kind="level"
        )
        self.tasks_completed = 0
        self.busy_time = 0.0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def kind(self) -> ComputeKind:
        return self.spec.kind

    @property
    def slots(self) -> int:
        return self.spec.slots

    @property
    def slow_factor(self) -> float:
        """Gray-failure (fail-slow) speed multiplier: 0.1 = ten times
        slower.  Only the *physical* execution time scales with it;
        :meth:`nominal_compute_time` keeps advertising spec speed so
        cost models stay blind and must detect slowness from evidence."""
        return self._slow_factor

    @slow_factor.setter
    def slow_factor(self, factor: float) -> None:
        self._slow_factor = factor
        for phase in list(self._phases):
            phase._reprice()

    @property
    def slots_in_use(self) -> int:
        return self._slots.in_use

    @property
    def queue_length(self) -> int:
        return self._slots.queue_length

    def supports(self, op: OpClass) -> bool:
        """Whether this device can execute the given op class."""
        return self.spec.supports(op)

    def nominal_compute_time(self, op: OpClass, ops: float) -> float:
        """Spec-sheet compute time (ns), ignoring any fail-slow state.

        This is what cost models and schedulers estimate with — the
        advertised speed.  The gap between this and observed duration is
        the health monitor's degradation evidence.
        """
        if ops < 0:
            raise ValueError(f"negative op count: {ops}")
        return ops / self.spec.ops_per_ns(op)

    def compute_time(self, op: OpClass, ops: float) -> float:
        """Physical compute time (ns), including any fail-slow slowdown."""
        return self.nominal_compute_time(op, ops) / self.slow_factor

    def acquire_slot(self) -> Request:
        """Request one execution slot (yieldable event, context manager)."""
        request = self._slots.request()
        request.add_callback(lambda _e: self.busy_slots.adjust(self.engine.now, +1))
        return request

    def release_slot(self, request: Request) -> None:
        """Return a held execution slot (pairs with acquire_slot)."""
        self._slots.release(request)
        self.busy_slots.adjust(self.engine.now, -1)

    def cancel_slot(self, request: Request) -> None:
        """Withdraw a slot request, granted or still queued.

        Interrupted waiters cannot tell whether their request was ever
        granted; this resolves either case without skewing the
        busy-slots metric (which only counts granted requests).
        """
        if request.triggered:
            self.release_slot(request)
        else:
            self._slots.release(request)

    def execute(self, op: OpClass, ops: float):
        """Generator: occupy one slot for the compute time of ``ops``.

        Yields from inside a simulation process::

            yield from device.execute(OpClass.VECTOR, 1e6)
        """
        request = self.acquire_slot()
        yield request
        started = self.engine.now
        try:
            yield self.engine.timeout(self.compute_time(op, ops))
            self.tasks_completed += 1
        finally:
            self.busy_time += self.engine.now - started
            self.release_slot(request)

    def utilization(self, until: typing.Optional[float] = None) -> float:
        """Time-weighted mean fraction of busy slots."""
        return self.busy_slots.mean(until) / self.spec.slots

    def fail(self) -> None:
        """Mark the device failed (no new tasks are scheduled onto it)."""
        self.failed = True

    def recover(self) -> None:
        """Clear the failure flag after a repair/restart."""
        self.failed = False

    def __repr__(self) -> str:
        return (
            f"<ComputeDevice {self.name} ({self.kind.value}) "
            f"{self.slots_in_use}/{self.slots} slots{' FAILED' if self.failed else ''}>"
        )


class ComputePhase(Event):
    """``slices`` equal slices of work, each priced at the device's
    speed when it starts, processed as one event where the last slice's
    timeout would be.

    A loop of per-slice timeouts advances the clock by ``t = t + d``
    per slice; the phase keeps those boundaries, accumulated the same
    way, and queues itself at the last one.  A speed change re-prices
    the slices after the one in progress and re-arms the phase at its
    new end; the earlier queue entry is then stale and is skipped when
    it comes up (its sequence number no longer matches).

    Which slice is "in progress" at an instant that is also a slice
    boundary follows the loop's queue order: the boundary's timeout
    would be ``(boundary, NORMAL, s)`` with ``s`` taken when its slice
    started.  It comes after an URGENT event, and for the first slice
    the phase knows ``s`` (its own start sequence).  For a later slice
    ``s`` is unknown, and the event being processed is taken to come
    first: exact for every event queued before the slice started, which
    includes every event queued before the phase.
    """

    def __init__(self, device: ComputeDevice, op: OpClass, ops: float,
                 slices: int):
        engine = device.engine
        super().__init__(engine)
        self.device = device
        #: Spec-sheet time of one slice.
        self.nominal = device.nominal_compute_time(op, ops / slices)
        #: Physical duration of each slice, as priced so far.
        self.durations = [self.nominal / device.slow_factor] * slices
        self._ends: typing.List[float] = []
        self._fill_ends(0, engine.now)
        self._ok = True
        self._value = None
        self._slot: typing.Optional[tuple] = engine.slot_at(self._ends[-1])
        self._start_seq = self._slot[2]
        engine.schedule_at(self, self._slot)
        device._phases[self] = None

    @property
    def duration(self) -> float:
        """Physical duration of the whole phase (the slices summed in
        order, as the loop sums them)."""
        total = 0.0
        for duration in self.durations:
            total += duration
        return total

    def _fill_ends(self, first: int, t: float) -> None:
        """Boundaries from slice ``first`` on, starting at ``t``."""
        ends = self._ends
        del ends[first:]
        for duration in self.durations[first:]:
            t = t + duration
            ends.append(t)

    def _completed(self) -> int:
        """Slices whose end lies behind the event being processed."""
        engine = self.engine
        now = engine.now
        ends = self._ends
        done = 0
        while done < len(ends) and ends[done] <= now:
            if ends[done] == now and not (
                engine.priority_now > NORMAL
                or (engine.priority_now == NORMAL and done == 0
                    and engine.seq_now > self._start_seq)
            ):
                break
            done += 1
        return done

    def _reprice(self) -> None:
        """Price the slices after the one in progress at the device's
        current speed and re-arm the phase at their new end."""
        current = self._completed()
        later = current + 1
        if later >= len(self.durations):
            return
        duration = self.nominal / self.device.slow_factor
        self.durations[later:] = [duration] * (len(self.durations) - later)
        self._fill_ends(later, self._ends[current])
        end = self._ends[-1]
        if end != self._slot[0]:
            self._slot = self.engine.slot_at(end)
            self.engine.schedule_at(self, self._slot)

    def stop(self) -> int:
        """Abandon the phase (its waiter was interrupted); returns how
        many slices had completed."""
        done = self._completed()
        self._slot = None
        self.device._phases.pop(self, None)
        return done

    def _process(self) -> None:
        slot = self._slot
        if slot is None or slot[2] != self.engine.seq_now:
            return  # a superseded arming, or an abandoned phase
        self.device._phases.pop(self, None)
        super()._process()
