"""Live compute-device objects.

A :class:`ComputeDevice` pairs a
:class:`~repro.hardware.spec.ComputeDeviceSpec` with simulation state: a
slot pool limiting concurrent tasks, failure state, and busy-time
accounting used for the utilization metrics the paper's Figure 1
economics argument relies on.  Busy slots are a telemetry level series
(``device.occupancy/<name>``); a cluster registers it in its hub.
"""

from __future__ import annotations

import typing

from repro.hardware.spec import ComputeDeviceSpec, ComputeKind, OpClass
from repro.obs.telemetry import DEFAULT_WINDOW_NS, WindowedSeries
from repro.sim.engine import Engine
from repro.sim.resources import Request, Resource


class ComputeDevice:
    """A compute device with a bounded number of execution slots."""

    def __init__(self, spec: ComputeDeviceSpec, engine: Engine):
        self.spec = spec
        self.engine = engine
        self.failed = False
        #: Gray-failure (fail-slow) speed multiplier: 0.1 = ten times
        #: slower.  Only the *physical* execution time scales with it;
        #: :meth:`nominal_compute_time` keeps advertising spec speed so
        #: cost models stay blind and must detect slowness from evidence.
        self.slow_factor = 1.0
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
