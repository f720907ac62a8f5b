"""Live memory-device objects.

A :class:`MemoryDevice` pairs an immutable
:class:`~repro.hardware.spec.MemoryDeviceSpec` with mutable simulation
state: capacity accounting, a *port link* that throttles all traffic
into/out of the device at the device's own media bandwidth (so device
bandwidth participates in the max–min fair flow model exactly like fabric
links), and failure state.

Offset-level allocation lives in :mod:`repro.memory.allocator`; the
device only tracks aggregate bytes so the hardware layer stays below the
memory-management layer.
"""

from __future__ import annotations

import typing

from repro.hardware.spec import MemoryDeviceSpec, MemoryKind
from repro.sim.flows import Link


class CapacityError(Exception):
    """Raised when a reservation exceeds the device's remaining capacity."""


class DeviceFailed(Exception):
    """Raised when interacting with a failed device."""


class MemoryDevice:
    """A physical memory device in the disaggregated pool."""

    def __init__(self, spec: MemoryDeviceSpec):
        self.spec = spec
        self.used = 0
        self.failed = False
        #: Throttles all traffic touching the device media; routes through
        #: the fabric append this link so contention on the device itself
        #: is modeled uniformly with link contention.
        self.port = Link(
            name=f"{spec.name}.port",
            bandwidth=spec.bandwidth,
            latency=spec.latency,
        )
        #: Bytes read/written through access interfaces (telemetry).
        self.bytes_read = 0.0
        self.bytes_written = 0.0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def kind(self) -> MemoryKind:
        return self.spec.kind

    @property
    def capacity(self) -> int:
        return self.spec.capacity

    @property
    def free(self) -> int:
        return self.spec.capacity - self.used

    @property
    def utilization(self) -> float:
        return self.used / self.spec.capacity

    def reserve(self, nbytes: int) -> None:
        """Account ``nbytes`` as used; raises :class:`CapacityError` if full."""
        if self.failed:
            raise DeviceFailed(f"{self.name} has failed")
        if nbytes < 0:
            raise ValueError(f"cannot reserve negative bytes: {nbytes}")
        if self.used + nbytes > self.spec.capacity:
            raise CapacityError(
                f"{self.name}: requested {nbytes} B but only {self.free} B free"
            )
        self.used += nbytes

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the free pool."""
        if nbytes < 0:
            raise ValueError(f"cannot release negative bytes: {nbytes}")
        if nbytes > self.used:
            raise ValueError(
                f"{self.name}: releasing {nbytes} B but only {self.used} B in use"
            )
        self.used -= nbytes

    def fail(self) -> None:
        """Mark the device failed (node crash / module failure)."""
        self.failed = True
        self.port.up = False

    def recover(self, preserve_contents: bool = False) -> None:
        """Bring the device back.  Volatile devices lose contents on
        recovery unless ``preserve_contents`` — capacity accounting is the
        caller's (memory manager's) responsibility."""
        self.failed = False
        self.port.up = True
        if not preserve_contents and not self.spec.persistent:
            self.used = 0

    def effective_bytes(self, nbytes: int) -> int:
        """Bytes actually moved for a payload of ``nbytes`` given the
        device's access granularity (read–modify–write amplification)."""
        return amplified_bytes(nbytes, self.spec.granularity)

    def __repr__(self) -> str:
        return (
            f"<MemoryDevice {self.name} ({self.kind.value}) "
            f"{self.used}/{self.capacity} B{' FAILED' if self.failed else ''}>"
        )


def amplified_bytes(nbytes: int, granularity: int) -> int:
    """``nbytes`` rounded up to whole ``granularity``-byte granules."""
    if granularity <= 1:
        return nbytes
    return ((nbytes + granularity - 1) // granularity) * granularity


def total_capacity(devices: typing.Iterable[MemoryDevice]) -> int:
    return sum(d.capacity for d in devices)


def total_used(devices: typing.Iterable[MemoryDevice]) -> int:
    return sum(d.used for d in devices)
