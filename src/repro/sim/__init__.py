"""Discrete-event simulation substrate.

Everything in :mod:`repro` that needs a notion of time — memory transfers,
task execution, link contention, faults — runs on this small simulation
kernel.  It follows the well-known *processes as generators* design
(cf. SimPy): a process is a Python generator that yields
:class:`~repro.sim.events.Event` objects and is resumed when they trigger.

The kernel is deliberately self-contained so the rest of the library never
has to know how time advances.  Simulated time is measured in
**nanoseconds** throughout the code base.
"""

from repro.sim.engine import Engine
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    ProcessKilled,
    Timeout,
)
from repro.sim.flows import FlowNetwork, Link
from repro.sim.resources import Resource, Store
from repro.sim.rand import RandomStreams
from repro.sim.trace import TraceLog, TraceEvent
from repro.sim.faults import FaultInjector, FaultKind, FaultEvent

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FlowNetwork",
    "Interrupt",
    "Link",
    "Process",
    "ProcessKilled",
    "RandomStreams",
    "Resource",
    "Store",
    "Timeout",
    "TraceEvent",
    "TraceLog",
]
