"""The discrete-event simulation engine.

The engine owns the simulated clock (nanoseconds, ``float``) and an event
queue ordered by ``(time, priority, sequence)``.  ``sequence`` makes the
ordering of simultaneous events deterministic: two runs with the same
seed produce byte-identical traces.

The queue is a single ``heapq`` binary heap (DESIGN.md §5.2).  At the
queue depths the simulator runs (tens to thousands of entries) it beats
the calendar queue it once had alongside, so it is the only backend.
The run loop peeks the heap root once per event and pops it directly.
"""

from __future__ import annotations

import heapq
import typing
from itertools import count

from repro.sim.events import AllOf, AnyOf, Event, Process, Timeout

#: Priority for urgent events (interrupts) — processed before normal ones.
URGENT = -1
#: Default priority.
NORMAL = 0

_INF = float("inf")


class EmptySchedule(Exception):
    """Raised by :meth:`Engine.step` when no events remain."""


class Engine:
    """Discrete-event simulation engine with a nanosecond clock."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        #: Binary heap of ``(time, priority, sequence, event)`` entries.
        self._queue: typing.List[tuple] = []
        self._seq = count()
        self._active_process: typing.Optional[Process] = None
        #: Lifetime count of processed events (observability; plain int
        #: so the hot loop pays one increment, nothing more).
        self.events_processed = 0
        #: Priority and sequence number of the event being processed:
        #: its place among the events queued for the same instant.
        self.priority_now = NORMAL
        self.seq_now = -1

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def queue_depth(self) -> int:
        """Events currently scheduled and not yet processed."""
        return len(self._queue)

    @property
    def active_process(self) -> typing.Optional[Process]:
        return self._active_process

    # -- scheduling ----------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Queue ``event`` to be processed ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._seq), event)
        )

    def reserve(self, delay: float) -> tuple:
        """Take the queue slot ``schedule(event, delay)`` would give an
        event now, ``(time, NORMAL, sequence)``, without queueing one.

        :meth:`schedule_at` fills the slot later (or nobody does), and
        its event is then processed exactly where an event scheduled
        at reservation time would have been.
        """
        if delay < 0:
            raise ValueError(f"cannot reserve in the past (delay={delay})")
        return (self._now + delay, NORMAL, next(self._seq))

    def slot_at(self, time: float) -> tuple:
        """A queue slot ``(time, NORMAL, sequence)`` for the absolute
        instant ``time``, sequenced as if the event were created now
        (where ``reserve`` would land on ``now + delay``, rounded)."""
        if time < self._now:
            raise ValueError(f"slot at {time} lies in the past (now={self._now})")
        return (time, NORMAL, next(self._seq))

    def schedule_at(self, event: Event, slot: tuple) -> None:
        """Queue ``event`` in a slot taken earlier with :meth:`reserve`."""
        if slot[0] < self._now:
            raise ValueError(f"slot {slot[:2]} lies in the past (now={self._now})")
        heapq.heappush(self._queue, (*slot, event))

    def unschedule(self, event: Event) -> None:
        """Drop ``event`` from the queue in O(queue depth): for the rare
        event nobody waits on any more, such as a killed process's timeout."""
        self._queue[:] = [e for e in self._queue if e[3] is not event]
        heapq.heapify(self._queue)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        queue = self._queue
        return queue[0][0] if queue else _INF

    def step(self) -> None:
        """Process the next event, advancing the clock."""
        if not self._queue:
            raise EmptySchedule()
        self._now, self.priority_now, self.seq_now, event = heapq.heappop(
            self._queue)
        self.events_processed += 1
        event._process()

    def run(self, until: typing.Optional[typing.Union[float, Event]] = None):
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a time in
        nanoseconds, or an :class:`Event` (run until it is processed and
        return its value, re-raising its exception on failure).
        """
        stop_event: typing.Optional[Event] = None
        stop_time = _INF
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(f"until={stop_time} lies in the past (now={self._now})")

        queue = self._queue
        pop = heapq.heappop
        while queue:
            if stop_event is not None and stop_event.processed:
                break
            if queue[0][0] > stop_time:
                self._now = stop_time
                break
            self._now, self.priority_now, self.seq_now, event = pop(queue)
            self.events_processed += 1
            event._process()

        if stop_event is not None:
            if not stop_event.triggered:
                raise RuntimeError(
                    "run(until=event) finished but the event never triggered"
                )
            if not stop_event.ok:
                raise stop_event.value  # type: ignore[misc]
            return stop_event.value
        if until is not None and self._now < stop_time and not queue:
            # Queue drained before the requested horizon; land exactly on it.
            self._now = stop_time
        return None

    # -- factories -----------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered event bound to this engine."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def process(self, generator, name: str = "") -> Process:
        """Start ``generator`` as a simulation process."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        """Composite event: fires when all child events have fired."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Composite event: fires when the first child event fires."""
        return AnyOf(self, events)

    def __repr__(self) -> str:
        return f"<Engine now={self._now} queued={len(self._queue)}>"
