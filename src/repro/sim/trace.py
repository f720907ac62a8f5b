"""Structured tracing.

The paper's Challenge 8 asks how to debug and profile dataflow
applications across abstraction layers; this module is our answer at the
simulation level: every subsystem emits typed :class:`TraceEvent` records
into a shared :class:`TraceLog`.  Time-weighted statistics
(utilization, queue lengths, ...) are level series of the telemetry hub
(:class:`repro.obs.telemetry.WindowedSeries`).

The log is **bounded**: events land in per-category ring buffers so a
week-long soak run cannot eat the host's memory.  When a ring wraps, the
oldest events are discarded and counted in :attr:`TraceLog.dropped` —
observability degrades gracefully instead of OOMing the harness.  The
higher-level observability facade (:mod:`repro.obs`) builds spans,
metric registries, and exporters on top of this backend.
"""

from __future__ import annotations

import collections
import dataclasses
import typing
from itertools import count

#: Default per-category ring capacity.  Bounded but generous: short
#: benchmark runs retain everything, soak runs wrap and count drops.
DEFAULT_CAPACITY = 65536


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    Instant events carry only ``time``.  Span-complete events (emitted
    by :class:`repro.obs.Span`) additionally carry ``begin`` (the span's
    start time) and ``span_id``/``parent_id`` linking the span tree
    (job → task → region/phase → device).
    """

    time: float
    category: str
    name: str
    fields: typing.Mapping[str, object] = dataclasses.field(default_factory=dict)
    #: Global emission sequence number (total order across categories).
    seq: int = 0
    #: Span start time; ``None`` for instant events.
    begin: typing.Optional[float] = None
    span_id: int = 0
    parent_id: int = 0

    @property
    def duration(self) -> float:
        """Span duration (0.0 for instant events)."""
        if self.begin is None:
            return 0.0
        return self.time - self.begin

    @property
    def is_span(self) -> bool:
        return self.begin is not None

    def __str__(self) -> str:
        fields = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return f"[{self.time:14.1f}ns] {self.category:<12} {self.name:<24} {fields}"


class _Ring:
    """One category's bounded event buffer with a drop counter."""

    __slots__ = ("buffer", "capacity", "dropped")

    def __init__(self, capacity: int):
        self.buffer: typing.Deque[TraceEvent] = collections.deque(maxlen=capacity)
        self.capacity = capacity
        self.dropped = 0

    def append(self, event: TraceEvent) -> None:
        if len(self.buffer) == self.capacity:
            self.dropped += 1
        self.buffer.append(event)

    def recap(self, capacity: int) -> None:
        """Change the capacity, discarding the oldest overflow."""
        if capacity == self.capacity:
            return
        old = self.buffer
        overflow = max(0, len(old) - capacity)
        self.dropped += overflow
        self.buffer = collections.deque(old, maxlen=capacity)
        self.capacity = capacity


class AllExcept:
    """Every trace category but ``excluded``: the :attr:`TraceLog.enabled`
    filter after disabling some categories while all were on."""

    __slots__ = ("excluded",)

    def __init__(self, excluded: typing.Iterable[str]):
        self.excluded = frozenset(excluded)

    def __contains__(self, category: str) -> bool:
        return category not in self.excluded

    def __repr__(self) -> str:
        return f"AllExcept({sorted(self.excluded)!r})"


class TraceLog:
    """A bounded, queryable log of :class:`TraceEvent` records.

    Categories can be filtered at emission time to keep long simulations
    cheap: ``TraceLog(enabled={"scheduler", "placement"})``.  ``enabled``
    is ``None`` (record everything), a set of recorded categories, or an
    :class:`AllExcept` of the ones left out.  Each category is retained
    in its own ring buffer of ``capacity`` events; wrapped-over events
    are counted in :attr:`dropped` rather than kept, so memory stays
    bounded no matter how long the run.
    """

    def __init__(
        self,
        enabled: typing.Optional[typing.Iterable[str]] = None,
        capacity: int = DEFAULT_CAPACITY,
        category_capacity: typing.Optional[typing.Mapping[str, int]] = None,
    ):
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.enabled = set(enabled) if enabled is not None else None
        self.capacity = capacity
        self._category_capacity = dict(category_capacity or {})
        self._rings: typing.Dict[str, _Ring] = {}
        self._seq = count()

    # -- emission ---------------------------------------------------------

    def wants(self, category: str) -> bool:
        """Would an event of this category be recorded right now?

        Hot call sites check this *before* building field dicts so the
        disabled path costs one set lookup and nothing else.
        """
        return self.enabled is None or category in self.enabled

    def emit(self, time: float, category: str, name: str, **fields) -> None:
        """Append one instant trace record (dropped if filtered)."""
        if self.enabled is not None and category not in self.enabled:
            return
        self._append(TraceEvent(time, category, name, fields,
                                seq=next(self._seq)))

    def emit_span(
        self,
        time: float,
        category: str,
        name: str,
        fields: typing.Mapping[str, object],
        begin: float,
        span_id: int,
        parent_id: int = 0,
    ) -> None:
        """Append one span-complete record (used by :mod:`repro.obs`)."""
        if self.enabled is not None and category not in self.enabled:
            return
        self._append(TraceEvent(time, category, name, fields,
                                seq=next(self._seq), begin=begin,
                                span_id=span_id, parent_id=parent_id))

    def _append(self, event: TraceEvent) -> None:
        ring = self._rings.get(event.category)
        if ring is None:
            ring = self._rings[event.category] = _Ring(
                self._category_capacity.get(event.category, self.capacity)
            )
        ring.append(event)

    # -- capacity management ----------------------------------------------

    def set_capacity(
        self, capacity: int, category: typing.Optional[str] = None
    ) -> None:
        """Re-cap one category's ring (or all rings and the default)."""
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        if category is not None:
            self._category_capacity[category] = capacity
            if category in self._rings:
                self._rings[category].recap(capacity)
            return
        self.capacity = capacity
        for name, ring in self._rings.items():
            ring.recap(self._category_capacity.get(name, capacity))

    # -- accounting -------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Total events discarded by ring wrap-around (all categories)."""
        return sum(ring.dropped for ring in self._rings.values())

    @property
    def dropped_by_category(self) -> typing.Dict[str, int]:
        """Per-category wrap-around drop counts (zero entries omitted)."""
        return {
            name: ring.dropped
            for name, ring in self._rings.items()
            if ring.dropped
        }

    def categories(self) -> typing.List[str]:
        """Categories that have recorded at least one event."""
        return [name for name, ring in self._rings.items() if ring.buffer]

    def retained(self, category: str) -> int:
        """Events currently held for one category."""
        ring = self._rings.get(category)
        return len(ring.buffer) if ring is not None else 0

    # -- queries ----------------------------------------------------------

    @property
    def events(self) -> typing.List[TraceEvent]:
        """All retained events in emission order."""
        merged = [e for ring in self._rings.values() for e in ring.buffer]
        merged.sort(key=lambda e: e.seq)
        return merged

    def by_category(self, category: str) -> typing.List[TraceEvent]:
        """All retained events of one category."""
        ring = self._rings.get(category)
        return list(ring.buffer) if ring is not None else []

    def by_name(self, name: str) -> typing.List[TraceEvent]:
        """All retained events with one event name."""
        return [e for e in self.events if e.name == name]

    def clear(self) -> None:
        """Discard all retained events (drop counters reset too)."""
        self._rings.clear()

    def __len__(self) -> int:
        return sum(len(ring.buffer) for ring in self._rings.values())

    def __iter__(self):
        return iter(self.events)
