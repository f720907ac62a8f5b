"""Continuous stream execution over the runtime.

The paper's motivating application (Figure 2) is a *stream*: CCTV
windows arrive forever, and "jobs and tasks could be either streamed or
processed in batches" (§2.1).  :class:`StreamExecutor` runs a job
template once per arriving window with **pipelining** (window *n+1*
starts while *n* is still in flight, up to ``max_in_flight``) and
**backpressure** (when the pipeline is full, windows either queue —
bounded latency growth — or are dropped — bounded staleness), and
reports the latency distribution a streaming operator cares about.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.dataflow.graph import Job
from repro.api import Session


@dataclasses.dataclass
class WindowRecord:
    index: int
    arrived_at: float
    started_at: float = -1.0
    finished_at: float = -1.0
    dropped: bool = False

    @property
    def latency(self) -> float:
        """End-to-end: arrival to completion."""
        return self.finished_at - self.arrived_at

    @property
    def completed(self) -> bool:
        return self.finished_at >= 0 and not self.dropped


@dataclasses.dataclass
class StreamStats:
    windows: typing.List[WindowRecord] = dataclasses.field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(1 for w in self.windows if w.completed)

    @property
    def dropped(self) -> int:
        return sum(1 for w in self.windows if w.dropped)

    def latencies(self) -> typing.List[float]:
        """Sorted end-to-end latencies of completed windows."""
        return sorted(w.latency for w in self.windows if w.completed)

    def percentile(self, p: float) -> float:
        """p in [0, 100]; linear interpolation between order statistics."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        values = self.latencies()
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0]
        rank = (p / 100.0) * (len(values) - 1)
        low = int(rank)
        high = min(low + 1, len(values) - 1)
        fraction = rank - low
        return values[low] * (1 - fraction) + values[high] * fraction

    def throughput_per_s(self, horizon_ns: float) -> float:
        """Completed windows per second of simulated horizon."""
        if horizon_ns <= 0:
            return 0.0
        return self.completed / (horizon_ns / 1e9)


class StreamExecutor:
    """Pipelined window-at-a-time execution of a job template."""

    def __init__(
        self,
        session: Session,
        template: typing.Callable[[int], Job],
        max_in_flight: int = 2,
        backpressure: str = "queue",
    ):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if backpressure not in ("queue", "drop"):
            raise ValueError(f"unknown backpressure policy {backpressure!r}")
        if not isinstance(session, Session):
            raise TypeError(
                "StreamExecutor needs a Session from repro.api.connect(...), "
                f"got {type(session).__name__}"
            )
        self.session = session
        self.rts = session.rts
        self.template = template
        self.max_in_flight = max_in_flight
        self.backpressure = backpressure
        self.stats = StreamStats()
        self._in_flight = 0
        self._queue: typing.List[WindowRecord] = []

    # -- dispatch ---------------------------------------------------------

    def _launch(self, record: WindowRecord) -> None:
        engine = self.rts.cluster.engine
        record.started_at = engine.now
        self._in_flight += 1
        admitted = self.session.submit(self.template(record.index))
        self._track(record, admitted)

    def _track(self, record: WindowRecord, admitted) -> None:
        """Settle the window when admission is done with its job.

        One subscription covers every outcome: the job finishing or
        failing, and a shed — whether the window was admitted at once
        or queued behind a quota or the concurrency gate.
        """
        admitted.settled.add_callback(
            lambda event: self._settle(record, ok=admitted.completed)
        )

    def _settle(self, record: WindowRecord, ok: bool) -> None:
        self._in_flight -= 1
        if ok:
            record.finished_at = self.rts.cluster.engine.now
        else:
            record.dropped = True
        while self._queue and self._in_flight < self.max_in_flight:
            self._launch(self._queue.pop(0))

    def _on_arrival(self, record: WindowRecord) -> None:
        self.stats.windows.append(record)
        if self._in_flight < self.max_in_flight:
            self._launch(record)
        elif self.backpressure == "queue":
            self._queue.append(record)
        else:
            record.dropped = True

    # -- run ------------------------------------------------------------

    def run(self, n_windows: int, interval_ns: float) -> StreamStats:
        """Process ``n_windows`` arriving every ``interval_ns``."""
        if n_windows < 1 or interval_ns <= 0:
            raise ValueError("need n_windows >= 1 and a positive interval")
        engine = self.rts.cluster.engine

        def source():
            for index in range(n_windows):
                self._on_arrival(WindowRecord(index, arrived_at=engine.now))
                if index + 1 < n_windows:
                    yield engine.timeout(interval_ns)

        engine.process(source(), name="stream-source")
        engine.run()
        return self.stats
