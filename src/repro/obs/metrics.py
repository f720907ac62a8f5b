"""The metrics half of the observability substrate.

Counters, gauges, latency histograms, and bounded utilization
timelines, held in a :class:`MetricsRegistry` so exporters and the text
dashboard can walk everything a run recorded.  All metric types are
bounded in memory by construction: counters/gauges are scalars, latency
histograms count observations per log-scale bucket, and timelines keep a
ring of samples (plus exact time-weighted aggregates via
:class:`~repro.sim.trace.MetricRecorder`).
"""

from __future__ import annotations

import collections
import typing

from repro.sim.trace import MetricRecorder

#: Log-scale latency bucket bounds in nanoseconds: 1µs .. ~17.6min in
#: powers of two (open-ended final bucket).  Wide enough for anything a
#: simulated job can take, cheap enough to keep per workload.
LATENCY_BOUNDS_NS = tuple(float(2 ** k) for k in range(10, 41))


class Counter:
    """A monotonically increasing scalar."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A point-in-time scalar, set directly or read through a callback."""

    __slots__ = ("name", "_value", "fn")

    kind = "gauge"

    def __init__(self, name: str, fn: typing.Optional[typing.Callable[[], float]] = None):
        self.name = name
        self._value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self._value

    def snapshot(self) -> dict:
        return {"type": self.kind, "value": self.value}


class LatencyHistogram:
    """Count-based histogram of observed durations (log-scale buckets).

    Counts discrete observations — the right statistic for
    per-job/per-request latencies — and answers ``quantile(q)`` by
    linear interpolation within the winning bucket.
    """

    __slots__ = ("name", "bounds", "counts", "total", "_sum", "_min", "_max")

    kind = "latency"

    def __init__(self, name: str,
                 bounds: typing.Sequence[float] = LATENCY_BOUNDS_NS):
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be ascending: {bounds}")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        #: observations per bucket; index len(bounds) is the overflow.
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"latency cannot be negative: {value}")
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bucket whose bound >= value
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.counts[lo] += 1
        self.total += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        return self._sum / self.total if self.total else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self.total else 0.0

    @property
    def maximum(self) -> float:
        return self._max

    def quantile(self, q: float) -> float:
        """The latency below which a ``q`` fraction of observations fall,
        linearly interpolated within its bucket (clamped to the observed
        min/max so tiny samples do not report bucket-edge artifacts)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            return 0.0
        target = q * self.total
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                lo = self.bounds[i - 1] if i > 0 else min(self._min, self.bounds[0])
                hi = self.bounds[i] if i < len(self.bounds) else self._max
                frac = (target - cumulative) / n
                value = lo + (hi - lo) * max(0.0, min(1.0, frac))
                return max(self._min, min(self._max, value))
            cumulative += n
        return self._max

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "count": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class Timeline:
    """A bounded time-series of a piecewise-constant signal.

    Keeps the last ``max_samples`` ``(time, level)`` change points in a
    ring (older ones are dropped and counted) *and* exact time-weighted
    aggregates over the whole run via :class:`MetricRecorder` — so the
    dashboard can draw a recent-history sparkline while reporting exact
    lifetime mean/max utilization.
    """

    __slots__ = ("name", "samples", "dropped", "recorder")

    kind = "timeline"

    def __init__(self, name: str, max_samples: int = 1024, start_time: float = 0.0):
        if max_samples < 2:
            raise ValueError("a timeline needs at least 2 samples of history")
        self.name = name
        self.samples: typing.Deque[typing.Tuple[float, float]] = collections.deque(
            maxlen=max_samples
        )
        self.dropped = 0
        self.recorder = MetricRecorder(start_time=start_time)

    def record(self, time: float, level: float) -> None:
        """The signal changes to ``level`` at ``time``."""
        self.recorder.record(time, level)
        if len(self.samples) == self.samples.maxlen:
            self.dropped += 1
        self.samples.append((time, float(level)))

    def adjust(self, time: float, delta: float) -> None:
        """Shift the signal by ``delta`` at ``time`` (occupancy counting)."""
        self.record(time, self.recorder.level + delta)

    @property
    def level(self) -> float:
        return self.recorder.level

    def mean(self, until: typing.Optional[float] = None) -> float:
        return self.recorder.time_weighted_mean(until)

    @property
    def maximum(self) -> float:
        return self.recorder.maximum

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "samples": [[t, v] for t, v in self.samples],
            "dropped": self.dropped,
            "mean": self.recorder.time_weighted_mean(),
            "max": self.recorder.maximum,
            "level": self.recorder.level,
        }


class MetricsRegistry:
    """Name → metric instrument map with get-or-create accessors.

    Subsystems that already keep their own counters (handover stats,
    placement counters, link byte counts, ...) register a *collector* —
    a zero-argument callable yielding ``(name, value)`` pairs — instead
    of double-counting on the hot path; collectors are evaluated only at
    snapshot/export time.
    """

    def __init__(self):
        self._metrics: typing.Dict[str, object] = {}
        self._collectors: typing.List[typing.Callable] = []

    def _get(self, name: str, factory, kind) -> object:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory()
            return metric
        if metric.kind != kind:
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), "counter")

    def gauge(self, name: str, fn=None) -> Gauge:
        gauge = self._get(name, lambda: Gauge(name, fn), "gauge")
        if fn is not None:
            gauge.fn = fn
        return gauge

    def timeline(self, name: str, max_samples: int = 1024, start_time: float = 0.0):
        return self._get(
            name, lambda: Timeline(name, max_samples, start_time), "timeline"
        )

    def latency(self, name: str, bounds=LATENCY_BOUNDS_NS) -> LatencyHistogram:
        return self._get(
            name, lambda: LatencyHistogram(name, bounds), "latency"
        )

    def add_collector(self, fn: typing.Callable) -> None:
        """Register ``fn() -> iterable[(name, value)]`` read at snapshot."""
        self._collectors.append(fn)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str):
        return self._metrics[name]

    def names(self) -> typing.List[str]:
        return sorted(self._metrics)

    # -- snapshot / report -------------------------------------------------

    def snapshot(self) -> typing.Dict[str, dict]:
        """Every metric (and collector reading) as plain data."""
        out = {name: metric.snapshot() for name, metric in self._metrics.items()}
        for collector in self._collectors:
            for name, value in collector():
                out[name] = {"type": "gauge", "value": float(value)}
        return out

    def report(self, title: str = "metrics") -> str:
        """All scalar metrics as an aligned text table."""
        # Deferred: repro.metrics pulls in the cluster (import cycle).
        from repro.metrics.report import Table

        table = Table(["metric", "kind", "value"], title=title)
        for name, snap in sorted(self.snapshot().items()):
            if snap["type"] in ("counter", "gauge"):
                value = f"{snap['value']:g}"
            elif snap["type"] == "timeline":
                value = (f"mean={snap['mean']:.3g} max={snap['max']:g} "
                         f"now={snap['level']:g}")
            else:  # latency
                value = (f"n={snap['count']} p50={snap['p50']:.3g} "
                         f"p95={snap['p95']:.3g} p99={snap['p99']:.3g}")
            table.add_row(name, snap["type"], value)
        return table.render()
