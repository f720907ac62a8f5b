"""The metrics half of the observability substrate.

Counters and collector readings, held in a :class:`MetricsRegistry` so
exporters and the text dashboard can walk everything a run recorded,
plus the one histogram math of the package: :func:`bucket_index` and
:func:`interpolated_quantile`, shared by :class:`LatencyHistogram`
(lifetime SLO latencies) and the bounded per-window buckets of
:class:`~repro.obs.telemetry.WindowedSeries`.  Time-weighted levels
(occupancy, queue depth, utilization) live only in level-kind
telemetry series.  Everything is bounded in memory by construction:
counters are scalars and histograms count observations per
log-scale bucket.
"""

from __future__ import annotations

import bisect
import typing

#: Log-scale latency bucket bounds in nanoseconds: 1µs .. ~17.6min in
#: powers of two (open-ended final bucket).  Wide enough for anything a
#: simulated job can take, cheap enough to keep per workload.
LATENCY_BOUNDS_NS = tuple(float(2 ** k) for k in range(10, 41))


def bucket_index(bounds: typing.Sequence[float], value: float) -> int:
    """The first bucket whose bound is >= ``value``; ``len(bounds)``
    is the open-ended overflow bucket."""
    return bisect.bisect_left(bounds, value)


def interpolated_quantile(
    bounds: typing.Sequence[float],
    counts: typing.Sequence[int],
    total: int,
    q: float,
    vmin: float,
    vmax: float,
) -> float:
    """The value below which a ``q`` fraction of ``total`` bucketed
    observations fall, linearly interpolated within its bucket and
    clamped to the observed ``[vmin, vmax]`` (so tiny samples do not
    report bucket-edge artifacts)."""
    target = q * total
    cumulative = 0
    for i, n in enumerate(counts):
        if n == 0:
            continue
        if cumulative + n >= target:
            lo = bounds[i - 1] if i > 0 else min(vmin, bounds[0])
            hi = bounds[i] if i < len(bounds) else vmax
            frac = (target - cumulative) / n
            value = lo + (hi - lo) * max(0.0, min(1.0, frac))
            return max(vmin, min(vmax, value))
        cumulative += n
    return vmax


class Counter:
    """A monotonically increasing scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class LatencyHistogram:
    """Count-based histogram of observed durations (log-scale buckets).

    Counts discrete observations — the right statistic for
    per-job/per-request latencies — and answers ``quantile(q)`` by
    linear interpolation within the winning bucket.
    """

    __slots__ = ("name", "bounds", "counts", "total", "_sum", "_min", "_max")

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
        self.counts[bucket_index(self.bounds, value)] += 1
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
        return interpolated_quantile(
            self.bounds, self.counts, self.total, q, self._min, self._max
        )

    def snapshot(self) -> dict:
        return {
            "type": "latency",
            "count": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Name → :class:`Counter` map with a get-or-create accessor.

    Subsystems that already keep their own counters (handover stats,
    placement counters, link byte counts, ...) register a *collector* —
    a zero-argument callable yielding ``(name, value)`` pairs — instead
    of double-counting on the hot path; collectors are evaluated only at
    snapshot/export time, and their readings snapshot as ``"gauge"``.
    """

    def __init__(self):
        self._counters: typing.Dict[str, Counter] = {}
        self._collectors: typing.List[typing.Callable] = []

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def add_collector(self, fn: typing.Callable) -> None:
        """Register ``fn() -> iterable[(name, value)]`` read at snapshot."""
        self._collectors.append(fn)

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def __getitem__(self, name: str) -> Counter:
        return self._counters[name]

    def names(self) -> typing.List[str]:
        return sorted(self._counters)

    # -- snapshot / report -------------------------------------------------

    def snapshot(self) -> typing.Dict[str, dict]:
        """Every counter (and collector reading) as plain data."""
        out = {name: c.snapshot() for name, c in self._counters.items()}
        for collector in self._collectors:
            for name, value in collector():
                out[name] = {"type": "gauge", "value": float(value)}
        return out

    def report(self, title: str = "metrics") -> str:
        """Every counter and collector reading as an aligned text table."""
        # Deferred: repro.metrics pulls in the cluster (import cycle).
        from repro.metrics.report import Table

        table = Table(["metric", "kind", "value"], title=title)
        for name, snap in sorted(self.snapshot().items()):
            table.add_row(name, snap["type"], f"{snap['value']:g}")
        return table.render()
