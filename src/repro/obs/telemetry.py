"""Continuous telemetry: windowed series, burn-rate alerts, sampled hotness.

The rest of :mod:`repro.obs` answers questions *after* a run (critical
paths, lifetime SLO budgets).  This module is the *during*-the-run half
the capacity-planning and adaptive-tiering roadmap items need — three
primitives, all bounded in memory by construction and all priced
honestly via self-metering:

* :class:`WindowedSeries` folds any signal — discrete samples, a
  piecewise-constant level, or a cumulative counter — into fixed
  sim-time windows with deterministic boundaries (window ``i`` covers
  ``[i*width, (i+1)*width)``; two runs with the same events produce the
  same windows).  Each window keeps count/sum/min/max (plus log-bucket
  counts for in-window percentiles of sampled values); a bounded
  history of closed windows gives recent history, older windows are
  dropped and counted, and a run of empty windows is stored as one gap
  record that every query reads as the windows it stands for, so idle
  time costs nothing.  A ``level`` series is the package's one
  time-weighted level type: besides its windows it keeps exact
  lifetime mean/max/min, so
  compute-device occupancy (``device.occupancy/<name>``, which is
  ``ComputeDevice.busy_slots``), rack running/queued depth, pool memory
  utilization and the health monitor's up-device count are each
  recorded once, here.
* :class:`AlertEngine` evaluates multi-window SLO **burn-rate** rules
  (:class:`BurnRateRule`: a fast and a slow trailing window must both
  burn above the open threshold; a lower close threshold provides
  hysteresis) over the windowed miss/total series the
  :class:`~repro.obs.slo.SloTracker` feeds on every observation.  Each
  rule keeps integer counts of the windows inside its slow span, and a
  poll's sweep visits only the rules those counts or an open alert keep
  live.  Alert open/close pairs are recorded as ``alert``-category
  spans and counted, so they land in exports and on the dashboard.
* :class:`SampledHotness` tracks per-region and per-device access heat
  from a deterministic 1-in-N sample of accesses, with space-saving
  top-k estimation so memory stays O(k) no matter how many regions a
  run touches.  It is query-compatible with
  :class:`repro.memory.pointers.HotnessTracker` (``record`` /
  ``hotness`` / ``ranked`` / ``forget``), so the tiering layer can
  consume either.

Everything the telemetry layer costs is accounted under
``obs.telemetry.*`` metrics (samples taken, windows retained, wall
seconds spent inside telemetry code, estimated resident bytes), and
``scripts/perf_report.py --check`` gates the end-to-end overhead of an
instrumented run at 1.10x of the uninstrumented one — MIND's lesson
that tracking cost must be priced, applied to the tracker itself.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import time as _time
import typing

from repro.obs.metrics import (
    LATENCY_BOUNDS_NS,
    bucket_index,
    interpolated_quantile,
)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.obs.slo import WorkloadSlo

#: Default fixed window width (sim ns).  Runs with very different time
#: scales should size this via ``TelemetryHub.configure``.
DEFAULT_WINDOW_NS = 100_000.0
#: Default closed windows retained per series.
DEFAULT_MAX_WINDOWS = 256
#: Nominal resident bytes per retained window (slots + floats); used by
#: the self-metering estimate, deliberately on the generous side.
_WINDOW_NOMINAL_BYTES = 160
_BUCKET_NOMINAL_BYTES = 8

_KINDS = ("sample", "level", "rate")


class _Window:
    """One closed or open aggregation window."""

    __slots__ = ("index", "count", "total", "vmin", "vmax", "weighted",
                 "buckets")

    def __init__(self, index: int, buckets: typing.Optional[int] = None):
        self.index = index
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        #: Time-weighted level integral (level kind only).
        self.weighted = 0.0
        self.buckets = [0] * buckets if buckets else None


class _Gap:
    """A run of ``n`` empty windows from ``first`` on, held at ``level``
    (a ``level`` series' value over the run; unused by other kinds)."""

    __slots__ = ("first", "n", "level")

    def __init__(self, first: int, n: int, level: float):
        self.first = first
        self.n = n
        self.level = level


class _History:
    """A series' closed windows: :class:`_Window` entries and
    :class:`_Gap` runs, bounded and counted in logical windows.

    ``len()`` is the number of logical windows retained; iterating
    yields every one of them as a :class:`_Window`, oldest first (gap
    windows are built on the fly by the owning series).
    """

    __slots__ = ("entries", "maxlen", "_len", "_series")

    def __init__(self, series: "WindowedSeries", maxlen: int):
        self.entries: typing.Deque[typing.Union[_Window, _Gap]] = (
            collections.deque()
        )
        self.maxlen = maxlen
        self._len = 0
        self._series = series

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> typing.Iterator[_Window]:
        gap_window = self._series._gap_window
        for entry in self.entries:
            if type(entry) is _Gap:
                for i in range(entry.first, entry.first + entry.n):
                    yield gap_window(entry, i)
            else:
                yield entry

    def push(self, entry: typing.Union[_Window, _Gap], n: int) -> int:
        """Append ``entry`` (``n`` logical windows, at most ``maxlen``);
        trim the oldest windows over the bound and return how many."""
        entries = self.entries
        entries.append(entry)
        self._len += n
        over = self._len - self.maxlen
        if over <= 0:
            return 0
        self._len = self.maxlen
        k = over
        while k:
            head = entries[0]
            if type(head) is _Gap and head.n > k:
                head.first += k
                head.n -= k
                break
            entries.popleft()
            k -= head.n if type(head) is _Gap else 1
        return over


class WindowedSeries:
    """A bounded fixed-window aggregation of one signal.

    ``kind`` selects the folding semantics:

    * ``"sample"`` — discrete observations (latencies, sizes):
      per-window count, mean, min/max, and — when ``bounds`` is set —
      an in-window log-bucket histogram answering :meth:`quantile`.
    * ``"level"`` — a piecewise-constant signal (queue depth,
      utilization): per-window time-weighted mean and max; dwell time is
      split exactly at window boundaries, so boundaries are
      deterministic functions of sim time alone.  A level series also
      keeps exact lifetime aggregates — :meth:`mean`, :attr:`maximum`
      and :attr:`minimum` — over the whole run, not just the retained
      windows.
    * ``"rate"`` — deltas of a cumulative counter: per-window sum, with
      ``rate = sum / width``.

    Memory is bounded: at most ``max_windows`` closed windows are
    retained (older ones are dropped and counted in :attr:`dropped`).
    Idle time costs O(1): a run of empty windows between two folds is
    one gap record in :attr:`closed`, not one object per window, and a
    jump longer than ``max_windows`` counts the excess dropped without
    visiting it.  Every query — :meth:`windows`, :meth:`window_stats`,
    :meth:`sum_over`, :meth:`newest`, :meth:`snapshot`, ``len(closed)``
    and :meth:`memory_bytes` — reads as if each gap window were stored.
    """

    __slots__ = ("name", "kind", "width", "max_windows", "bounds",
                 "closed", "dropped", "_cur", "_level", "_last_time",
                 "_weighted", "_elapsed", "_max", "_min")

    def __init__(
        self,
        name: str,
        width_ns: float,
        kind: str = "sample",
        max_windows: int = DEFAULT_MAX_WINDOWS,
        bounds: typing.Optional[typing.Sequence[float]] = None,
        start_time: float = 0.0,
    ):
        if width_ns <= 0:
            raise ValueError(f"window width must be positive: {width_ns}")
        if kind not in _KINDS:
            raise ValueError(f"unknown series kind {kind!r}; one of {_KINDS}")
        if max_windows < 1:
            raise ValueError("max_windows must be >= 1")
        self.name = name
        self.kind = kind
        self.width = float(width_ns)
        self.max_windows = max_windows
        self.bounds = tuple(bounds) if bounds is not None else None
        self.closed = _History(self, max_windows)
        self.dropped = 0
        self._cur: typing.Optional[_Window] = None
        self._level = 0.0
        self._last_time = float(start_time)
        # Lifetime aggregates of a level series (time-weighted integral,
        # elapsed time, extremes), starting from the initial level 0.
        self._weighted = 0.0
        self._elapsed = 0.0
        self._max = 0.0
        self._min = 0.0

    # -- window bookkeeping ----------------------------------------------

    def window_index(self, t: float) -> int:
        """The deterministic window an instant belongs to."""
        return int(t // self.width)

    def _new_window(self, index: int) -> _Window:
        return _Window(index, len(self.bounds) + 1 if self.bounds else None)

    def _gap_window(self, gap: _Gap, index: int) -> _Window:
        """Window ``index`` of ``gap``, as an empty fold would leave it.

        A level series dwells at ``gap.level`` across the whole window;
        the integral uses :meth:`record_level`'s expression for a
        window it crosses, so it is bit-identical to a stored one.
        """
        window = self._new_window(index)
        if self.kind == "level":
            level = gap.level
            width = self.width
            window.weighted += level * ((index + 1) * width - index * width)
            window.vmin = window.vmax = level
        return window

    def _close(self, window: _Window) -> None:
        self.dropped += self.closed.push(window, 1)

    def _roll_to(self, index: int) -> _Window:
        """Make ``index`` the open window, closing the current one.

        The windows between them are recorded as one :class:`_Gap` so
        the retained sequence stays contiguous (a per-window rate table
        must show the zero-traffic windows); of a jump longer than
        ``max_windows`` only the last ``max_windows`` are kept, the rest
        are counted dropped.
        """
        cur = self._cur
        if cur is not None and cur.index == index:
            return cur
        if cur is not None and index < cur.index:
            raise ValueError(
                f"series {self.name!r}: time went backwards "
                f"(window {index} < open window {cur.index})"
            )
        if cur is not None:
            self._close(cur)
            gap = index - cur.index - 1
            if gap > 0:
                skip = max(0, gap - self.max_windows)
                self.dropped += skip + self.closed.push(
                    _Gap(cur.index + 1 + skip, gap - skip, self._level),
                    gap - skip,
                )
        self._cur = self._new_window(index)
        if self.kind == "level":
            self._cur.vmin = self._cur.vmax = self._level
        return self._cur

    # -- folding ----------------------------------------------------------

    def observe(self, t: float, value: float) -> None:
        """Fold one discrete sample (``sample`` kind)."""
        if self.kind != "sample":
            raise TypeError(f"observe() on a {self.kind!r} series")
        window = self._roll_to(self.window_index(t))
        window.count += 1
        window.total += value
        if value < window.vmin:
            window.vmin = value
        if value > window.vmax:
            window.vmax = value
        if window.buckets is not None:
            window.buckets[bucket_index(self.bounds, value)] += 1

    def add(self, t: float, delta: float) -> None:
        """Fold one counter delta (``rate`` kind)."""
        if self.kind != "rate":
            raise TypeError(f"add() on a {self.kind!r} series")
        window = self._roll_to(self.window_index(t))
        window.count += 1
        window.total += delta
        if delta < window.vmin:
            window.vmin = delta
        if delta > window.vmax:
            window.vmax = delta

    def record_level(self, t: float, level: float) -> None:
        """The signal changes to ``level`` at ``t`` (``level`` kind).

        Dwell time at the previous level is integrated into every window
        between the last change and ``t``, split exactly at window
        boundaries; the windows it crosses whole are one gap record.
        """
        if self.kind != "level":
            raise TypeError(f"record_level() on a {self.kind!r} series")
        if t < self._last_time:
            raise ValueError(
                f"series {self.name!r}: time went backwards "
                f"({t} < {self._last_time})"
            )
        dwell = t - self._last_time
        self._weighted += self._level * dwell
        self._elapsed += dwell
        target = self.window_index(t)
        window = self._roll_to(self.window_index(self._last_time))
        cursor = self._last_time
        if window.index < target:
            boundary = (window.index + 1) * self.width
            window.weighted += self._level * (boundary - cursor)
            window = self._roll_to(target)
            cursor = target * self.width
        window.weighted += self._level * (t - cursor)
        self._last_time = t
        level = self._level = float(level)
        if level > self._max:
            self._max = level
        if level < self._min:
            self._min = level
        if level < window.vmin:
            window.vmin = level
        if level > window.vmax:
            window.vmax = level
        window.count += 1

    def adjust(self, t: float, delta: float) -> None:
        """Shift a level signal by ``delta`` at ``t``."""
        self.record_level(t, self._level + delta)

    @property
    def level(self) -> float:
        """Current level of a ``level`` series."""
        return self._level

    def mean(self, until: typing.Optional[float] = None) -> float:
        """Lifetime time-weighted mean of a ``level`` series up to
        ``until`` (default: the last change); the level itself when no
        time has elapsed."""
        weighted = self._weighted
        elapsed = self._elapsed
        if until is not None:
            if until < self._last_time:
                raise ValueError(
                    f"series {self.name!r}: until={until} precedes the "
                    f"last change at {self._last_time}"
                )
            dwell = until - self._last_time
            weighted += self._level * dwell
            elapsed += dwell
        if elapsed == 0:
            return self._level
        return weighted / elapsed

    @property
    def maximum(self) -> float:
        """Lifetime peak of a ``level`` series (initial level included)."""
        return self._max

    @property
    def minimum(self) -> float:
        """Lifetime floor of a ``level`` series (initial level included)."""
        return self._min

    # -- queries ----------------------------------------------------------

    def windows(self) -> typing.List[_Window]:
        """Retained windows, oldest first, including the open one."""
        out = list(self.closed)
        if self._cur is not None:
            out.append(self._cur)
        return out

    def window_stats(self, window: _Window) -> dict:
        """One window as plain data (shape depends on the series kind)."""
        start = window.index * self.width
        out = {
            "index": window.index,
            "start": start,
            "end": start + self.width,
            "count": window.count,
        }
        if self.kind == "level":
            out["mean"] = window.weighted / self.width
            out["max"] = window.vmax if window.count or window.weighted else 0.0
        else:
            out["total"] = window.total
            out["rate"] = window.total / self.width
            out["mean"] = window.total / window.count if window.count else 0.0
            out["max"] = window.vmax if window.count else 0.0
            out["min"] = window.vmin if window.count else 0.0
            if window.buckets is not None and window.count:
                out["p95"] = interpolated_quantile(
                    self.bounds, window.buckets, window.count, 0.95,
                    window.vmin, window.vmax,
                )
        return out

    def sum_over(
        self, since: float, until: float
    ) -> typing.Tuple[float, int]:
        """``(total, count)`` over windows overlapping ``[since, until]``.

        Window-aligned and deterministic: a window contributes iff its
        span intersects the interval.  For ``level`` series the total is
        the time-weighted integral instead.
        """
        cur = self._cur
        if cur is None:
            return 0.0, 0
        # Walk back from the open window to the first entry that ends at
        # or before ``since`` (``start + width`` grows with the index, so
        # every older entry does too), then sum oldest-first with the
        # exact overlap test: the sums are bit-identical to scanning
        # every window, and a trailing interval reads only its own span.
        width = self.width
        picked = []
        if cur.index * width + width > since:
            picked.append(cur)
            for entry in reversed(self.closed.entries):
                last = (entry.first + entry.n - 1 if type(entry) is _Gap
                        else entry.index)
                if last * width + width <= since:
                    break
                picked.append(entry)
        level = self.kind == "level"
        total = 0.0
        count = 0
        for entry in reversed(picked):
            if type(entry) is _Gap:
                # Empty windows add 0.0 to a sum that is never -0.0, so
                # only a level run at a non-zero level contributes.
                if not level or entry.level == 0.0:
                    continue
                # Two windows of slack absorb float rounding in the
                # index arithmetic; the exact test below decides.
                lo, hi = entry.first, entry.first + entry.n
                if math.isfinite(since):
                    lo = max(lo, int(since // width) - 2)
                if math.isfinite(until):
                    hi = min(hi, int(until // width) + 3)
                for i in range(lo, hi):
                    start = i * width
                    if start + width <= since or start > until:
                        continue
                    total += self._gap_window(entry, i).weighted
                continue
            start = entry.index * width
            if start + width <= since or start > until:
                continue
            total += entry.weighted if level else entry.total
            count += entry.count
        return total, count

    def newest(self) -> typing.Optional[_Window]:
        """The most recent retained window: the open one (``None``
        before the first fold; windows close only once one is open)."""
        return self._cur

    def oldest_index(self) -> typing.Optional[int]:
        """Index of the oldest retained window (``None`` when empty)."""
        entries = self.closed.entries
        if entries:
            head = entries[0]
            return head.first if type(head) is _Gap else head.index
        return self._cur.index if self._cur is not None else None

    def memory_bytes(self) -> int:
        """Estimated resident bytes (self-metering; nominal, not exact):
        every retained window counts, gap windows included."""
        n = len(self.closed) + (1 if self._cur is not None else 0)
        per = _WINDOW_NOMINAL_BYTES
        if self.bounds is not None:
            per += (len(self.bounds) + 1) * _BUCKET_NOMINAL_BYTES
        return n * per

    def snapshot(self, limit: typing.Optional[int] = None) -> dict:
        """The series as plain data (last ``limit`` windows); a level
        series adds its lifetime ``mean`` (to the last change) and
        ``max``."""
        windows = [self.window_stats(w) for w in self.windows()]
        if limit is not None:
            windows = windows[-limit:]
        out = {
            "type": "windowed",
            "kind": self.kind,
            "width_ns": self.width,
            "dropped": self.dropped,
            "windows": windows,
        }
        if self.kind == "level":
            out["mean"] = self.mean()
            out["max"] = self._max
        return out


# -- burn-rate alerting ----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BurnRateRule:
    """A multi-window burn-rate alert condition for one SLO workload.

    The alert **opens** when the burn rate over the trailing
    ``fast_ns`` *and* the trailing ``slow_ns`` both exceed
    ``open_above`` (the classic fast+slow pairing: the slow window
    proves it is not a blip, the fast window proves it is still
    happening) with at least ``min_samples`` observations in the fast
    window.  It **closes** — with hysteresis — only once the fast *and*
    slow burns drop to ``close_below`` or lower.
    """

    workload: str
    fast_ns: float
    slow_ns: float
    open_above: float = 2.0
    close_below: float = 1.0
    min_samples: int = 5
    #: Display label (e.g. the tenant or rack the workload belongs to).
    scope: str = ""

    def __post_init__(self):
        if self.fast_ns <= 0 or self.slow_ns <= 0:
            raise ValueError("burn windows must be positive")
        if self.fast_ns > self.slow_ns:
            raise ValueError(
                f"fast window ({self.fast_ns}) must not exceed the slow "
                f"window ({self.slow_ns})"
            )
        if self.open_above < 0 or self.close_below < 0:
            raise ValueError(
                "burn thresholds must be >= 0: burn is a ratio of counts"
            )
        if self.close_below > self.open_above:
            raise ValueError(
                "close_below above open_above would open/close every tick"
            )
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


class Alert:
    """One open (or closed) burn-rate alert."""

    __slots__ = ("workload", "scope", "opened_at", "closed_at", "peak_burn",
                 "open_fast", "open_slow", "span")

    def __init__(self, workload: str, scope: str, opened_at: float,
                 fast: float, slow: float, span=None):
        self.workload = workload
        self.scope = scope
        self.opened_at = opened_at
        self.closed_at: typing.Optional[float] = None
        self.peak_burn = max(fast, slow)
        self.open_fast = fast
        self.open_slow = slow
        self.span = span

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "scope": self.scope,
            "opened_at": self.opened_at,
            "closed_at": self.closed_at,
            "peak_burn": self.peak_burn,
            "open_fast": self.open_fast,
            "open_slow": self.open_slow,
        }


class _BurnCounts:
    """One rule's SLO windows that are still inside its slow span.

    ``windows`` holds ``[index, total, missed]`` for every non-empty
    window of the workload's ``slo.total``/``slo.missed`` series that
    the last prune kept, oldest first; ``total``/``missed`` are their
    running sums.  The counts are integers, so they equal the float sums
    :meth:`WindowedSeries.sum_over` forms (exact below 2**53).
    """

    __slots__ = ("workload", "order", "totals", "windows", "total",
                 "missed", "since")

    def __init__(self, workload: str, order: int):
        self.workload = workload
        #: Rule-installation position (the sweep's visiting order).
        self.order = order
        self.totals: typing.Optional[WindowedSeries] = None
        self.windows: typing.Deque[list] = collections.deque()
        self.total = 0
        self.missed = 0
        #: The slow span's start at the last prune.
        self.since = float("-inf")


def _by_order(counts: _BurnCounts) -> int:
    return counts.order


class AlertEngine:
    """Evaluates burn-rate rules over the hub's windowed SLO series.

    Driven from two directions: every SLO observation re-evaluates its
    own workload's rule (detection delay is bounded by the traffic
    itself), and every hub poll sweeps the rules (so alerts close when
    traffic stops arriving; see :meth:`sweep` for what it skips).
    Burns come from per-rule integer counts of the SLO windows inside
    the slow span, maintained as observations arrive and windows leave
    the span, and equal what :meth:`burn_over` sums from the series.
    Open/close transitions are recorded as ``alert``-category spans
    plus instant events and counters.
    """

    MAX_LOG = 256

    def __init__(self, hub: "TelemetryHub"):
        self.hub = hub
        self.rules: typing.Dict[str, BurnRateRule] = {}
        self.active: typing.Dict[str, Alert] = {}
        self.log: typing.Deque[Alert] = collections.deque(maxlen=self.MAX_LOG)
        self.opened = 0
        self.closed = 0
        self._counts: typing.Dict[str, _BurnCounts] = {}
        #: Rules whose slow span may hold a window (the sweep's set).
        self._live: typing.Dict[str, _BurnCounts] = {}

    def add_rule(self, rule: BurnRateRule) -> BurnRateRule:
        """Install (or replace) the rule for one workload."""
        self.rules[rule.workload] = rule
        counts = self._counts.get(rule.workload)
        if counts is None:
            counts = self._counts[rule.workload] = _BurnCounts(
                rule.workload, len(self._counts)
            )
        self._recount(counts)
        return rule

    def _recount(self, counts: _BurnCounts) -> None:
        """Rebuild ``counts`` from every retained window of its series."""
        workload = counts.workload
        totals = self.hub.get_series(f"slo.total/{workload}")
        misses = self.hub.get_series(f"slo.missed/{workload}")
        counts.totals = totals
        counts.windows.clear()
        counts.total = counts.missed = 0
        counts.since = float("-inf")
        self._live.pop(workload, None)
        if totals is None:
            return
        missed_at = {
            w.index: int(w.total) for w in misses.windows() if w.count
        } if misses is not None else {}
        for window in totals.windows():
            if window.count:
                total = int(window.total)
                missed = missed_at.get(window.index, 0)
                counts.windows.append([window.index, total, missed])
                counts.total += total
                counts.missed += missed
        if counts.windows:
            self._live[workload] = counts

    def observed(self, workload: str, now: float, missed: bool) -> None:
        """Count one observation the hub just folded into the
        workload's SLO series at ``now``."""
        counts = self._counts.get(workload)
        if counts is None:
            return
        totals = counts.totals
        if totals is None:
            self._recount(counts)
            return
        index = int(now // totals.width)
        windows = counts.windows
        if windows and windows[-1][0] == index:
            last = windows[-1]
            last[1] += 1
            last[2] += missed
        else:
            windows.append([index, 1, int(missed)])
        counts.total += 1
        counts.missed += missed
        self._live[workload] = counts

    def _window_counts(
        self, counts: _BurnCounts, rule: BurnRateRule, now: float
    ) -> typing.Tuple[int, int, int, int]:
        """``(fast total, fast missed, slow total, slow missed)`` at
        ``now``, as :meth:`burn_over` would sum them.

        Drops, for good, the windows that have left the slow span
        (``start + width <= now - slow_ns``, the test
        :meth:`WindowedSeries.sum_over` applies) or the series'
        retention; a span that moved backwards (an earlier ``now``) is
        rebuilt from the series first.
        """
        since = now - rule.slow_ns
        if since < counts.since:
            self._recount(counts)
        counts.since = since
        totals = counts.totals
        if totals is None:
            return 0, 0, 0, 0
        width = totals.width
        first = totals.oldest_index()
        windows = counts.windows
        while windows:
            index, total, missed = windows[0]
            if index >= first and index * width + width > since:
                break
            windows.popleft()
            counts.total -= total
            counts.missed -= missed
        slow_total, slow_missed = counts.total, counts.missed
        fast_total = fast_missed = 0
        fast_since = now - rule.fast_ns
        for index, total, missed in reversed(windows):
            start = index * width
            if start > now:
                slow_total -= total
                slow_missed -= missed
                continue
            if start + width <= fast_since:
                break
            fast_total += total
            fast_missed += missed
        return fast_total, fast_missed, slow_total, slow_missed

    def burn_over(
        self, workload: str, window_ns: float, now: float
    ) -> typing.Tuple[typing.Optional[float], int]:
        """``(burn_rate, samples)`` over the trailing window, summed
        from the series.

        ``None`` burn when the workload has no policy or no samples in
        the window.
        """
        state = self.hub.slo_state(workload)
        if state is None or state.policy is None:
            return None, 0
        totals = self.hub.get_series(f"slo.total/{workload}")
        misses = self.hub.get_series(f"slo.missed/{workload}")
        if totals is None:
            return None, 0
        since = now - window_ns
        total, _ = totals.sum_over(since, now)
        missed = misses.sum_over(since, now)[0] if misses is not None else 0.0
        if total <= 0:
            return None, 0
        return (missed / total) / state.policy.budget, int(total)

    def evaluate(self, workload: str, now: float) -> None:
        """Re-evaluate one workload's rule at ``now``."""
        rule = self.rules.get(workload)
        if rule is None:
            return
        fast_n, fast_missed, slow_n, slow_missed = self._window_counts(
            self._counts[workload], rule, now
        )
        fast = slow = None
        state = self.hub.slo_state(workload)
        if state is not None and state.policy is not None:
            budget = state.policy.budget
            if fast_n:
                fast = (float(fast_missed) / fast_n) / budget
            if slow_n:
                slow = (float(slow_missed) / slow_n) / budget
        alert = self.active.get(workload)
        if alert is None:
            if (
                fast is not None and slow is not None
                and fast_n >= rule.min_samples
                and fast > rule.open_above and slow > rule.open_above
            ):
                self._open(rule, now, fast, slow)
        else:
            alert.peak_burn = max(
                alert.peak_burn, fast or 0.0, slow or 0.0
            )
            if (fast or 0.0) <= rule.close_below and (
                slow or 0.0
            ) <= rule.close_below:
                self._close(alert, now, fast or 0.0, slow or 0.0)

    def sweep(self, now: float) -> None:
        """Re-evaluate every rule that could change state (hub poll).

        Visits, in rule-installation order, only the rules with an
        active alert or a window left in their slow span; a rule whose
        slow span empties leaves that set until its next observation.
        A visited rule without an active alert is still skipped when its
        fast span holds fewer than ``min_samples`` observations or its
        slow span no miss (thresholds are ``>= 0``, so the slow burn
        cannot exceed ``open_above``): :meth:`evaluate` could not open
        an alert.  Idle rules cost nothing; a rule with an open alert is
        always evaluated, so alerts still close when traffic stops.
        """
        live = self._live
        for workload in self.active:
            if workload not in live:
                live[workload] = self._counts[workload]
        if not live:
            return
        for counts in sorted(live.values(), key=_by_order):
            workload = counts.workload
            if workload not in self.active:
                rule = self.rules[workload]
                fast_n, _, _, slow_missed = self._window_counts(
                    counts, rule, now
                )
                if not counts.windows:
                    live.pop(workload, None)
                    continue
                if not slow_missed or fast_n < rule.min_samples:
                    continue
            self.evaluate(workload, now)

    def _open(self, rule: BurnRateRule, now: float,
              fast: float, slow: float) -> None:
        obs = self.hub.obs
        span = None
        if obs is not None:
            span = obs.begin_span(
                "alert", "burn", workload=rule.workload, scope=rule.scope,
            )
            obs.event(
                "alert", "open", workload=rule.workload, scope=rule.scope,
                fast_burn=round(fast, 3), slow_burn=round(slow, 3),
            )
            obs.counter("telemetry.alerts_opened").inc()
        self.active[rule.workload] = Alert(
            rule.workload, rule.scope, now, fast, slow, span=span
        )
        self.opened += 1

    def _close(self, alert: Alert, now: float,
               fast: float, slow: float) -> None:
        alert.closed_at = now
        obs = self.hub.obs
        if obs is not None:
            obs.event(
                "alert", "close", workload=alert.workload, scope=alert.scope,
                fast_burn=round(fast, 3), slow_burn=round(slow, 3),
                peak_burn=round(alert.peak_burn, 3),
                duration=now - alert.opened_at,
            )
            obs.counter("telemetry.alerts_closed").inc()
        if alert.span is not None:
            alert.span.set(peak_burn=round(alert.peak_burn, 3))
            alert.span.close()
            alert.span = None
        del self.active[alert.workload]
        self.log.append(alert)
        self.closed += 1

    def finalize(self, now: float) -> None:
        """End-of-run: close the spans of still-open alerts (the alerts
        themselves stay open in the data — an unresolved breach is a
        finding, not something to paper over)."""
        for alert in self.active.values():
            if alert.span is not None:
                alert.span.set(
                    peak_burn=round(alert.peak_burn, 3), still_open=True
                )
                alert.span.close()
                alert.span = None

    def data(self) -> dict:
        return {
            "opened": self.opened,
            "closed": self.closed,
            "rules": {
                w: {
                    "fast_ns": r.fast_ns, "slow_ns": r.slow_ns,
                    "open_above": r.open_above, "close_below": r.close_below,
                    "min_samples": r.min_samples, "scope": r.scope,
                }
                for w, r in sorted(self.rules.items())
            },
            "log": [a.to_dict() for a in self.log],
            "active": [a.to_dict() for a in self.active.values()],
        }


# -- sampled hotness -------------------------------------------------------


class SampledHotness:
    """Per-region and per-device access heat from a 1-in-N sample.

    Every Nth access (deterministic stride — no RNG, so runs replay
    bit-identically) is recorded with weight ``nbytes * N`` (unbiased
    in expectation).  Each table is a **space-saving** sketch of at most
    ``capacity`` entries: an untracked key evicts the coldest entry and
    inherits its score, so the true top-k survive with bounded error
    while memory stays O(capacity) no matter how many regions a soak
    run touches.  Scores decay exponentially (``half_life_ns``) like
    the full-counting :class:`repro.memory.pointers.HotnessTracker`,
    whose query API (``record``/``hotness``/``ranked``/``forget``) this
    class matches so the tiering layer can consume either.
    """

    def __init__(
        self,
        rate: int = 64,
        k: int = 32,
        half_life_ns: typing.Optional[float] = None,
    ):
        if rate < 1:
            raise ValueError(f"sampling rate must be >= 1, got 1/{rate}")
        if k < 1:
            raise ValueError("top-k must be >= 1")
        self.rate = int(rate)
        self.k = int(k)
        #: Sketch capacity: 2k entries keeps the classic space-saving
        #: top-k guarantee comfortable at Zipf-ish skews.
        self.capacity = max(2 * self.k, 8)
        if half_life_ns is not None and half_life_ns <= 0:
            raise ValueError("half life must be positive")
        self.decay = (
            0.6931471805599453 / half_life_ns if half_life_ns else 0.0
        )
        #: key -> [score, last_time]
        self._regions: typing.Dict[typing.Hashable, list] = {}
        self._devices: typing.Dict[str, list] = {}
        self.seen = 0
        self.sampled = 0
        self.evictions = 0
        self.enabled = True

    # -- recording --------------------------------------------------------

    def record_access(
        self,
        region_id: typing.Hashable,
        device: typing.Optional[str],
        nbytes: float,
        time: float,
    ) -> None:
        """One access; all but every ``rate``-th return immediately."""
        if not self.enabled:
            return
        self.seen += 1
        if self.seen % self.rate:
            return
        self.sampled += 1
        weight = nbytes * self.rate
        self._bump(self._regions, region_id, weight, time)
        if device is not None:
            self._bump(self._devices, device, weight, time)

    def record(self, region_id, nbytes: float, time: float) -> None:
        """Drop-in for ``memory.pointers.HotnessTracker.record``."""
        self.record_access(region_id, None, nbytes, time)

    def _bump(self, table: dict, key, weight: float, time: float) -> None:
        entry = table.get(key)
        if entry is not None:
            if self.decay:
                entry[0] *= self._decay_factor(time - entry[1])
            entry[0] += weight
            entry[1] = time
            return
        if len(table) < self.capacity:
            table[key] = [weight, time]
            return
        # Space-saving eviction: the newcomer inherits the coldest
        # entry's score decayed to ``time`` — an upper bound on its true
        # heat.  Stored scores are decayed only to their last access, so
        # they are compared at ``time`` too.
        if self.decay:
            def score(k):
                entry = table[k]
                return entry[0] * self._decay_factor(time - entry[1])
        else:
            def score(k):
                return table[k][0]
        coldest = min(table, key=score)
        floor = score(coldest)
        del table[coldest]
        table[key] = [floor + weight, time]
        self.evictions += 1

    def _decay_factor(self, elapsed: float) -> float:
        if elapsed <= 0 or not self.decay:
            return 1.0
        return math.exp(-self.decay * elapsed)

    # -- queries ----------------------------------------------------------

    def hotness(self, region_id, time: float = 0.0) -> float:
        """Estimated (decayed) bytes-touched score of a region."""
        entry = self._regions.get(region_id)
        if entry is None:
            return 0.0
        return entry[0] * self._decay_factor(time - entry[1])

    def ranked(
        self, time: float = 0.0, kind: str = "region"
    ) -> typing.List[typing.Tuple[typing.Hashable, float]]:
        """Tracked keys hottest-first (``kind``: "region" or "device")."""
        table = self._regions if kind == "region" else self._devices
        pairs = [
            (key, entry[0] * self._decay_factor(time - entry[1]))
            for key, entry in table.items()
        ]
        pairs.sort(key=lambda p: (-p[1], str(p[0])))
        return pairs

    def top(
        self, k: typing.Optional[int] = None, time: float = 0.0,
        kind: str = "region",
    ) -> typing.List[typing.Tuple[typing.Hashable, float]]:
        """The estimated ``k`` hottest keys (default: the configured k)."""
        return self.ranked(time, kind)[: (k if k is not None else self.k)]

    def forget(self, region_id) -> None:
        """Drop one region's history (e.g. after it is freed)."""
        self._regions.pop(region_id, None)

    def memory_bytes(self) -> int:
        """Estimated resident bytes of both sketches (self-metering)."""
        return (len(self._regions) + len(self._devices)) * 120

    def snapshot(self, time: float = 0.0) -> dict:
        """The sketches as plain data, top-k ranked by scores decayed
        to ``time`` (pass the current clock when ``half_life_ns`` is
        set; without decay every time ranks alike)."""
        return {
            "rate": self.rate,
            "k": self.k,
            "seen": self.seen,
            "sampled": self.sampled,
            "evictions": self.evictions,
            "regions": [
                [str(key), score] for key, score in self.top(time=time)
            ],
            "devices": [
                [str(key), score]
                for key, score in self.top(time=time, kind="device")
            ],
        }


# -- the hub ---------------------------------------------------------------


class _Watcher:
    """One polled fold source: a cumulative/level/sample callable,
    folded by its series' kind."""

    __slots__ = ("series", "fn", "last")

    def __init__(self, series: WindowedSeries, fn):
        self.series = series
        self.fn = fn
        #: Previous cumulative reading (``rate`` series only).
        self.last = None


class TelemetryHub:
    """One run's continuous-telemetry state (``obs.telemetry``).

    Folds live signals into :class:`WindowedSeries` three ways:

    * **push** — subsystems call :meth:`record` / :meth:`record_level`
      / :meth:`adjust` / :meth:`add` at the instant something happens
      (or hold a :meth:`series` handle on hot paths — every compute
      device's ``device.occupancy/<name>`` level series is one);
    * **watch** — :meth:`watch` registers a zero-argument callable
      (a cumulative counter, a level, or a sample) folded on every
      :meth:`poll`;
    * **SLO feed** — the :class:`~repro.obs.slo.SloTracker` calls
      :meth:`slo_observation` on every recorded completion, producing
      the windowed total/missed/latency series the
      :class:`AlertEngine` burns rules over.

    Polling is driven by a :meth:`pump` process (the rack's
    ``rack-sampler``, the LLM engine's ``llm-sampler``, or one in a
    standalone bench) or by the federation heartbeat; alert *detection*
    additionally rides every SLO observation, so a breach is noticed
    within one observation of the fast window filling, pump or no pump.
    """

    def __init__(
        self,
        obs: typing.Optional["Observability"] = None,
        window_ns: float = DEFAULT_WINDOW_NS,
        max_windows: int = DEFAULT_MAX_WINDOWS,
        hotness_rate: int = 64,
        hotness_k: int = 32,
    ):
        self.obs = obs
        self.window_ns = float(window_ns)
        self.max_windows = int(max_windows)
        self._series: typing.Dict[str, WindowedSeries] = {}
        self._watchers: typing.List[_Watcher] = []
        #: workload -> its (slo.total, slo.missed, slo.latency) series.
        self._slo_feeds: typing.Dict[str, tuple] = {}
        self.alerts = AlertEngine(self)
        self.hotness = SampledHotness(rate=hotness_rate, k=hotness_k)
        # -- self-metering (obs.telemetry.*) --
        self.polls = 0
        self.samples = 0
        self.self_wall_s = 0.0
        self._pump_proc = None
        #: Set by :meth:`finalize`; session ``close()`` relies on it.
        self.finalized = False

    # -- configuration -----------------------------------------------------

    def configure(
        self,
        window_ns: typing.Optional[float] = None,
        max_windows: typing.Optional[int] = None,
        hotness_rate: typing.Optional[int] = None,
        hotness_k: typing.Optional[int] = None,
    ) -> "TelemetryHub":
        """Re-size the defaults (applies to series created afterwards)."""
        if window_ns is not None:
            if window_ns <= 0:
                raise ValueError("window width must be positive")
            self.window_ns = float(window_ns)
        if max_windows is not None:
            if max_windows < 1:
                raise ValueError("max_windows must be >= 1")
            self.max_windows = int(max_windows)
        if hotness_rate is not None or hotness_k is not None:
            self.hotness = SampledHotness(
                rate=hotness_rate or self.hotness.rate,
                k=hotness_k or self.hotness.k,
            )
        return self

    def now(self) -> float:
        return self.obs.now() if self.obs is not None else 0.0

    # -- series ------------------------------------------------------------

    def series(
        self,
        name: str,
        kind: str = "sample",
        width_ns: typing.Optional[float] = None,
        bounds: typing.Optional[typing.Sequence[float]] = None,
    ) -> WindowedSeries:
        """Get-or-create one windowed series."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = WindowedSeries(
                name,
                width_ns if width_ns is not None else self.window_ns,
                kind=kind,
                max_windows=self.max_windows,
                bounds=bounds,
            )
            return series
        if series.kind != kind:
            raise TypeError(
                f"series {name!r} already registered as {series.kind}, "
                f"requested {kind}"
            )
        return series

    def get_series(self, name: str) -> typing.Optional[WindowedSeries]:
        return self._series.get(name)

    def names(self) -> typing.List[str]:
        return sorted(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    # -- push API ----------------------------------------------------------

    def record(self, name: str, t: float, value: float,
               bounds: typing.Optional[typing.Sequence[float]] = None) -> None:
        """Push one discrete sample."""
        self.samples += 1
        self.series(name, "sample", bounds=bounds).observe(t, value)

    def record_level(self, name: str, t: float, level: float) -> None:
        """Push one level change."""
        self.samples += 1
        self.series(name, "level").record_level(t, level)

    def adjust(self, name: str, t: float, delta: float) -> None:
        """Shift a level series by ``delta``."""
        self.samples += 1
        self.series(name, "level").adjust(t, delta)

    def add(self, name: str, t: float, delta: float) -> None:
        """Push one counter delta."""
        self.samples += 1
        self.series(name, "rate").add(t, delta)

    # -- watchers ----------------------------------------------------------

    def watch(self, name: str, fn: typing.Callable[[], float],
              kind: str = "rate") -> WindowedSeries:
        """Fold ``fn()`` into ``name`` on every poll.

        ``kind="rate"`` treats ``fn`` as a cumulative counter (the
        per-poll delta is folded); ``kind="level"`` samples it as a
        piecewise-constant level; ``kind="sample"`` folds the raw value
        as a discrete observation.
        """
        series = self.series(name, kind)
        for watcher in self._watchers:
            # Re-registering a name replaces its source (e.g. a rebuilt
            # runtime on the same cluster) instead of double-folding.
            if watcher.series is series:
                watcher.fn = fn
                watcher.last = None
                return series
        self._watchers.append(_Watcher(series, fn))
        return series

    # -- polling -----------------------------------------------------------

    def poll(self, now: typing.Optional[float] = None) -> None:
        """Fold every watcher and sweep the alert rules at ``now``."""
        t0 = _time.perf_counter()
        t = self.now() if now is None else now
        for watcher in self._watchers:
            series = watcher.series
            kind = series.kind
            if kind == "rate":
                value = float(watcher.fn())
                last = watcher.last
                if last is not None and (value != last or series._cur is not None):
                    series.add(t, value - last)
                watcher.last = value
            elif kind == "level":
                series.record_level(t, float(watcher.fn()))
            else:  # sample
                series.observe(t, float(watcher.fn()))
        self.samples += len(self._watchers)
        if self.alerts.rules:
            self.alerts.sweep(t)
        self.polls += 1
        self.self_wall_s += _time.perf_counter() - t0

    def pump(self, engine, interval_ns: typing.Optional[float] = None):
        """Generator: poll forever at ``interval_ns`` (a sim process).

        ``proc = engine.process(hub.pump(engine))``; kill the process
        when done (its pending tick leaves the queue with it).
        """
        interval = interval_ns if interval_ns is not None else self.window_ns
        if interval <= 0:
            raise ValueError("pump interval must be positive")
        while True:
            self.poll(engine.now)
            yield engine.timeout(interval)

    # -- SLO feed ----------------------------------------------------------

    def slo_state(self, workload: str) -> typing.Optional["WorkloadSlo"]:
        if self.obs is None or workload not in self.obs.slo:
            return None
        return self.obs.slo[workload]

    def slo_observation(
        self, workload: str, latency_ns: float, ok: bool,
        state: "WorkloadSlo",
    ) -> None:
        """Fold one SLO observation; called by the tracker on record.

        Only workloads with a policy or an alert rule get windowed
        series: ad-hoc per-job workload names (every submitted job
        records one observation under its own name) would otherwise
        each allocate three series for a single point.  The three
        series are looked up once per workload and kept.
        """
        policy = state.policy
        if policy is None and workload not in self.alerts.rules:
            return
        t0 = _time.perf_counter()
        now = self.now()
        feed = self._slo_feeds.get(workload)
        if feed is None:
            feed = self._slo_feeds[workload] = (
                self.series(f"slo.total/{workload}", "rate"),
                self.series(f"slo.missed/{workload}", "rate"),
                self.series(
                    f"slo.latency/{workload}", "sample",
                    bounds=LATENCY_BOUNDS_NS,
                ),
            )
        totals, misses, latency = feed
        totals.add(now, 1.0)
        missed = not ok or (
            policy is not None and latency_ns > policy.target_ns
        )
        misses.add(now, 1.0 if missed else 0.0)
        latency.observe(now, latency_ns)
        self.samples += 3
        self.alerts.observed(workload, now, missed)
        if policy is not None:
            self.alerts.evaluate(workload, now)
        self.self_wall_s += _time.perf_counter() - t0

    # -- self-metering / export --------------------------------------------

    def memory_bytes(self) -> int:
        """Estimated resident bytes of all telemetry state."""
        return (
            sum(s.memory_bytes() for s in self._series.values())
            + self.hotness.memory_bytes()
            + len(self.alerts.log) * 96
        )

    def _collect_self_metrics(self):
        """The telemetry layer's own cost, as ``obs.telemetry.*``."""
        yield "obs.telemetry.series", float(len(self._series))
        yield "obs.telemetry.windows_retained", float(
            sum(len(s.closed) for s in self._series.values())
        )
        yield "obs.telemetry.windows_dropped", float(
            sum(s.dropped for s in self._series.values())
        )
        yield "obs.telemetry.samples", float(self.samples)
        yield "obs.telemetry.polls", float(self.polls)
        yield "obs.telemetry.self_wall_s", self.self_wall_s
        yield "obs.telemetry.memory_bytes", float(self.memory_bytes())
        yield "obs.telemetry.hotness_seen", float(self.hotness.seen)
        yield "obs.telemetry.hotness_sampled", float(self.hotness.sampled)
        yield "obs.telemetry.hotness_evictions", float(self.hotness.evictions)
        yield "obs.telemetry.alerts_active", float(len(self.alerts.active))

    def finalize(self, now: typing.Optional[float] = None) -> None:
        """End-of-run: final poll + close still-open alert spans."""
        t = self.now() if now is None else now
        self.poll(t)
        self.alerts.finalize(t)
        self.finalized = True

    def data(self, window_limit: typing.Optional[int] = None) -> dict:
        """The hub as plain data (the JSONL/dashboard interchange)."""
        return {
            "window_ns": self.window_ns,
            "series": {
                name: series.snapshot(limit=window_limit)
                for name, series in sorted(self._series.items())
            },
            "alerts": self.alerts.data(),
            "hotness": self.hotness.snapshot(self.now()),
            "self": {
                "samples": self.samples,
                "polls": self.polls,
                "self_wall_s": self.self_wall_s,
                "memory_bytes": self.memory_bytes(),
            },
        }


__all__ = [
    "Alert",
    "AlertEngine",
    "BurnRateRule",
    "DEFAULT_WINDOW_NS",
    "SampledHotness",
    "TelemetryHub",
    "WindowedSeries",
]
