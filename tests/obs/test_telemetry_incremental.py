"""Differential tests for the O(change) telemetry paths.

Gap records in :class:`WindowedSeries` are checked against a series that
materialises every window, and the incremental :meth:`AlertEngine.sweep`
against a sweep that evaluates every rule on every poll with burns
summed by :meth:`WindowedSeries.sum_over`.  Both must agree exactly.
"""

import collections
import random

import pytest

from repro.obs import Observability
from repro.obs.metrics import LATENCY_BOUNDS_NS
from repro.obs.telemetry import AlertEngine, BurnRateRule, WindowedSeries
from repro.obs.telemetry import _Window


class _MaterialisingSeries:
    """Reference fold: every closed window, gap fillers included, is a
    stored :class:`_Window` in a bounded deque."""

    def __init__(self, width, kind, max_windows, bounds):
        self.width = float(width)
        self.kind = kind
        self.max_windows = max_windows
        self.bounds = tuple(bounds) if bounds is not None else None
        self.closed = collections.deque(maxlen=max_windows)
        self.dropped = 0
        self.cur = None
        self.level = 0.0
        self.last_time = 0.0

    def _new(self, index):
        return _Window(index, len(self.bounds) + 1 if self.bounds else None)

    def _close(self, window):
        if len(self.closed) == self.max_windows:
            self.dropped += 1
        self.closed.append(window)

    def _roll_to(self, index):
        cur = self.cur
        if cur is not None and cur.index == index:
            return cur
        if cur is not None:
            self._close(cur)
            first_gap = cur.index + 1
        else:
            first_gap = index
        gap = index - first_gap
        if gap > 0:
            skip = max(0, gap - self.max_windows)
            self.dropped += skip
            for i in range(first_gap + skip, index):
                self._close(self._new(i))
        self.cur = self._new(index)
        if self.kind == "level":
            self.cur.vmin = self.cur.vmax = self.level
        return self.cur

    def fold(self, t, value):
        if self.kind == "level":
            self._record_level(t, value)
            return
        window = self._roll_to(int(t // self.width))
        window.count += 1
        window.total += value
        if value < window.vmin:
            window.vmin = value
        if value > window.vmax:
            window.vmax = value
        if window.buckets is not None:
            window.buckets[sum(1 for b in self.bounds if b < value)] += 1

    def _record_level(self, t, level):
        """One window at a time, as the fold did before gap records."""
        target = int(t // self.width)
        window = self._roll_to(int(self.last_time // self.width))
        cursor = self.last_time
        while window.index < target:
            boundary = (window.index + 1) * self.width
            window.weighted += self.level * (boundary - cursor)
            cursor = boundary
            window = self._roll_to(window.index + 1)
        window.weighted += self.level * (t - cursor)
        self.last_time = t
        self.level = float(level)
        if self.level < window.vmin:
            window.vmin = self.level
        if self.level > window.vmax:
            window.vmax = self.level
        window.count += 1

    def windows(self):
        return list(self.closed) + ([self.cur] if self.cur else [])

    def sum_over(self, since, until):
        total, count = 0.0, 0
        for window in self.windows():
            start = window.index * self.width
            if start + self.width <= since or start > until:
                continue
            total += window.weighted if self.kind == "level" else window.total
            count += window.count
        return total, count


_FIELDS = ("index", "count", "total", "vmin", "vmax", "weighted", "buckets")


def _fields(window):
    return tuple(
        getattr(window, f).hex() if isinstance(getattr(window, f), float)
        else getattr(window, f)
        for f in _FIELDS
    )


def _assert_same(series, ref, rng):
    got, want = series.windows(), ref.windows()
    assert [_fields(w) for w in got] == [_fields(w) for w in want]
    assert series.dropped == ref.dropped
    assert len(series.closed) == len(ref.closed)
    assert [_fields(w) for w in series.closed] == [
        _fields(w) for w in ref.closed
    ]
    assert _fields(series.newest()) == _fields(want[-1])
    assert series.oldest_index() == want[0].index
    assert [series.window_stats(w) for w in got] == [
        series.window_stats(w) for w in want
    ]
    n = len(ref.closed) + 1
    per = 160 + (len(ref.bounds) + 1) * 8 if ref.bounds else 160
    assert series.memory_bytes() == n * per
    width = series.width
    last = want[-1].index + 3
    first = want[0].index - 3
    for _ in range(12):
        pick = rng.random()
        if pick < 0.4:
            since = rng.randint(first, last) * width
            until = rng.randint(first, last) * width
        elif pick < 0.8:
            since = rng.uniform(first * width, last * width)
            until = since + rng.uniform(0.0, (last - first) * width)
        else:
            since, until = float("-inf"), float("inf")
        g, w = series.sum_over(since, until), ref.sum_over(since, until)
        assert g[1] == w[1]
        assert g[0].hex() == w[0].hex()


@pytest.mark.parametrize("kind", ["sample", "level", "rate"])
@pytest.mark.parametrize("seed", range(6))
def test_gap_records_match_materialised_windows(kind, seed):
    rng = random.Random(seed * 31 + len(kind))
    width = rng.choice((1.0, 0.1, 7.3, 100_000.0 / 3))
    max_windows = rng.randint(1, 12)
    bounds = LATENCY_BOUNDS_NS[:6] if kind == "sample" else None
    series = WindowedSeries("s", width, kind=kind, max_windows=max_windows,
                            bounds=bounds)
    ref = _MaterialisingSeries(width, kind, max_windows, bounds)
    fold = {"sample": series.observe, "rate": series.add,
            "level": series.record_level}[kind]
    t = 0.0
    for step in range(60):
        # Same-window folds, short gaps and jumps well past max_windows.
        span = rng.choice((0.0, 0.3, 1.0, 2.0, 5.0, max_windows - 1.0,
                           max_windows + 0.5, 3.0 * max_windows, 500.0))
        t += rng.uniform(0.0, span) * width if rng.random() < 0.5 \
            else span * width
        value = rng.choice((0.0, -0.0, 1.0, 3.5, -2.0,
                            rng.uniform(-1e3, 1e3), rng.uniform(0, 1e7)))
        fold(t, value)
        ref.fold(t, value)
        if step % 7 == 0:
            _assert_same(series, ref, rng)
    _assert_same(series, ref, rng)
    snap = series.snapshot()
    assert snap["dropped"] == ref.dropped
    assert snap["windows"] == [series.window_stats(w) for w in ref.windows()]


def test_jump_far_past_retention_keeps_one_record():
    s = WindowedSeries("s", width_ns=1.0, max_windows=8, kind="level")
    s.record_level(0.5, 2.0)
    s.record_level(1_000_000.5, 3.0)
    assert len(s.closed.entries) == 1  # one gap run
    assert len(s.closed) == 8
    assert s.dropped == 1_000_000 - 8
    assert [w.weighted for w in s.windows()] == [2.0] * 8 + [1.0]


# -- the alert sweep --------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0


class _BruteForceAlertEngine(AlertEngine):
    """Reference engine: every rule on every poll, burns from
    :meth:`burn_over` (``sum_over`` on the series)."""

    def evaluate(self, workload, now):
        rule = self.rules.get(workload)
        if rule is None:
            return
        fast, fast_n = self.burn_over(workload, rule.fast_ns, now)
        slow, _ = self.burn_over(workload, rule.slow_ns, now)
        alert = self.active.get(workload)
        if alert is None:
            if (
                fast is not None and slow is not None
                and fast_n >= rule.min_samples
                and fast > rule.open_above and slow > rule.open_above
            ):
                self._open(rule, now, fast, slow)
        else:
            alert.peak_burn = max(alert.peak_burn, fast or 0.0, slow or 0.0)
            if (fast or 0.0) <= rule.close_below and (
                slow or 0.0
            ) <= rule.close_below:
                self._close(alert, now, fast or 0.0, slow or 0.0)

    def sweep(self, now):
        for workload in list(self.rules):
            self.evaluate(workload, now)


W = 1_000.0
_WORKLOADS = ("a", "b", "c", "d", "e", "f")


def _rule(rng, workload):
    fast = rng.choice((1, 2, 3)) * W
    open_above = rng.choice((0.0, 1.0, 2.0, 5.0))
    return BurnRateRule(
        workload, fast_ns=fast, slow_ns=fast * rng.choice((1, 4, 10)),
        open_above=open_above,
        close_below=min(open_above, rng.choice((0.0, 0.5, 1.0))),
        min_samples=rng.choice((1, 3, 5)),
    )


def _trace(seed):
    """Seeded operations: observations with miss bursts, polls (a few
    stamped before the latest observation), rules installed late and
    replaced, and workloads without a policy."""
    rng = random.Random(seed)
    ops = [("configure", rng.choice((3, 6, 50)))]
    for workload in _WORKLOADS[:4]:
        ops.append(("policy", workload, rng.choice((0.9, 0.99))))
    for workload in _WORKLOADS[:5]:  # "e" has a rule but no policy
        if rng.random() < 0.8:
            ops.append(("rule", _rule(rng, workload)))
    t = 0.0
    burst = set()
    for _ in range(400):
        t += rng.choice((0.0, 0.1, 0.4, 1.0, 3.0, 15.0)) * W * rng.random()
        roll = rng.random()
        if roll < 0.05:
            burst ^= {rng.choice(_WORKLOADS)}
        elif roll < 0.08:
            ops.append(("rule", _rule(rng, rng.choice(_WORKLOADS))))
        elif roll < 0.23:
            ops.append(("poll", t))
        elif roll < 0.25:
            ops.append(("poll", max(0.0, t - rng.uniform(0.0, 12.0) * W)))
        else:
            workload = rng.choice(_WORKLOADS)
            miss = workload in burst or rng.random() < 0.05
            ops.append(("record", workload, t, 5_000.0 if miss else 50.0,
                        not (miss and rng.random() < 0.3)))
    ops.append(("poll", t + 40 * W))
    return ops


def _run(ops, engine_cls, check_burns=False):
    obs = Observability(engine=_Clock())
    hub = obs.telemetry
    hub.alerts = engine_cls(hub)
    polls = []
    for op in ops:
        kind = op[0]
        if kind == "configure":
            hub.configure(window_ns=W, max_windows=op[1])
        elif kind == "policy":
            obs.slo.set_policy(op[1], target_ns=1_000.0, objective=op[2])
        elif kind == "rule":
            hub.alerts.add_rule(op[1])
        elif kind == "record":
            obs.engine.now = op[2]
            obs.slo.record(op[1], op[3], ok=op[4])
        else:
            obs.engine.now = op[1]
            hub.poll(op[1])
            if check_burns:
                _assert_burns_match_sum_over(hub.alerts, op[1])
            polls.append(hub.alerts.data())
    return hub.alerts, polls


def _assert_burns_match_sum_over(alerts, now):
    for workload, rule in alerts.rules.items():
        fast_n, fast_m, slow_n, slow_m = alerts._window_counts(
            alerts._counts[workload], rule, now
        )
        fast, want_fast_n = alerts.burn_over(workload, rule.fast_ns, now)
        slow, _ = alerts.burn_over(workload, rule.slow_ns, now)
        state = alerts.hub.slo_state(workload)
        if state is None or state.policy is None:
            assert fast is None and slow is None
            continue
        budget = state.policy.budget
        assert fast == ((fast_m / fast_n) / budget if fast_n else None)
        assert slow == ((slow_m / slow_n) / budget if slow_n else None)
        assert (want_fast_n if fast is not None else 0) == fast_n


@pytest.mark.parametrize("seed", range(12))
def test_sweep_matches_every_rule_every_poll(seed):
    ops = _trace(seed)
    fast, fast_polls = _run(ops, AlertEngine, check_burns=True)
    brute, brute_polls = _run(ops, _BruteForceAlertEngine)
    assert fast_polls == brute_polls
    assert (fast.opened, fast.closed) == (brute.opened, brute.closed)
    assert [a.to_dict() for a in fast.log] == [
        a.to_dict() for a in brute.log
    ]


def test_traces_open_and_close_alerts():
    """The seeded traces exercise both transitions, not just idle."""
    opened = closed = 0
    for seed in range(12):
        alerts, _ = _run(_trace(seed), AlertEngine)
        opened += alerts.opened
        closed += alerts.closed
    assert opened >= 10 and closed >= 10


def test_rule_installed_after_a_burst_opens_at_the_next_poll():
    obs = Observability(engine=_Clock())
    obs.slo.set_policy("w", target_ns=1_000.0, objective=0.9)
    for _ in range(5):
        obs.slo.record("w", 5_000.0)
    alerts = obs.telemetry.alerts
    alerts.add_rule(BurnRateRule("w", fast_ns=1e5, slow_ns=1e6,
                                 min_samples=5))
    assert alerts.active == {}
    obs.telemetry.poll(0.0)
    assert alerts.active["w"].open_fast == alerts.burn_over("w", 1e5, 0.0)[0]


def test_sweep_visits_only_live_rules():
    obs = Observability(engine=_Clock())
    alerts = obs.telemetry.alerts
    for i in range(50):
        obs.slo.set_policy(f"w{i}", target_ns=1_000.0, objective=0.9)
        alerts.add_rule(BurnRateRule(f"w{i}", fast_ns=2 * 1e5,
                                     slow_ns=10 * 1e5))
    obs.slo.record("w7", 50.0)
    assert list(alerts._live) == ["w7"]
    obs.telemetry.poll(0.0)
    assert list(alerts._live) == ["w7"]
    obs.telemetry.poll(11 * 1e5)  # the window left the slow span
    assert alerts._live == {}
