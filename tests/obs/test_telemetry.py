"""Continuous telemetry: windowed series, burn alerts, sampled hotness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.obs.metrics import LATENCY_BOUNDS_NS
from repro.obs.slo import SloPolicy
from repro.obs.telemetry import (
    AlertEngine,
    BurnRateRule,
    SampledHotness,
    TelemetryHub,
    WindowedSeries,
)
from repro.sim.engine import Engine


class TestWindowedSeriesSample:
    def test_deterministic_window_boundaries(self):
        s = WindowedSeries("s", width_ns=100.0)
        assert s.window_index(0.0) == 0
        assert s.window_index(99.999) == 0
        assert s.window_index(100.0) == 1
        assert s.window_index(250.0) == 2

    def test_per_window_count_mean_min_max(self):
        s = WindowedSeries("s", width_ns=100.0)
        s.observe(10.0, 5.0)
        s.observe(20.0, 15.0)
        s.observe(150.0, 100.0)
        stats = [s.window_stats(w) for w in s.windows()]
        assert [st["index"] for st in stats] == [0, 1]
        assert stats[0]["count"] == 2
        assert stats[0]["mean"] == pytest.approx(10.0)
        assert stats[0]["min"] == 5.0 and stats[0]["max"] == 15.0
        assert stats[1]["count"] == 1 and stats[1]["mean"] == 100.0

    def test_in_window_p95_from_log_buckets(self):
        s = WindowedSeries("lat", width_ns=1e6, bounds=LATENCY_BOUNDS_NS)
        for _ in range(95):
            s.observe(0.0, 2_000.0)
        for _ in range(5):
            s.observe(0.0, 1_000_000.0)
        stats = s.window_stats(s.windows()[0])
        # p95 lands at the boundary between the bulk and the tail.
        assert 1_500.0 <= stats["p95"] <= 1_100_000.0
        assert stats["p95"] < stats["max"] * 1.01

    def test_time_backwards_across_windows_raises(self):
        s = WindowedSeries("s", width_ns=100.0)
        s.observe(500.0, 1.0)
        with pytest.raises(ValueError, match="backwards"):
            s.observe(100.0, 1.0)

    def test_kind_mismatch_raises(self):
        s = WindowedSeries("s", width_ns=100.0, kind="sample")
        with pytest.raises(TypeError):
            s.add(0.0, 1.0)
        with pytest.raises(TypeError):
            s.record_level(0.0, 1.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            WindowedSeries("s", width_ns=0.0)
        with pytest.raises(ValueError):
            WindowedSeries("s", width_ns=10.0, kind="bogus")
        with pytest.raises(ValueError):
            WindowedSeries("s", width_ns=10.0, max_windows=0)


class TestWindowedSeriesLevel:
    def test_dwell_split_exactly_at_boundaries(self):
        s = WindowedSeries("q", width_ns=100.0, kind="level")
        s.record_level(0.0, 4.0)   # level 4 from t=0
        s.record_level(150.0, 0.0)  # drops at t=150
        s.record_level(200.0, 0.0)  # close window 1
        stats = [s.window_stats(w) for w in s.windows()]
        # Window 0: level 4 the whole 100ns -> mean 4.
        assert stats[0]["mean"] == pytest.approx(4.0)
        # Window 1: 4 for 50ns, 0 for 50ns -> mean 2.
        assert stats[1]["mean"] == pytest.approx(2.0)

    def test_gap_windows_carry_the_standing_level(self):
        s = WindowedSeries("q", width_ns=100.0, kind="level")
        s.record_level(0.0, 3.0)
        s.record_level(350.0, 3.0)  # no change, just advance time
        stats = [s.window_stats(w) for w in s.windows()]
        assert [st["mean"] for st in stats[:3]] == pytest.approx(
            [3.0, 3.0, 3.0]
        )

    def test_adjust_shifts_the_level(self):
        s = WindowedSeries("q", width_ns=100.0, kind="level")
        s.adjust(0.0, 2.0)
        s.adjust(50.0, -1.0)
        assert s.level == 1.0
        s.record_level(100.0, 1.0)
        first = s.window_stats(s.windows()[0])
        assert first["mean"] == pytest.approx(1.5)  # 2 for 50ns, 1 for 50ns


def _level(max_windows: int = 256) -> WindowedSeries:
    return WindowedSeries("occ", width_ns=100.0, kind="level",
                          max_windows=max_windows)


class TestLevelLifetimeAggregates:
    """Exact whole-run mean/max/min of a level series."""

    def test_time_weighted_mean(self):
        s = _level()
        s.record_level(0.0, 10.0)  # level 10 from t=0
        s.record_level(10.0, 20.0)  # level 20 from t=10
        assert s.mean(until=20.0) == pytest.approx(15.0)

    def test_adjust_occupancy_counting(self):
        s = _level()
        s.adjust(0.0, +2)
        s.adjust(5.0, -1)
        assert s.level == 1
        assert s.maximum == 2
        assert s.mean(until=10.0) == pytest.approx(1.5)

    def test_time_cannot_go_backwards(self):
        s = _level()
        s.record_level(5.0, 1.0)
        with pytest.raises(ValueError):
            s.record_level(4.0, 2.0)
        with pytest.raises(ValueError):
            s.mean(until=1.0)

    def test_no_elapsed_time_returns_current_level(self):
        s = _level()
        assert s.mean() == 0.0
        s.record_level(0.0, 7.0)
        assert s.mean() == 7.0

    def test_aggregates_and_snapshot(self):
        s = _level()
        s.adjust(0.0, +1)
        s.adjust(10.0, +1)
        s.adjust(20.0, -2)
        assert (s.level, s.maximum, s.minimum) == (0.0, 2.0, 0.0)
        # 1 for 10ns, 2 for 10ns -> mean 1.5 up to the last change.
        assert s.mean() == pytest.approx(1.5)
        snap = s.snapshot()
        assert (snap["mean"], snap["max"]) == (s.mean(), 2.0)
        assert "mean" not in WindowedSeries("r", 100.0, kind="rate").snapshot()

    def test_dwell_straddling_windows_matches_the_reference_sums(self):
        # Changes that straddle window boundaries (and skip whole
        # windows), with only two windows retained: the lifetime
        # numbers are the plain running sums over every change, bit
        # for bit, however the dwell was split across windows.
        changes = [(0.0, 3.0), (130.0, 1.0), (135.5, 4.0), (420.25, 0.5),
                   (420.25, 6.0), (999.0, 2.0)]
        s = _level(max_windows=2)
        weighted = elapsed = last = level = peak = floor = 0.0
        for t, value in changes:
            s.record_level(t, value)
            dwell = t - last
            weighted += level * dwell
            elapsed += dwell
            last, level = t, value
            peak, floor = max(peak, level), min(floor, level)
        assert s.dropped > 0
        until = 1234.5
        tail = until - last
        assert s.mean(until) == (weighted + level * tail) / (elapsed + tail)
        assert s.mean() == weighted / elapsed
        assert (s.maximum, s.minimum) == (peak, floor) == (6.0, 0.0)


class TestWindowedSeriesRate:
    def test_rate_is_total_over_width(self):
        s = WindowedSeries("bytes", width_ns=100.0, kind="rate")
        s.add(10.0, 400.0)
        s.add(90.0, 600.0)
        stats = s.window_stats(s.windows()[0])
        assert stats["total"] == 1000.0
        assert stats["rate"] == pytest.approx(10.0)

    def test_gap_synthesizes_zero_windows(self):
        s = WindowedSeries("bytes", width_ns=100.0, kind="rate")
        s.add(10.0, 1.0)
        s.add(410.0, 1.0)
        stats = [s.window_stats(w) for w in s.windows()]
        assert [st["index"] for st in stats] == [0, 1, 2, 3, 4]
        assert [st["total"] for st in stats[1:4]] == [0.0, 0.0, 0.0]
        assert s.dropped == 0


class TestWindowedSeriesBounds:
    def test_retention_is_bounded_and_drops_counted(self):
        s = WindowedSeries("s", width_ns=10.0, max_windows=4)
        for i in range(10):
            s.observe(i * 10.0, 1.0)
        assert len(s.closed) == 4
        assert s.dropped == 5  # 9 closed windows, 4 retained
        assert len(s.windows()) == 5  # + the open one

    def test_huge_time_jump_materializes_bounded_gap(self):
        s = WindowedSeries("s", width_ns=1.0, max_windows=8, kind="rate")
        s.add(0.0, 1.0)
        s.add(1_000_000.0, 1.0)  # a million-window jump
        assert len(s.windows()) <= 9
        # Everything not materialized is accounted for.
        assert s.dropped >= 1_000_000 - 10

    def test_sum_over_is_window_aligned(self):
        s = WindowedSeries("s", width_ns=100.0, kind="rate")
        s.add(50.0, 1.0)
        s.add(150.0, 2.0)
        s.add(250.0, 4.0)
        total, count = s.sum_over(100.0, 299.0)
        assert total == 6.0 and count == 2
        # An interval ending inside window 0 still includes all of it.
        assert s.sum_over(0.0, 10.0)[0] == 1.0
        assert s.sum_over(1_000.0, 2_000.0) == (0.0, 0)

    def test_memory_estimate_grows_with_retention(self):
        s = WindowedSeries("s", width_ns=10.0, max_windows=16)
        empty = s.memory_bytes()
        for i in range(8):
            s.observe(i * 10.0, 1.0)
        assert s.memory_bytes() > empty

    def test_snapshot_limit(self):
        s = WindowedSeries("s", width_ns=10.0)
        for i in range(6):
            s.observe(i * 10.0, 1.0)
        snap = s.snapshot(limit=3)
        assert len(snap["windows"]) == 3
        assert snap["windows"][-1]["index"] == 5


def _brute_sum_over(series, since, until):
    """Reference ``sum_over``: scan every retained window."""
    total, count = 0.0, 0
    for window in series.windows():
        start = window.index * series.width
        if start + series.width <= since or start > until:
            continue
        total += window.weighted if series.kind == "level" else window.total
        count += window.count
    return total, count


_WIDTHS = (1.0, 0.1, 7.3, 100.0, 100_000.0 / 3)


class TestSumOverExactness:
    """The sliced ``sum_over`` must equal a scan of every window."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_brute_force_bit_for_bit(self, data):
        kind = data.draw(st.sampled_from(("sample", "level", "rate")))
        width = data.draw(st.sampled_from(_WIDTHS))
        s = WindowedSeries(
            "s", width_ns=width, kind=kind,
            max_windows=data.draw(st.integers(1, 6)),
        )
        fold = {"sample": s.observe, "rate": s.add,
                "level": s.record_level}[kind]
        # Steps in windows: fractional, exact edges, and jumps far
        # beyond max_windows (synthesized then dropped gaps).
        steps = data.draw(st.lists(
            st.one_of(
                st.floats(0.0, 3.0),
                st.integers(0, 40).map(float),
            ),
            min_size=1, max_size=30,
        ))
        t = 0.0
        for step in steps:
            t += step * width
            fold(t, data.draw(st.floats(-1e3, 1e3)))
        last = s.newest().index + 3
        edge = st.integers(-3, last).map(lambda k: k * width)
        point = st.one_of(
            edge,
            st.floats(-3 * width, last * width),
            st.sampled_from((float("-inf"), float("inf"))),
        )
        for _ in range(8):
            since, until = data.draw(point), data.draw(point)
            got = s.sum_over(since, until)
            want = _brute_sum_over(s, since, until)
            assert got[1] == want[1]
            assert got[0].hex() == want[0].hex()


class TestHubWatchers:
    def test_watch_counter_folds_deltas(self):
        obs = Observability()
        counter = obs.counter("jobs.done")
        obs.telemetry.watch("jobs.done", lambda: counter.value, kind="rate")
        obs.telemetry.poll(0.0)  # baseline
        counter.inc(3)
        obs.telemetry.poll(100_000.0)
        counter.inc(5)
        obs.telemetry.poll(200_000.0)
        series = obs.telemetry.get_series("jobs.done")
        stats = [series.window_stats(w) for w in series.windows()]
        # The first poll only sets the baseline; deltas land after it.
        assert [st["index"] for st in stats] == [1, 2]
        assert [st["total"] for st in stats] == [3.0, 5.0]

    def test_rewatching_same_series_does_not_double_fold(self):
        obs = Observability()
        counter = obs.counter("jobs.done")
        for _ in range(2):  # e.g. a rebuilt runtime
            obs.telemetry.watch("jobs.done", lambda: counter.value,
                                kind="rate")
        obs.telemetry.poll(0.0)
        counter.inc(4)
        obs.telemetry.poll(100_000.0)
        series = obs.telemetry.get_series("jobs.done")
        assert series.window_stats(series.windows()[-1])["total"] == 4.0

    def test_series_kind_conflict_raises(self):
        hub = TelemetryHub()
        hub.series("x", "rate")
        with pytest.raises(TypeError, match="already registered"):
            hub.series("x", "level")

    def test_pump_polls_on_engine_cadence(self):
        engine = Engine()
        obs = Observability(engine=engine)
        hub = obs.telemetry
        engine.process(hub.pump(engine, interval_ns=1_000.0))
        engine.run(until=10_500.0)
        assert hub.polls == 11  # t=0 through t=10000

    def test_self_metering_exposed_via_registry(self):
        obs = Observability()
        obs.telemetry.record("x", 0.0, 1.0)
        snap = obs.registry.snapshot()
        assert snap["obs.telemetry.series"]["value"] == 1.0
        assert snap["obs.telemetry.samples"]["value"] == 1.0
        assert snap["obs.telemetry.memory_bytes"]["value"] > 0.0

    def test_data_round_trip_shape(self):
        obs = Observability()
        obs.telemetry.record("lat", 0.0, 5.0)
        data = obs.telemetry.data()
        assert data["series"]["lat"]["kind"] == "sample"
        assert data["self"]["samples"] == 1
        assert "alerts" in data and "hotness" in data


class TestSloFeedGating:
    def test_ad_hoc_workloads_get_no_series(self):
        obs = Observability()
        obs.slo.record("one-shot-job", 5_000.0)
        assert obs.telemetry.names() == []

    def test_policy_workloads_get_three_series(self):
        obs = Observability()
        obs.slo.set_policy("web", target_ns=10_000.0)
        obs.slo.record("web", 5_000.0)
        assert set(obs.telemetry.names()) == {
            "slo.total/web", "slo.missed/web", "slo.latency/web"
        }

    def test_rule_only_workloads_also_tracked(self):
        obs = Observability()
        obs.telemetry.alerts.add_rule(
            BurnRateRule("batch", fast_ns=1e5, slow_ns=1e6)
        )
        obs.slo.record("batch", 5_000.0)
        assert "slo.total/batch" in obs.telemetry


class _Clock:
    """A settable stand-in for the engine clock."""

    def __init__(self):
        self.now = 0.0


def _feed(obs, workload, now, latency, n):
    obs.engine.now = now
    for _ in range(n):
        obs.slo.record(workload, latency)


class TestAlertEngine:
    W = 100_000.0  # hub default window

    def _obs(self):
        obs = Observability(engine=_Clock())
        obs.slo.set_policy("web", target_ns=10_000.0, objective=0.9)
        obs.telemetry.alerts.add_rule(BurnRateRule(
            "web", fast_ns=2 * self.W, slow_ns=10 * self.W,
            open_above=2.0, close_below=1.0, min_samples=5,
        ))
        return obs

    def test_opens_on_sustained_fast_and_slow_burn(self):
        obs = self._obs()
        # budget = 0.1; all-miss traffic burns at 10x in every window.
        _feed(obs, "web", 0.0, 50_000.0, 6)
        assert "web" in obs.telemetry.alerts.active
        assert obs.telemetry.alerts.opened == 1
        alert = obs.telemetry.alerts.active["web"]
        assert alert.open_fast > 2.0 and alert.open_slow > 2.0

    def test_min_samples_suppresses_blips(self):
        obs = self._obs()
        _feed(obs, "web", 0.0, 50_000.0, 4)  # all misses, but < 5 samples
        assert obs.telemetry.alerts.active == {}

    def test_clean_traffic_never_alerts(self):
        obs = self._obs()
        _feed(obs, "web", 0.0, 1_000.0, 50)
        obs.telemetry.poll(5 * self.W)
        assert obs.telemetry.alerts.opened == 0

    def test_closes_with_hysteresis_after_recovery(self):
        obs = self._obs()
        _feed(obs, "web", 0.0, 50_000.0, 6)
        assert "web" in obs.telemetry.alerts.active
        # Healthy traffic; once the bad window leaves both trailing
        # windows, burn drops to 0 and the alert closes.
        for i in range(1, 12):
            _feed(obs, "web", i * self.W, 1_000.0, 6)
        assert obs.telemetry.alerts.active == {}
        assert obs.telemetry.alerts.closed == 1
        closed = obs.telemetry.alerts.log[-1]
        assert closed.closed_at > closed.opened_at
        assert closed.peak_burn > 2.0

    def test_sweep_closes_when_traffic_stops(self):
        obs = self._obs()
        _feed(obs, "web", 0.0, 50_000.0, 6)
        assert "web" in obs.telemetry.alerts.active
        # No further observations: a poll far in the future finds no
        # samples in either window -> burns are None -> close.
        obs.telemetry.poll(50 * self.W)
        assert obs.telemetry.alerts.active == {}

    def test_open_close_recorded_as_spans_and_counters(self):
        obs = self._obs()
        obs.enable("alert")
        _feed(obs, "web", 0.0, 50_000.0, 6)
        for i in range(1, 12):
            _feed(obs, "web", i * self.W, 1_000.0, 6)
        events = [e for e in obs.trace.events if e.category == "alert"]
        names = [e.name for e in events]
        assert "open" in names and "close" in names and "burn" in names
        snap = obs.registry.snapshot()
        assert snap["telemetry.alerts_opened"]["value"] == 1.0
        assert snap["telemetry.alerts_closed"]["value"] == 1.0

    def test_finalize_closes_spans_but_keeps_alert_open(self):
        obs = self._obs()
        obs.enable("alert")
        _feed(obs, "web", 0.0, 50_000.0, 6)
        obs.telemetry.finalize(2 * self.W)
        # Still an active (unresolved) alert in the data...
        assert len(obs.telemetry.alerts.active) == 1
        # ...but its span closed with the still_open marker.
        spans = [e for e in obs.trace.events
                 if e.category == "alert" and e.begin is not None]
        assert spans and spans[0].fields.get("still_open") is True

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            BurnRateRule("w", fast_ns=1e6, slow_ns=1e5)  # fast > slow
        with pytest.raises(ValueError):
            BurnRateRule("w", fast_ns=1e5, slow_ns=1e6,
                         open_above=1.0, close_below=2.0)
        with pytest.raises(ValueError):
            BurnRateRule("w", fast_ns=0.0, slow_ns=1e6)
        with pytest.raises(ValueError):
            BurnRateRule("w", fast_ns=1e5, slow_ns=1e6, min_samples=0)

    def test_rule_rejects_negative_thresholds(self):
        with pytest.raises(ValueError, match=">= 0"):
            BurnRateRule("w", fast_ns=1e5, slow_ns=1e6,
                         open_above=-1.0, close_below=-2.0)
        with pytest.raises(ValueError, match=">= 0"):
            BurnRateRule("w", fast_ns=1e5, slow_ns=1e6,
                         open_above=1.0, close_below=-0.5)
        BurnRateRule("w", fast_ns=1e5, slow_ns=1e6,
                     open_above=0.0, close_below=0.0)


class _EveryRuleAlertEngine(AlertEngine):
    """The pre-skip sweep: evaluate every rule on every poll."""

    def sweep(self, now):
        for workload in self.rules:
            self.evaluate(workload, now)


class TestSweepIdleSkip:
    W = 100_000.0

    def _obs(self, engine_cls, n_rules=40):
        obs = Observability(engine=_Clock())
        obs.telemetry.alerts = engine_cls(obs.telemetry)
        for i in range(n_rules):
            name = f"w{i:02d}"
            obs.slo.set_policy(name, target_ns=10_000.0, objective=0.9)
            obs.telemetry.alerts.add_rule(BurnRateRule(
                name, fast_ns=2 * self.W, slow_ns=10 * self.W,
                open_above=2.0, close_below=1.0, min_samples=5,
            ))
        return obs

    def _drive(self, obs):
        """w00 burns hot then goes silent; a few rules see a little
        early traffic; most never see any."""
        snapshots = []
        for step in range(60):
            now = step * self.W
            if step < 4:
                _feed(obs, "w00", now, 50_000.0, 6)
            if step in (1, 2):
                for name in ("w03", "w07", "w11"):
                    _feed(obs, name, now + 1.0, 1_000.0, 2)
            obs.telemetry.poll(now + 0.5 * self.W)
            snapshots.append(obs.telemetry.alerts.data())
        return snapshots

    def test_same_alerts_as_evaluating_every_rule(self):
        skipping = self._drive(self._obs(AlertEngine))
        reference = self._drive(self._obs(_EveryRuleAlertEngine))
        assert skipping == reference
        final = skipping[-1]
        # The scenario exercised an alert that opened and then closed
        # once traffic stopped (the close came from a sweep).
        assert final["opened"] == 1 and final["closed"] == 1
        assert final["active"] == []

    def test_never_skips_a_rule_with_an_active_alert(self):
        obs = self._obs(AlertEngine)
        alerts = obs.telemetry.alerts
        evaluated = []
        sweeps = []
        evaluate, sweep = alerts.evaluate, alerts.sweep

        def spy_evaluate(workload, now):
            evaluated.append(workload)
            evaluate(workload, now)

        def spy_sweep(now):
            active = set(alerts.active)
            evaluated.clear()
            sweep(now)
            sweeps.append((active, set(evaluated)))

        alerts.evaluate, alerts.sweep = spy_evaluate, spy_sweep
        self._drive(obs)
        assert all(active <= swept for active, swept in sweeps)
        assert any("w00" in active for active, _ in sweeps)
        # Idle rules were skipped: far fewer evaluations than
        # rules x polls.
        assert sum(len(swept) for _, swept in sweeps) < 40 * 60 // 10


class TestSampledHotness:
    def test_every_nth_access_sampled_deterministically(self):
        sketch = SampledHotness(rate=4, k=8)
        for i in range(16):
            sketch.record_access("r", "dev", 100.0, float(i))
        assert sketch.seen == 16
        assert sketch.sampled == 4

    def test_weight_is_unbiased_in_expectation(self):
        sketch = SampledHotness(rate=4, k=8)
        for i in range(400):
            sketch.record_access("r", None, 100.0, 0.0)
        # 100 samples x (100 * 4) = 40000 = the true bytes touched.
        assert sketch.hotness("r") == pytest.approx(400 * 100.0)

    def test_space_saving_keeps_memory_bounded(self):
        sketch = SampledHotness(rate=1, k=4)  # capacity 8
        for i in range(1000):
            sketch.record_access(f"r{i}", None, 10.0, 0.0)
        assert len(sketch._regions) <= sketch.capacity
        assert sketch.evictions > 0
        assert sketch.memory_bytes() <= sketch.capacity * 2 * 120

    def test_heavy_hitters_survive_eviction_pressure(self):
        sketch = SampledHotness(rate=1, k=4)
        for round_ in range(50):
            sketch.record_access("hot", None, 1000.0, 0.0)
            sketch.record_access(f"cold{round_}", None, 1.0, 0.0)
        top = [key for key, _ in sketch.top(1)]
        assert top == ["hot"]

    def test_pointers_tracker_api_compat(self):
        from repro.memory.pointers import HotnessTracker

        full = HotnessTracker(half_life_ns=1e6)
        sampled = SampledHotness(rate=1, k=8, half_life_ns=1e6)
        for tracker in (full, sampled):
            tracker.record(1, 4096.0, 0.0)
            tracker.record(2, 1024.0, 10.0)
        assert full.hotness(1, 10.0) > 0 and sampled.hotness(1, 10.0) > 0
        assert [k for k, _ in full.ranked(10.0)] == [
            k for k, _ in sampled.ranked(10.0)
        ]
        full.forget(1)
        sampled.forget(1)
        assert full.hotness(1, 10.0) == sampled.hotness(1, 10.0) == 0.0

    def test_decay_halves_score_per_half_life(self):
        sketch = SampledHotness(rate=1, k=4, half_life_ns=100.0)
        sketch.record_access("r", None, 1000.0, 0.0)
        assert sketch.hotness("r", 100.0) == pytest.approx(500.0)

    def test_eviction_compares_scores_decayed_to_now(self):
        sketch = SampledHotness(rate=1, k=4, half_life_ns=100.0)  # cap 8
        sketch.record_access("A", None, 1000.0, 0.0)
        for i in range(7):
            sketch.record_access(f"k{i}", None, 10.0, 1000.0)
        a_now = sketch.hotness("A", 1000.0)  # 1000 / 2**10
        sketch.record_access("new", None, 10.0, 1000.0)
        # A is the coldest once decayed, and the newcomer inherits that
        # decayed floor, not A's stored score or a 10-score key's.
        assert sketch.hotness("A", 1000.0) == 0.0
        assert all(sketch.hotness(f"k{i}", 1000.0) == 10.0
                   for i in range(7))
        assert sketch.hotness("new", 1000.0) == a_now + 10.0
        assert sketch.evictions == 1

    def test_snapshot_ranks_scores_decayed_to_the_hub_clock(self):
        engine = Engine()
        obs = Observability(engine=engine)
        hub = obs.telemetry
        hub.hotness = SampledHotness(rate=1, half_life_ns=100.0)
        hub.hotness.record_access("A", None, 1000.0, 0.0)
        engine.timeout(1000.0)
        engine.run()
        hub.hotness.record_access("B", None, 10.0, 1000.0)
        # A has decayed to 1000 / 2**10 by t=1000, so B ranks first.
        want = [["B", 10.0], ["A", 1000.0 / 1024]]
        assert hub.hotness.snapshot(1000.0)["regions"] == want
        assert hub.data()["hotness"]["regions"] == want

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SampledHotness(rate=0)
        with pytest.raises(ValueError):
            SampledHotness(k=0)
        with pytest.raises(ValueError):
            SampledHotness(half_life_ns=-1.0)


class TestHubConfigure:
    def test_window_width_applies_to_new_series(self):
        hub = TelemetryHub()
        hub.configure(window_ns=50.0)
        s = hub.series("x")
        assert s.width == 50.0

    def test_hotness_resize_replaces_sketch(self):
        hub = TelemetryHub()
        hub.configure(hotness_rate=8, hotness_k=4)
        assert hub.hotness.rate == 8 and hub.hotness.k == 4

    def test_invalid_configure(self):
        hub = TelemetryHub()
        with pytest.raises(ValueError):
            hub.configure(window_ns=0.0)
        with pytest.raises(ValueError):
            hub.configure(max_windows=0)
