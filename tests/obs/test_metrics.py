"""Unit tests for the observability metric instruments."""

import pytest

from repro.obs.metrics import (
    Counter,
    LatencyHistogram,
    MetricsRegistry,
    bucket_index,
)
from repro.obs.telemetry import WindowedSeries


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0
        assert counter.snapshot() == {"type": "counter", "value": 5.0}


class TestLatencyHistogram:
    def test_counts_mean_min_max(self):
        hist = LatencyHistogram("lat", bounds=(10, 100, 1000))
        for value in (5.0, 50.0, 500.0, 5000.0):
            hist.observe(value)
        assert hist.total == 4
        assert hist.mean == pytest.approx(1388.75)
        assert hist.minimum == 5.0
        assert hist.maximum == 5000.0
        # 5000 overflows the last bound into the open-ended bucket.
        assert hist.counts == [1, 1, 1, 1]

    def test_quantile_interpolates_within_bucket(self):
        hist = LatencyHistogram("lat", bounds=(0, 100))
        hist.observe(25.0)
        hist.observe(75.0)
        # Both samples land in the (0, 100] bucket; the quantile is a
        # linear walk through it, clamped to the observed range.
        assert hist.quantile(0.25) == pytest.approx(25.0)
        assert hist.quantile(0.50) == pytest.approx(50.0)
        assert hist.quantile(1.00) == pytest.approx(75.0)

    def test_quantile_clamps_to_observed_range(self):
        hist = LatencyHistogram("lat", bounds=(10,))
        hist.observe(5.0)
        hist.observe(7.0)
        # Raw interpolation would report near the 10ns bucket edge; the
        # clamp keeps tiny samples honest.
        assert hist.quantile(0.99) == 7.0
        assert hist.quantile(0.0) == 5.0

    def test_single_observation_is_every_quantile(self):
        hist = LatencyHistogram("lat")
        hist.observe(42.0)
        for q in (0.01, 0.5, 0.95, 0.99, 1.0):
            assert hist.quantile(q) == 42.0

    def test_empty_histogram(self):
        hist = LatencyHistogram("lat")
        assert hist.quantile(0.5) == 0.0
        snap = hist.snapshot()
        assert snap["count"] == 0
        assert snap["mean"] == 0.0
        assert snap["min"] == 0.0

    def test_rejects_negative_latency_and_bad_quantile(self):
        hist = LatencyHistogram("lat")
        with pytest.raises(ValueError):
            hist.observe(-1.0)
        with pytest.raises(ValueError):
            hist.quantile(2.0)

    def test_snapshot_percentiles_match_quantile(self):
        hist = LatencyHistogram("lat")
        for value in (10.0, 20.0, 30.0, 40.0, 1000.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["type"] == "latency"
        assert snap["p50"] == pytest.approx(hist.quantile(0.50))
        assert snap["p95"] == pytest.approx(hist.quantile(0.95))
        assert snap["p99"] == pytest.approx(hist.quantile(0.99))
        assert snap["min"] <= snap["p50"] <= snap["p95"] <= snap["max"]


class TestHistogramMath:
    def test_bucket_index_is_first_bound_not_below_value(self):
        bounds = (10.0, 100.0, 1000.0)
        assert [bucket_index(bounds, v)
                for v in (0.0, 10.0, 10.5, 100.0, 999.0, 1000.0, 1e9)] == [
            0, 0, 1, 1, 2, 2, 3]

    def test_window_p95_equals_histogram_p95(self):
        # One bucket index and one quantile function: a window holding
        # the same observations answers exactly what the histogram does.
        hist = LatencyHistogram("lat", bounds=(10, 100, 1000))
        window = WindowedSeries("lat", 1e6, bounds=hist.bounds)
        for value in (5.0, 50.0, 60.0, 100.0, 500.0, 5000.0):
            hist.observe(value)
            window.observe(0.0, value)
        stats = window.window_stats(window.windows()[0])
        assert window.windows()[0].buckets == hist.counts
        assert stats["p95"] == hist.quantile(0.95)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_contains_and_names(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        assert "a" in registry and "c" not in registry
        assert registry.names() == ["a", "b"]

    def test_collectors_fold_into_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("own").inc(2)
        registry.add_collector(lambda: [("ext.bytes", 42), ("ext.count", 3)])
        snap = registry.snapshot()
        assert snap["own"]["value"] == 2.0
        assert snap["ext.bytes"] == {"type": "gauge", "value": 42.0}
        assert snap["ext.count"]["value"] == 3.0

    def test_collectors_not_called_before_snapshot(self):
        registry = MetricsRegistry()
        calls = []
        registry.add_collector(lambda: calls.append(1) or [])
        assert calls == []
        registry.snapshot()
        assert calls == [1]

    def test_report_renders_every_kind(self):
        # The registry holds counters; collector readings are gauges.
        registry = MetricsRegistry()
        registry.counter("count").inc()
        registry.add_collector(lambda: [("reading", 2)])
        rows = {line.split()[0]: line.split()[1:]
                for line in registry.report().splitlines()[3:]}
        assert rows == {"count": ["counter", "1"], "reading": ["gauge", "2"]}
