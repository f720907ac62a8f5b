"""Exporters, dashboard rendering, and the obs_report CLI."""

import json
import pathlib
import sys

import pytest

from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.hardware import Cluster
from repro.obs import Observability
from repro.obs.dashboard import render_dashboard, sparkline
from repro.obs.export import load_jsonl, to_chrome_trace
from repro.api import connect
from repro.sim.engine import Engine

KiB = 1024
MiB = 1024 * KiB

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent.parent / "scripts")
)
import obs_report  # noqa: E402


TRACED = ("job", "task", "profile", "flow", "placement", "sched")


def run_pipeline(*categories):
    """A real two-task job run recording ``categories``."""
    cluster = Cluster.preset("pooled-rack")
    cluster.obs.enable(*categories)
    session = connect(cluster=cluster)
    job = Job("pipe")
    a = job.add_task(Task("produce", work=WorkSpec(
        ops=1e5, output=RegionUsage(2 * MiB))))
    b = job.add_task(Task("sink", work=WorkSpec(
        ops=1e4, input_usage=RegionUsage(0))))
    job.connect(a, b)
    stats = session.run(job)
    assert stats.ok
    return cluster


@pytest.fixture
def traced_run():
    """A real job run with every relevant category recording."""
    return run_pipeline(*TRACED)


class TestJsonlRoundTrip:
    def test_load_matches_live_data(self, traced_run, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = traced_run.obs.export_jsonl(str(path))
        assert lines == len(path.read_text().splitlines())
        loaded = load_jsonl(str(path))
        live = traced_run.obs.data()
        assert loaded["meta"]["now"] == live["meta"]["now"]
        assert loaded["meta"]["retained"] == live["meta"]["retained"]
        assert len(loaded["events"]) == len(live["events"])
        assert set(loaded["metrics"]) >= set(live["metrics"])

    def test_span_events_carry_begin_and_ids(self, traced_run, tmp_path):
        path = tmp_path / "run.jsonl"
        traced_run.obs.export_jsonl(str(path))
        spans = [e for e in load_jsonl(str(path))["events"] if "begin" in e]
        assert spans
        job_span = [e for e in spans if e["cat"] == "job"][0]
        task_spans = [e for e in spans if e["cat"] == "task"]
        assert all(t["parent"] == job_span["span"] for t in task_spans)

    def test_non_json_field_values_stringified(self, tmp_path):
        obs = Observability(engine=Engine())
        obs.event("cat", "thing", weird=object())
        path = tmp_path / "odd.jsonl"
        obs.export_jsonl(str(path))
        loaded = load_jsonl(str(path))
        assert isinstance(loaded["events"][0]["fields"]["weird"], str)

    def test_telemetry_section_round_trips(self, tmp_path):
        obs = Observability()
        obs.telemetry.record("lat", 50_000.0, 123.0)
        obs.telemetry.record_level("depth", 10_000.0, 3.0)
        obs.telemetry.hotness.record_access("r1", "dev", 4096.0, 0.0)
        path = tmp_path / "telem.jsonl"
        obs.export_jsonl(str(path))
        loaded = load_jsonl(str(path))["telemetry"]
        live = obs.telemetry.data()
        assert loaded["window_ns"] == live["window_ns"]
        assert set(loaded["series"]) == {"lat", "depth"}
        # The per-series kind survives the record-kind collision.
        assert loaded["series"]["lat"]["kind"] == "sample"
        assert loaded["series"]["depth"]["kind"] == "level"
        assert (loaded["series"]["lat"]["windows"]
                == live["series"]["lat"]["windows"])
        assert loaded["hotness"]["seen"] == 1


class TestChromeTrace:
    def test_spans_become_duration_events(self, traced_run, tmp_path):
        path = tmp_path / "trace.json"
        traced_run.obs.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        phs = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phs and "M" in phs
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["dur"] >= 0 for e in xs)

    def test_rows_keyed_by_task_then_category(self, traced_run):
        events = to_chrome_trace(traced_run.trace.events)
        names = [e["args"]["name"] for e in events if e["ph"] == "M"]
        assert any(name.startswith("pipe/") for name in names)  # task rows
        assert "flow" in names or "placement" in names  # category rows


class TestSparkline:
    def test_resamples_piecewise_constant_series(self):
        line = sparkline([(0.0, 0.0), (5.0, 2.0)], width=4, until=10.0, peak=2.0)
        assert len(line) == 4
        assert line[0] == " " and line[-1] == "█"

    def test_empty_and_degenerate_series(self):
        assert sparkline([]) == ""
        assert sparkline([(3.0, 1.0)]) == "█"
        assert sparkline([(3.0, 0.0)]) == " "

    def test_single_sample_with_later_until(self):
        # One change point plus an `until` horizon is a valid window:
        # the level holds from the sample to the horizon.
        line = sparkline([(3.0, 1.0)], width=5, until=8.0)
        assert line == "█████"

    def test_until_before_first_change_point(self):
        # A horizon at/before the first sample collapses to the
        # single-block degenerate rendering, not a crash or negative
        # window.
        assert sparkline([(5.0, 2.0), (9.0, 0.0)], until=5.0) == "█"
        assert sparkline([(5.0, 0.0), (9.0, 2.0)], until=1.0) == " "

    def test_explicit_peak_zero_falls_back_to_series_max(self):
        # peak=0 cannot scale anything; it must behave like the
        # default (series max), not divide by zero.
        with_zero = sparkline([(0.0, 1.0), (5.0, 3.0)], width=4,
                              until=10.0, peak=0)
        with_default = sparkline([(0.0, 1.0), (5.0, 3.0)], width=4,
                                 until=10.0)
        assert with_zero == with_default
        assert with_zero[-1] == "█"

    def test_non_monotone_sample_times_render_as_sorted(self):
        shuffled = [(5.0, 2.0), (0.0, 0.0), (9.0, 1.0)]
        ordered = sorted(shuffled)
        assert (sparkline(shuffled, width=6, until=10.0)
                == sparkline(ordered, width=6, until=10.0))


class TestDashboard:
    def test_renders_all_sections_from_run(self, traced_run):
        text = traced_run.obs.dashboard()
        assert "Jobs" in text
        assert "pipe" in text
        assert "Device utilization" in text
        assert "Fabric links" in text
        assert "Trace rings" in text

    def test_job_filter(self, traced_run):
        assert "pipe" in traced_run.obs.dashboard(job="pipe")
        assert "pipe" not in traced_run.obs.dashboard(job="other")

    def test_empty_data_placeholder(self):
        assert render_dashboard({}) == "(no observability data recorded)"

    def test_job_ring_render_equals_full_render(self, traced_run):
        # The live dashboard serialises only the job ring; every other
        # category it leaves out must not change the text.
        obs = traced_run.obs
        assert len(obs.trace.categories()) >= 3
        for job in (None, "pipe"):
            assert obs.dashboard(job=job) == render_dashboard(obs.data(),
                                                              job=job)

    def test_live_equals_offline_render(self, tmp_path):
        # Regression: equal-byte link rows kept the registry's insertion
        # order live but name order from a JSONL export.
        cluster = run_pipeline(*TRACED, "causal")
        path = tmp_path / "run.jsonl"
        cluster.obs.export_jsonl(str(path))
        live = cluster.obs.dashboard()
        assert "Device utilization" in live
        assert live == render_dashboard(load_jsonl(str(path)))


class TestObsReportCli:
    def test_renders_dashboard_from_export(self, traced_run, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        traced_run.obs.export_jsonl(str(path))
        assert obs_report.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "Jobs" in out and "pipe" in out
        assert "Device utilization" in out

    def test_metrics_flag_lists_metrics(self, traced_run, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        traced_run.obs.export_jsonl(str(path))
        assert obs_report.main([str(path), "--metrics"]) == 0
        assert "jobs.completed" in capsys.readouterr().out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert obs_report.main([str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_job_filter_is_assertive(self, traced_run, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        traced_run.obs.export_jsonl(str(path))
        assert obs_report.main([str(path), "--job", "pipe"]) == 0
        capsys.readouterr()
        assert obs_report.main([str(path), "--job", "ghost"]) == 1
        err = capsys.readouterr().err
        assert "nothing recorded for job 'ghost'" in err

    def test_category_filter_is_assertive(self, traced_run, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        traced_run.obs.export_jsonl(str(path))
        assert obs_report.main([str(path), "--category", "flow"]) == 0
        assert "events retained" in capsys.readouterr().out
        assert obs_report.main([str(path), "--category", "nonesuch"]) == 1
        assert "no events of category" in capsys.readouterr().err
