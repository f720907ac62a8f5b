"""Tests for the cross-layer profiler (paper challenge 8(1))."""

import pytest

from repro.apps import build_hospital_job
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.hardware import Cluster
from repro.metrics import Profile
from repro.api import connect

KiB = 1024
MiB = 1024 * KiB


@pytest.fixture
def profiled_run():
    cluster = Cluster.preset("pooled-rack",
                             trace_categories={"profile", "memory"})
    session = connect(cluster=cluster)
    job = Job("profiled")
    a = job.add_task(Task("produce", work=WorkSpec(
        ops=1e6, output=RegionUsage(16 * MiB))))
    b = job.add_task(Task("crunch", work=WorkSpec(
        ops=5e6, input_usage=RegionUsage(0, touches=1.0),
        scratch=RegionUsage(4 * MiB, touches=3.0))))
    job.connect(a, b)
    stats = session.run(job)
    return cluster, stats


class TestProfile:
    def test_phases_cover_compute_and_memory(self, profiled_run):
        cluster, stats = profiled_run
        profile = Profile.from_run(cluster, stats)
        kinds = {p.kind for p in profile.phases}
        assert kinds == {"compute", "read", "write"}

    def test_task_breakdown_sums_to_duration(self, profiled_run):
        cluster, stats = profiled_run
        profile = Profile.from_run(cluster, stats)
        for name, task_stats in stats.tasks.items():
            breakdown = profile.task_breakdown(name)
            accounted = (breakdown["compute"] + breakdown["read"]
                         + breakdown["write"] + breakdown["other"])
            assert accounted == pytest.approx(task_stats.duration, rel=1e-6)
            assert breakdown["other"] >= 0

    def test_memory_fraction_bounded(self, profiled_run):
        cluster, stats = profiled_run
        profile = Profile.from_run(cluster, stats)
        for name in stats.tasks:
            assert 0.0 <= profile.memory_fraction(name) <= 1.0
        # crunch touches 12 MiB of scratch + 16 MiB input: memory-heavy.
        assert profile.memory_fraction("crunch") > 0.1

    def test_by_region_and_device_account_bytes(self, profiled_run):
        cluster, stats = profiled_run
        profile = Profile.from_run(cluster, stats)
        regions = profile.by_region()
        assert any("scratch" in name for name in regions)
        total_bytes = sum(nbytes for _t, nbytes in regions.values())
        assert total_bytes >= 16 * MiB + 12 * MiB
        devices = profile.by_backing_device()
        assert devices
        assert all(duration >= 0 for duration, _n in devices.values())

    def test_hottest_region_is_the_biggest_traffic(self, profiled_run):
        cluster, stats = profiled_run
        profile = Profile.from_run(cluster, stats)
        hottest = profile.hottest_region()
        regions = profile.by_region()
        assert regions[hottest][0] == max(t for t, _n in regions.values())

    def test_critical_path_ordered_and_plausible(self, profiled_run):
        cluster, stats = profiled_run
        profile = Profile.from_run(cluster, stats)
        spine = profile.critical_path()
        assert spine == ["produce", "crunch"]

    def test_render_contains_all_levels(self, profiled_run):
        cluster, stats = profiled_run
        profile = Profile.from_run(cluster, stats)
        text = profile.render()
        for level in ("Level 1 — job", "Level 2 — tasks",
                      "Level 3 — regions", "Level 4 — devices"):
            assert level in text

    def test_chrome_trace_export(self, profiled_run, tmp_path):
        """The profile exports as a valid Chrome trace: every task a
        metadata-named row, every phase nested inside its task span."""
        import json

        cluster, stats = profiled_run
        profile = Profile.from_run(cluster, stats)
        events = profile.to_chrome_trace()

        task_spans = {e["name"]: e for e in events
                      if e.get("cat") == "task"}
        assert set(task_spans) == set(stats.tasks)
        for event in events:
            if e_cat := event.get("cat"):
                if e_cat == "task":
                    continue
                # Phase events must fit inside their task's span.
                tid = event["tid"]
                task = next(e for e in events
                            if e.get("cat") == "task" and e["tid"] == tid)
                assert event["ts"] >= task["ts"] - 1e-6
                assert (event["ts"] + event["dur"]
                        <= task["ts"] + task["dur"] + 1e-6)

        path = tmp_path / "trace.json"
        profile.write_chrome_trace(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]

    def test_profile_isolates_one_job(self):
        """Two jobs traced together: each profile sees only its own."""
        cluster = Cluster.preset("pooled-rack",
                                 trace_categories={"profile"})
        session = connect(cluster=cluster)
        stats = {}
        for name in ("alpha", "beta"):
            job = Job(name)
            job.add_task(Task("t", work=WorkSpec(
                ops=1e5, scratch=RegionUsage(1 * MiB, touches=1.0))))
            stats[name] = session.run(job)
        alpha = Profile.from_run(cluster, stats["alpha"])
        beta = Profile.from_run(cluster, stats["beta"])
        assert all("alpha" in p.detail or p.kind == "compute"
                   for p in alpha.phases)
        assert len(alpha.phases) == len(beta.phases)

    def test_hospital_profile_cross_layer_attribution(self):
        """End-to-end on the hospital job: the profiler separates *time*
        cost from *byte* volume — track_hours' small random-access
        timesheet table dominates stall time, while face recognition's
        big sequential weights dominate traffic.  That distinction is
        exactly the cross-layer attribution challenge 8(1) asks for."""
        cluster = Cluster.preset("pooled-rack",
                                 trace_categories={"profile"})
        session = connect(cluster=cluster)
        stats = session.run(build_hospital_job())
        profile = Profile.from_run(cluster, stats)
        by_region = profile.by_region()
        hottest_by_time = profile.hottest_region()
        assert "track_hours#scratch" in hottest_by_time
        hottest_by_bytes = max(by_region, key=lambda n: by_region[n][1])
        assert "face_recognition#scratch" in hottest_by_bytes
