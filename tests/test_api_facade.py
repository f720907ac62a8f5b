"""Tests for the unified submission API: connect()/Session, the only
way to submit work."""

import pytest

import repro.obs.dashboard
import repro.obs.export
from repro import connect
from repro.api import Session
from repro.apps import (
    JacobiSolver,
    LinearTrainer,
    LLMEngine,
    PhysicalQueryEngine,
    StreamExecutor,
)
from repro.dataflow import Job, RegionUsage, Task, WorkSpec, task
from repro.hardware import Cluster
from repro.runtime import RackDriver, RuntimeSystem
from repro.runtime.admission import RackStats
from repro.runtime.rts import JobStats

KiB = 1024
MiB = 1024 * KiB


def pipeline(name="pipe", payload=2 * MiB):
    job = Job(name)
    a = job.add_task(Task("a", work=WorkSpec(
        ops=1e5, output=RegionUsage(payload))))
    b = job.add_task(Task("b", work=WorkSpec(
        ops=1e5, input_usage=RegionUsage(0))))
    job.connect(a, b)
    return job


def failing_job(name="boom"):
    job = Job(name)

    @task(job, name="upstream", work=WorkSpec(output=RegionUsage(4 * KiB)))
    def upstream(ctx):
        yield from ctx.sleep(25.0)
        raise RuntimeError("mid-task crash")

    return job


class TestConnect:
    def test_connect_builds_the_stack(self):
        session = connect("pooled-rack", seed=3)
        assert isinstance(session, Session)
        assert session.cluster is session.rts.cluster
        assert "default" in session.tenants

    def test_rack_options_forward(self):
        session = connect("pooled-rack", max_concurrent=3, policy="fifo")
        assert session.driver.max_concurrent == 3
        assert session.driver.policy == "fifo"

    def test_explicit_cluster_wins(self):
        cluster = Cluster.preset("pooled-rack", seed=9)
        session = connect(cluster=cluster)
        assert session.cluster is cluster

    def test_typoed_kwarg_names_nearest_option(self):
        # Regression: unknown **rack_options used to be swallowed by
        # RackDriver's constructor blowing up far from the call site.
        with pytest.raises(TypeError, match="max_concurrent"):
            connect("pooled-rack", max_concurent=3)

    def test_unknown_kwarg_lists_valid_options(self):
        with pytest.raises(TypeError, match="valid options"):
            connect("pooled-rack", definitely_not_an_option=1)

    def test_federated_only_kwargs_rejected_for_single_rack(self):
        with pytest.raises(TypeError, match="heartbeat_ns"):
            connect("pooled-rack", heartbeat_ns=1e5)
        # ... but accepted when racks are requested.
        session = connect("pooled-rack", racks=2, heartbeat_ns=1e5)
        session.close()


class TestContextManager:
    def test_close_finalizes_telemetry_and_keeps_dashboard(self):
        with connect("pooled-rack") as session:
            session.run(pipeline())
        assert session.closed
        assert "Jobs" in session.dashboard()
        # Telemetry was finalized: open alert spans were flushed.
        assert session.obs.telemetry.finalized

    def test_close_is_idempotent(self):
        session = connect("pooled-rack")
        session.run(pipeline())
        session.close()
        first = session.dashboard()
        session.close()
        assert session.dashboard() == first

    def test_close_renders_and_serialises_nothing(self, monkeypatch):
        calls = {"event_record": 0, "render_dashboard": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            repro.obs.export, "event_record",
            counting("event_record", repro.obs.export.event_record))
        monkeypatch.setattr(
            repro.obs.dashboard, "render_dashboard",
            counting("render_dashboard",
                     repro.obs.dashboard.render_dashboard))
        session = connect("pooled-rack")
        session.run(pipeline())
        fed = connect("pooled-rack", racks=2)
        fed.submit(pipeline())
        fed.run()
        session.close()
        fed.close()
        assert calls == {"event_record": 0, "render_dashboard": 0}
        session.dashboard()
        assert calls["render_dashboard"] == 1
        assert calls["event_record"] > 0

    def test_exit_closes_even_on_error(self):
        with pytest.raises(RuntimeError, match="mid-task crash"):
            with connect("pooled-rack") as session:
                session.run(failing_job())
        assert session.closed

    def test_federated_close_finalizes_every_rack(self):
        with connect("pooled-rack", racks=2) as fed:
            fed.submit(pipeline())
            fed.run()
        assert fed.closed
        assert "Federation racks" in fed.dashboard()
        for rack in fed.racks:
            assert rack.obs.telemetry.finalized


class TestSubmitApp:
    """All six app classes enter through one typed facade."""

    APPS = {
        "census": {},
        "dbms": dict(n_rows=20_000, selectivity=0.2),
        "hpc": dict(n_workers=2, grid_bytes=1 << 20, iterations=2),
        "llm": dict(prompt_tokens=64, output_tokens=8),
        "ml": dict(n_samples=2_000, sample_bytes=256, epochs=1),
        "streaming": dict(n_frames=4),
    }

    @pytest.mark.parametrize("app", sorted(APPS))
    def test_each_app_class_submits_and_completes(self, app):
        with connect("pooled-rack", seed=5) as session:
            handle = session.submit_app(app, **self.APPS[app])
            session.run()
            stats = session.result(handle)
        assert handle.completed
        assert stats.ok

    def test_submission_goes_through_admission(self):
        with connect("pooled-rack") as session:
            session.register_tenant("web", priority="interactive")
            handle = session.submit_app(
                "llm", dict(prompt_tokens=32, output_tokens=4),
                tenant="web")
            session.run()
        assert handle.tenant == "web"
        assert handle.priority.name == "INTERACTIVE"
        assert handle.admission_index == 0

    def test_spec_dict_and_kwargs_merge(self):
        with connect("pooled-rack") as session:
            handle = session.submit_app(
                "dbms", dict(n_rows=10_000), selectivity=0.5)
            session.run()
        assert handle.completed

    def test_unknown_app_class_names_the_valid_ones(self):
        session = connect("pooled-rack")
        with pytest.raises(ValueError, match="census.*llm.*streaming"):
            session.submit_app("spreadsheet")

    def test_federated_submit_app_routes(self):
        with connect("pooled-rack", racks=2) as fed:
            handle = fed.submit_app("ml", n_samples=2_000,
                                    sample_bytes=256, epochs=1)
            fed.run()
            stats = fed.result(handle)
        assert not handle.shed
        assert handle.rack is not None
        assert stats.ok


class TestSessionRun:
    def test_run_single_job_returns_its_stats(self):
        session = connect("pooled-rack")
        stats = session.run(pipeline())
        assert isinstance(stats, JobStats)
        assert stats.ok

    def test_run_many_returns_list_in_order(self):
        session = connect("pooled-rack")
        results = session.run(pipeline("p0"), pipeline("p1"))
        assert [s.job_name for s in results] == ["p0", "p1"]

    def test_submit_then_drain(self):
        session = connect("pooled-rack")
        handle = session.submit(pipeline())
        stats = session.run()
        assert isinstance(stats, RackStats)
        assert handle.completed
        assert handle.e2e_latency > 0

    def test_job_annotations_flow_through(self):
        session = connect("pooled-rack")
        session.register_tenant("web", priority="interactive")
        job = pipeline()
        job.tenant = "web"
        handle = session.submit(job)
        session.run()
        assert handle.tenant == "web"
        assert handle.priority.name == "INTERACTIVE"
        assert handle.execution.stats.tenant == "web"

    def test_failed_job_raises(self):
        session = connect("pooled-rack")
        with pytest.raises(RuntimeError, match="mid-task crash"):
            session.run(failing_job())

    def test_run_trace_accepts_tenant_tuples(self):
        session = connect("pooled-rack", max_concurrent=2)
        session.register_tenant("web", weight=2.0)
        stats = session.run_trace([
            (0.0, "j0", lambda: pipeline("j0")),
            (1000.0, "j1", lambda: pipeline("j1"), "web"),
        ])
        assert stats.completed == 2
        assert session.tenant_report()["web"]["completed"] == 1

    def test_register_tenant_installs_slo(self):
        session = connect("pooled-rack")
        session.register_tenant("web", slo_target_ns=2e6)
        assert "tenant:web" in session.obs.slo

    def test_dashboard_renders(self):
        session = connect("pooled-rack")
        session.run(pipeline())
        text = session.dashboard()
        assert "Jobs" in text


class TestOneFrontDoor:
    """Session is the only way to submit work."""

    @pytest.mark.parametrize("build", [
        lambda rts: LinearTrainer(rts),
        lambda rts: JacobiSolver(rts),
        lambda rts: PhysicalQueryEngine(rts),
        lambda rts: StreamExecutor(rts, pipeline),
        lambda rts: LLMEngine(rts),
    ], ids=["LinearTrainer", "JacobiSolver", "PhysicalQueryEngine",
            "StreamExecutor", "LLMEngine"])
    def test_app_driver_rejects_bare_runtime(self, build):
        rts = RuntimeSystem(Cluster.preset("pooled-rack"))
        with pytest.raises(TypeError, match=r"connect\("):
            build(rts)

    def test_runtime_and_driver_expose_no_submission_door(self):
        for name in ("submit", "run_job", "run_jobs", "run"):
            assert not hasattr(RuntimeSystem, name), name
        assert not hasattr(RackDriver, "run_trace")
