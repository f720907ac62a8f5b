"""Tests for the dry-run planner (rts.plan)."""

import pytest

from repro.apps import build_hospital_job, build_query_job
from repro.hardware import Cluster
from repro.hardware.spec import ComputeKind, MemoryKind
from repro.api import connect

KiB = 1024
MiB = 1024 * KiB


@pytest.fixture
def session():
    return connect(cluster=Cluster.preset("pooled-rack", seed=103))


@pytest.fixture
def rts(session):
    return session.rts


class TestPlanner:
    def test_plan_has_no_side_effects(self, rts):
        plan = rts.plan(build_hospital_job())
        assert plan.tasks
        assert rts.memory.live_regions() == []
        assert all(d.used == 0 for d in rts.cluster.memory.values())
        assert rts.cluster.engine.now == 0.0

    def test_plan_matches_actual_assignment(self, rts, session):
        job_for_plan = build_hospital_job()
        plan = rts.plan(job_for_plan)
        stats = session.run(build_hospital_job())
        assert plan.assignment == stats.assignment

    def test_planned_regions_match_actual_placements(self, rts, session):
        rts.cluster.trace.enabled = None
        plan = rts.plan(build_hospital_job())
        stats = session.run(build_hospital_job())
        actual = {
            (str(e.fields["region"]), str(e.fields["device"]))
            for e in rts.cluster.trace.by_name("allocate")
        }
        for task_name, task_plan in plan.tasks.items():
            for region in task_plan.regions:
                expected_name = f"hospital/{task_name}#{'scratch' if region.role == 'scratch' else 'out'}"
                assert (expected_name, region.device) in actual, region

    def test_predicted_makespan_in_right_ballpark(self, rts, session):
        plan = rts.plan(build_query_job(n_rows=300_000))
        stats = session.run(build_query_job(n_rows=300_000))
        ratio = stats.makespan / plan.predicted_makespan
        assert 0.4 <= ratio <= 3.0, ratio

    def test_dag_order_respected_in_estimates(self, rts):
        plan = rts.plan(build_query_job(n_rows=100_000))
        job = build_query_job(n_rows=100_000)
        for up, down in job.edges():
            assert plan.tasks[up.name].est_finish <= plan.tasks[down.name].est_start + 1e-6

    def test_plan_shows_gpu_scratch_on_gddr(self, rts):
        plan = rts.plan(build_hospital_job())
        face = plan.tasks["face_recognition"]
        assert rts.cluster.compute[face.device].kind is ComputeKind.GPU
        scratch = [r for r in face.regions if r.role == "scratch"]
        assert scratch
        assert rts.cluster.memory[scratch[0].device].kind is MemoryKind.GDDR

    def test_render_and_critical_path(self, rts):
        plan = rts.plan(build_hospital_job())
        text = plan.render()
        assert "Plan for job 'hospital'" in text
        assert "predicted makespan" in text
        spine = plan.critical_path()
        assert spine[0] == "preprocessing"
        assert spine[1] == "face_recognition"
