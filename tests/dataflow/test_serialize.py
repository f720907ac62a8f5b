"""Tests for job serialization (declarative dataflows as JSON)."""

import pytest

from repro.apps import build_hospital_job, build_query_job, build_training_job
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.dataflow.serialize import (
    SerializationError,
    job_from_dict,
    job_from_json,
    job_to_dict,
    job_to_json,
)
from repro.hardware import Cluster
from repro.api import connect


def assert_jobs_equal(a: Job, b: Job) -> None:
    assert a.name == b.name
    assert a.global_state_size == b.global_state_size
    assert set(a.tasks) == set(b.tasks)
    assert ({(u.name, v.name) for u, v in a.edges()}
            == {(u.name, v.name) for u, v in b.edges()})
    for name in a.tasks:
        assert a.tasks[name].work == b.tasks[name].work, name
        assert a.tasks[name].properties == b.tasks[name].properties, name


class TestRoundTrip:
    @pytest.mark.parametrize("builder", [
        build_hospital_job,
        build_query_job,
        lambda: build_training_job(epochs=2),
    ])
    def test_app_jobs_round_trip(self, builder):
        original = builder()
        restored = job_from_json(job_to_json(original))
        assert_jobs_equal(original, restored)

    def test_restored_job_runs_identically(self):
        """A deserialized job produces the same simulated schedule."""
        def run(job):
            session = connect(cluster=Cluster.preset("pooled-rack", seed=97))
            stats = session.run(job)
            return [(n, s.device, s.started_at, s.finished_at)
                    for n, s in sorted(stats.tasks.items())]

        original = run(build_hospital_job(n_frames=8))
        restored = run(job_from_json(job_to_json(build_hospital_job(n_frames=8))))
        assert original == restored

    def test_global_scratch_slots_survive(self):
        job = build_query_job()  # uses the hash-index slot
        restored = job_from_dict(job_to_dict(job))
        assert restored.global_scratch_slots() == job.global_scratch_slots()


class TestErrors:
    def test_custom_fn_rejected(self):
        job = Job("custom")
        job.add_task(Task("t", fn=lambda ctx: (yield ctx.sleep(1))))
        with pytest.raises(SerializationError, match="custom function"):
            job_to_dict(job)

    def test_bad_version_rejected(self):
        with pytest.raises(SerializationError, match="version"):
            job_from_dict({"version": 99, "name": "x", "tasks": []})

    def test_malformed_payload_rejected(self):
        with pytest.raises(SerializationError):
            job_from_dict({"version": 1, "tasks": [{"oops": True}]})

    def test_invalid_json_rejected(self):
        with pytest.raises(SerializationError, match="JSON"):
            job_from_json("{not json")

    def test_cyclic_encoding_rejected(self):
        data = {
            "version": 1, "name": "cycle", "global_state_size": 0,
            "tasks": [{"name": "a", "work": {}, "properties": {}},
                      {"name": "b", "work": {}, "properties": {}}],
            "edges": [["a", "b"], ["b", "a"]],
        }
        with pytest.raises(Exception):
            job_from_dict(data)
