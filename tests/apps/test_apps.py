"""Integration tests: the four Table 3 application classes end to end."""

import numpy as np
import pytest

from repro.apps import (
    MiniDB,
    build_hospital_job,
    build_query_job,
    build_stencil_job,
    build_training_job,
    region_census,
)
from repro.hardware import Cluster
from repro.hardware.spec import ComputeKind
from repro.memory.regions import RegionType
from repro.api import connect
from repro.workloads import synthetic_table

KiB = 1024
MiB = 1024 * KiB


@pytest.fixture
def session():
    return connect(cluster=Cluster.preset("pooled-rack"))


class TestHospitalJob:
    def test_structure_matches_figure2(self):
        job = build_hospital_job()
        assert set(job.tasks) == {
            "preprocessing", "face_recognition", "track_hours",
            "compute_utilization", "alert_caregivers",
        }
        assert [t.name for t in job.sources()] == ["preprocessing"]
        downstream = {t.name for t in job.tasks["face_recognition"].downstream()}
        assert downstream == {"track_hours", "compute_utilization", "alert_caregivers"}

    def test_property_cards_match_figure2c(self):
        job = build_hospital_job()
        t = job.tasks
        assert t["preprocessing"].properties.compute is ComputeKind.GPU
        assert t["preprocessing"].properties.confidential
        assert not t["preprocessing"].properties.persistent
        assert not t["compute_utilization"].properties.confidential
        assert t["alert_caregivers"].properties.persistent
        assert t["alert_caregivers"].properties.confidential

    def test_runs_end_to_end(self, session):
        stats = session.run(build_hospital_job(n_frames=16))
        assert stats.ok
        assert session.cluster.compute[stats.assignment["preprocessing"]].kind is ComputeKind.GPU
        assert session.cluster.compute[stats.assignment["track_hours"]].kind is ComputeKind.CPU
        assert session.rts.memory.live_regions() == []

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_hospital_job(n_frames=0)


class TestQueryJob:
    def test_structure(self):
        job = build_query_job()
        order = [t.name for t in job.topological_order()]
        assert order.index("scan") < order.index("filter") < order.index("aggregate")
        assert order.index("aggregate") < order.index("join-probe")

    def test_runs_and_uses_table3_regions(self, session):
        stats = session.run(build_query_job(n_rows=100_000))
        assert stats.ok
        census = region_census(session.cluster.trace)
        # Table 3 row 'DBMS': operator state in private scratch, latches
        # in global state, the hash index in global scratch.
        assert census.get(RegionType.PRIVATE_SCRATCH, 0) >= 2
        assert census.get(RegionType.GLOBAL_STATE, 0) >= 1
        assert census.get(RegionType.GLOBAL_SCRATCH, 0) >= 1
        assert census.get(RegionType.OUTPUT, 0) >= 3

    def test_selectivity_validated(self):
        with pytest.raises(ValueError):
            build_query_job(selectivity=0.0)


class TestMiniDB:
    def test_filter_and_group(self):
        rng = np.random.default_rng(0)
        db = MiniDB()
        db.create_table("t", synthetic_table(rng, 1000, key_cardinality=10))
        table = db.scan("t")
        filtered = db.filter(table, "c0", "<", 5)
        assert np.all(filtered["c0"] < 5)
        counts = db.group_count(table, "c0")
        assert sum(counts.values()) == 1000

    def test_hash_join_correctness(self):
        rng = np.random.default_rng(1)
        db = MiniDB()
        left = synthetic_table(rng, 200, key_cardinality=20)
        right = synthetic_table(rng, 300, key_cardinality=20)
        pairs = db.hash_join(left, right, on="c0")
        # Verify against the nested-loop reference.
        expected = {
            (i, j)
            for i in range(len(left))
            for j in range(len(right))
            if left["c0"][i] == right["c0"][j]
        }
        assert set(pairs) == expected

    def test_invalid_usage(self):
        db = MiniDB()
        with pytest.raises(KeyError):
            db.scan("ghost")
        rng = np.random.default_rng(2)
        db.create_table("t", synthetic_table(rng, 10))
        with pytest.raises(KeyError):
            db.create_table("t", synthetic_table(rng, 10))
        with pytest.raises(ValueError):
            db.filter(db.scan("t"), "c0", "~", 1)
        with pytest.raises(TypeError):
            db.create_table("bad", np.zeros(10))


class TestTrainingJob:
    def test_epochs_chain(self):
        job = build_training_job(epochs=3)
        order = [t.name for t in job.topological_order()]
        assert order.index("train-epoch0") < order.index("train-epoch1")
        assert order[-1] == "checkpoint"

    def test_runs_with_cachew_region_mix(self, session):
        stats = session.run(build_training_job(
            n_samples=10_000, model_bytes=4 * MiB, epochs=2,
        ))
        assert stats.ok
        # Training epochs must land on the requested accelerator class.
        assert session.cluster.compute[stats.assignment["train-epoch0"]].kind is ComputeKind.GPU
        census = region_census(session.cluster.trace)
        assert census.get(RegionType.GLOBAL_SCRATCH, 0) >= 1  # transformed cache
        assert census.get(RegionType.GLOBAL_STATE, 0) >= 1  # dispatcher state

    def test_tpu_variant(self, session):
        job = build_training_job(
            n_samples=5_000, model_bytes=2 * MiB, epochs=1,
            accelerator=ComputeKind.TPU,
        )
        stats = session.run(job)
        assert session.cluster.compute[stats.assignment["train-epoch0"]].kind is ComputeKind.TPU

    def test_epoch_validation(self):
        with pytest.raises(ValueError):
            build_training_job(epochs=0)


class TestStencilJob:
    def test_structure_scales_with_workers_and_iterations(self):
        job = build_stencil_job(n_workers=3, iterations=2)
        workers = [n for n in job.tasks if n.startswith("worker")]
        assert len(workers) == 6
        barriers = [n for n in job.tasks if n.startswith("barrier")]
        assert len(barriers) == 2

    def test_runs_end_to_end(self, session):
        stats = session.run(build_stencil_job(
            n_workers=3, grid_bytes=8 * MiB, iterations=2,
        ))
        assert stats.ok
        assert session.rts.memory.live_regions() == []

    def test_workers_parallel_within_iteration(self, session):
        stats = session.run(build_stencil_job(
            n_workers=4, grid_bytes=32 * MiB, iterations=1,
        ))
        workers = [s for name, s in stats.tasks.items() if name.startswith("worker")]
        # At least two workers overlap in time.
        workers.sort(key=lambda s: s.started_at)
        assert workers[1].started_at < workers[0].finished_at

    def test_validation(self):
        with pytest.raises(ValueError):
            build_stencil_job(n_workers=0)
