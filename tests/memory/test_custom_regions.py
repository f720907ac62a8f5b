"""Tests for user-named Memory Region types (§2.2(1): name the bundle)."""

import pytest

from repro.apps import region_census
from repro.dataflow import Job, Task, WorkSpec, task
from repro.hardware import Cluster
from repro.memory.properties import BandwidthClass, LatencyClass, MemoryProperties
from repro.memory.regions import (
    CustomRegionType,
    RegionType,
    define_region_type,
    lookup_region_type,
    region_properties,
)
from repro.api import connect

KiB = 1024
MiB = 1024 * KiB

MODEL_STATE = MemoryProperties(
    latency=LatencyClass.LOW, bandwidth=BandwidthClass.HIGH, sync=True,
)


class TestDefineRegionType:
    def test_define_and_lookup(self):
        rt = define_region_type("model-state", MODEL_STATE)
        assert isinstance(rt, CustomRegionType)
        assert rt.value == "model-state"
        assert lookup_region_type("model-state") is rt
        assert region_properties(rt) == MODEL_STATE
        assert region_properties("model-state") == MODEL_STATE

    def test_idempotent_redefinition(self):
        a = define_region_type("result-cache-x", MemoryProperties())
        b = define_region_type("result-cache-x", MemoryProperties())
        assert a is b

    def test_conflicting_redefinition_rejected(self):
        define_region_type("conflict-t", MemoryProperties())
        with pytest.raises(ValueError, match="different properties"):
            define_region_type("conflict-t", MODEL_STATE)

    def test_shadowing_predefined_rejected(self):
        with pytest.raises(ValueError, match="shadows"):
            define_region_type("global_state", MODEL_STATE)
        with pytest.raises(ValueError):
            define_region_type("", MODEL_STATE)

    def test_predefined_lookup_still_works(self):
        assert lookup_region_type("private_scratch") is RegionType.PRIVATE_SCRATCH
        with pytest.raises(KeyError):
            lookup_region_type("nonexistent-kind")


class TestTaskContextRequest:
    def test_task_requests_named_region(self):
        cluster = Cluster.preset("pooled-rack", seed=127,
                                 trace_categories={"memory"})
        session = connect(cluster=cluster)
        rts = session.rts
        model_state = define_region_type("model-state-2", MODEL_STATE)
        seen = {}

        job = Job("custom-regions")

        @task(job, work=WorkSpec(ops=1e4))
        def train(ctx):
            handle = ctx.request(model_state, size=8 * MiB)
            seen["device"] = handle.region.device.name
            seen["offer"] = rts.costmodel.offered(
                ctx.compute, handle.region.device)
            yield from ctx.write(handle)

        stats = session.run(job)
        assert stats.ok
        # The named bundle's properties were honored from the task's view.
        assert seen["offer"].satisfies(MODEL_STATE)
        # ...and the region was freed with the task (no leaks).
        assert rts.memory.live_regions() == []
        # The census sees the custom type by name.
        census = region_census(cluster.trace)
        assert census.get(model_state, 0) == 1

    def test_request_by_string_and_predefined(self):
        cluster = Cluster.preset("pooled-rack", seed=128)
        session = connect(cluster=cluster)
        rts = session.rts
        define_region_type("blob-cache", MemoryProperties(
            latency=LatencyClass.HIGH, bandwidth=BandwidthClass.LOW))

        job = Job("strings")

        @task(job, work=WorkSpec(ops=1e3))
        def worker(ctx):
            blob = ctx.request("blob-cache", size=32 * MiB)
            state = ctx.request(RegionType.GLOBAL_STATE, size=64 * KiB)
            yield from ctx.write(blob, nbytes=1 * MiB)
            yield from ctx.write(state, nbytes=4 * KiB)

        assert session.run(job).ok
        assert rts.memory.live_regions() == []

    def test_confidential_card_propagates_to_requests(self):
        from repro.dataflow import TaskProperties
        from repro.hardware.spec import Attachment

        cluster = Cluster.preset("pooled-rack", seed=129)
        session = connect(cluster=cluster)
        rts = session.rts
        define_region_type("staging-q", MemoryProperties())
        placed = []
        original = rts.placement.place

        def spy(request):
            region = original(request)
            placed.append(region)
            return region

        rts.placement.place = spy
        job = Job("secret-custom")
        job.add_task(Task(
            "t", work=WorkSpec(ops=1e3),
            properties=TaskProperties(confidential=True),
            fn=lambda ctx: (yield from _use_staging(ctx)),
        ))
        assert session.run(job).ok
        staging = [r for r in placed if "staging-q" in r.name]
        assert staging
        assert all(
            r.device.spec.attachment is not Attachment.NIC for r in staging
        )


def _use_staging(ctx):
    handle = ctx.request("staging-q", size=1 * MiB)
    yield from ctx.write(handle)
