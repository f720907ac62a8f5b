"""The paper as an executable specification.

Each test quotes one sentence of Anneser et al. (HotOS '23) and checks
that this implementation makes it true.  The goal is traceability: a
reviewer can read the paper and this file side by side.
"""

import pytest

from repro.api import connect
from repro.dataflow import Job, RegionUsage, Task, TaskProperties, WorkSpec
from repro.hardware import Cluster
from repro.hardware.spec import ComputeKind, MemoryKind, OpClass
from repro.memory.interfaces import AccessMode, Accessor, InterfaceError
from repro.memory.manager import MemoryManager
from repro.memory.ownership import UseAfterTransferError
from repro.memory.properties import LatencyClass, MemoryProperties
from repro.memory.regions import RegionType, region_properties
from repro.runtime import (
    CostModel,
    DeclarativePlacement,
    PlacementRequest,
)

KiB = 1024
MiB = 1024 * KiB


def run(cluster, gen):
    def driver():
        result = yield from gen
        return result

    return cluster.engine.run(until=cluster.engine.process(driver()))


class TestSection21:
    def test_jobs_consist_of_tasks_forming_a_dag(self):
        """'applications launch jobs that consist of tasks ... Connected
        tasks form a directed acyclic graph.' (§2.1)"""
        from repro.dataflow import ValidationError

        job = Job("dag")
        for n in ("a", "b", "c"):
            job.add_task(Task(n))
        job.connect("a", "b")
        job.connect("b", "c")
        job.validate()  # a DAG: fine
        job.connect("c", "a")
        with pytest.raises(ValidationError):
            job.validate()  # a cycle: rejected

    def test_properties_attached_to_tasks(self):
        """'a programming model should enable developers to attach common
        properties to their dataflow applications' (§2.1)"""
        card = TaskProperties(compute=ComputeKind.GPU, confidential=True,
                              persistent=False, mem_latency=LatencyClass.LOW)
        assert card.describe() == (
            "compute=gpu confidential=true persistent=false mem_latency=low"
        )

    def test_memory_requested_by_properties_not_devices(self):
        """'the physical memory devices should be made transparent to
        applications that instead request memory based on the required
        properties' (§2.1)"""
        cluster = Cluster.preset("pooled-rack")
        policy = DeclarativePlacement(
            cluster, MemoryManager(cluster), CostModel(cluster))
        request = PlacementRequest(
            size=1 * MiB,
            properties=MemoryProperties(latency=LatencyClass.LOW, sync=True),
            owner="t", observers=("cpu1",),
        )
        region = policy.place(request)  # no device name anywhere above
        assert region.device.name  # ...but a concrete one was chosen


class TestSection22:
    def test_regions_identified_by_properties_not_location(self):
        """'Memory Regions are thus declared and identified by their
        properties, not by their location' (§2.2(1)) — the identical
        declaration lands on different devices for different tasks."""
        cluster = Cluster.preset("pooled-rack")
        policy = DeclarativePlacement(
            cluster, MemoryManager(cluster), CostModel(cluster))
        spec = region_properties(RegionType.PRIVATE_SCRATCH)

        def place_for(observer):
            return policy.place(PlacementRequest(
                size=1 * MiB, properties=spec, owner=observer,
                observers=(observer,),
                region_type=RegionType.PRIVATE_SCRATCH,
            ))

        assert place_for("cpu1").device.kind is MemoryKind.DRAM
        assert place_for("gpu1").device.kind is MemoryKind.GDDR

    def test_exclusive_or_shared_ownership(self):
        """'Each chunk of allocated memory is either exclusively owned by
        a task ... or it shares the ownership with other tasks' (§2.2(2))"""
        from repro.memory.ownership import OwnershipMode, OwnershipRecord

        record = OwnershipRecord("t1")
        assert record.mode is OwnershipMode.EXCLUSIVE
        record.share("t1", ["t2"])
        assert record.mode is OwnershipMode.SHARED

    def test_ownership_transfer_like_move_semantics(self):
        """'a reference to the memory chunk can be passed to the next
        task ... similar to C++'s move semantics' (§2.2(2)) — the old
        handle is dead after the move."""
        cluster = Cluster.preset("table1-host")
        manager = MemoryManager(cluster)
        region = manager.allocate_on("dram0", KiB, MemoryProperties(), owner="t1")
        old_handle = region.handle("t1")
        manager.transfer_ownership(region, "t1", "t2")
        with pytest.raises(UseAfterTransferError):
            old_handle.validate()
        region.handle("t2").validate()  # the new owner's handle works

    def test_far_memory_requires_async_interface(self):
        """'If memory is far away, we should switch to an asynchronous
        interface that fetches memory in the background.' (§2.2(3))"""
        cluster = Cluster.preset("table1-host")
        manager = MemoryManager(cluster)
        far = manager.allocate_on("far0", 4 * KiB, MemoryProperties(), owner="t")
        accessor = Accessor(cluster, far.handle("t"), "cpu0")
        assert accessor.default_mode() is AccessMode.ASYNC
        with pytest.raises(InterfaceError):
            run(cluster, accessor.read(mode=AccessMode.SYNC))


class TestSection23:
    def test_rts_four_duties(self):
        """The RTS '(1) determin[es] ... which physical memory device best
        fits each task's declared requirements, (2) allocat[es] the
        Memory Regions ..., (3) de-allocat[es] ... after the last owning
        task finishes, (4) and resource-aware task scheduling.' (§2.3)"""
        cluster = Cluster.preset("pooled-rack", trace_categories={"memory"})
        session = connect(cluster=cluster)
        rts = session.rts
        job = Job("duties", global_state_size=64 * KiB)
        a = job.add_task(Task("a", work=WorkSpec(
            ops=1e5, output=RegionUsage(4 * MiB),
            scratch=RegionUsage(1 * MiB))))
        b = job.add_task(Task("b", work=WorkSpec(
            op_class=OpClass.MATMUL, ops=1e6, input_usage=RegionUsage(0))))
        job.connect(a, b)
        stats = session.run(job)
        # (1)+(2): regions were matched and allocated.
        assert stats.regions_allocated >= 3
        # (3): all freed after the last owner finished.
        assert rts.memory.live_regions() == []
        # (4): the matmul-heavy task went to an accelerator.
        assert cluster.compute[stats.assignment["b"]].kind in (
            ComputeKind.GPU, ComputeKind.TPU)

    def test_handover_is_ownership_transfer_when_addressable(self):
        """'the output memory of the preceding task can directly become
        the input memory of the next task if it is addressable by the
        compute devices of both tasks' (§2.3)"""
        session = connect(cluster=Cluster.preset("pooled-rack"))
        job = Job("move")
        a = job.add_task(Task("a", work=WorkSpec(
            ops=1e4, output=RegionUsage(8 * MiB))))
        b = job.add_task(Task("b", work=WorkSpec(
            ops=1e4, input_usage=RegionUsage(0))))
        job.connect(a, b)
        stats = session.run(job)
        assert stats.zero_copy_handover == 1
        assert stats.bytes_copied == 0

    def test_global_scratch_passes_data_between_unconnected_tasks(self):
        """'Global Scratch can pass data between tasks that are not
        connected ... (such as a bloom filter)' (§2.3)"""
        session = connect(cluster=Cluster.preset("pooled-rack"))
        job = Job("bloom")
        job.add_task(Task("builder", work=WorkSpec(
            ops=1e4, scratch_puts={"bloom": RegionUsage(64 * KiB)})))
        job.add_task(Task("prober", work=WorkSpec(
            ops=1e4, scratch_gets=("bloom",))))
        assert session.run(job).ok  # no edge between the two tasks


class TestSection3:
    def test_failures_would_lose_data_without_ft(self):
        """'If not handled properly, failures may lead to data loss'
        (§3 ch. 8) — and the FT layer prevents exactly that."""
        import numpy as np

        from repro.ft import ErasureCodedStore
        from repro.memory.region import RegionState

        cluster = Cluster.preset("far-memory-rack", n_nodes=8)
        manager = MemoryManager(cluster)
        unprotected = manager.allocate_on(
            "far0", 64 * KiB, MemoryProperties(), owner="raw")
        store = ErasureCodedStore(
            cluster, manager, [f"far{i}" for i in range(8)],
            home="dram0", k=4, m=2, shard_size=16 * KiB)
        data = np.arange(64 * KiB, dtype=np.uint64).astype(np.uint8)
        run(cluster, store.put("protected", data))

        cluster.crash_node("memnode0")
        store.note_device_failures()
        assert unprotected.state is RegionState.LOST  # the paper's fear
        recovered = run(cluster, store.get("protected"))
        assert np.array_equal(recovered, data)  # the paper's remedy
