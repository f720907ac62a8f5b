"""Tests: shared ownership pays coherence, exclusive ownership does not."""

import pytest

from repro.hardware import Cluster
from repro.memory.coherence import CoherenceModel
from repro.memory.interfaces import AccessMode, AccessPattern, Accessor
from repro.memory.manager import MemoryManager
from repro.memory.properties import MemoryProperties

KiB = 1024


@pytest.fixture
def env():
    cluster = Cluster.preset("pooled-rack", seed=73)
    return cluster, MemoryManager(cluster), CoherenceModel.for_cluster(cluster)


def run(cluster, gen):
    def driver():
        result = yield from gen
        return result

    return cluster.engine.run(until=cluster.engine.process(driver()))


def shared_region(mm, owners=("t1", "t2"), device="dram-pool0", size=64 * KiB):
    region = mm.allocate_on(device, size, MemoryProperties(), owner=owners[0])
    mm.share(region, owners[0], owners[1:])
    return region


class TestCoherenceModel:
    def test_exclusive_region_pays_nothing(self, env):
        cluster, mm, model = env
        region = mm.allocate_on("dram-pool0", KiB, MemoryProperties(), owner="t1")
        assert model.access_penalty(region, "cpu1", is_write=True) == 0.0
        assert model.access_penalty(region, "cpu1", is_write=False) == 0.0
        assert model.total_penalty_ns == 0.0

    def test_single_sharer_write_is_free(self, env):
        cluster, mm, model = env
        region = shared_region(mm)
        # Only cpu1 has touched it: nothing to invalidate.
        assert model.access_penalty(region, "cpu1", is_write=True) == 0.0

    def test_write_invalidates_other_sharers(self, env):
        cluster, mm, model = env
        region = shared_region(mm)
        model.access_penalty(region, "cpu1", is_write=False)
        model.access_penalty(region, "gpu1", is_write=False)
        penalty = model.access_penalty(region, "cpu1", is_write=True)
        assert penalty > 0.0
        assert model.invalidations == 1

    def test_invalidation_cost_grows_with_sharers(self, env):
        cluster, mm, model = env
        region = shared_region(mm, owners=("t1", "t2", "t3", "t4"))
        observers = ["cpu1", "cpu2", "gpu1", "gpu2"]
        for observer in observers:
            model.access_penalty(region, observer, is_write=False)
        few = shared_region(mm)
        model.access_penalty(few, "cpu1", is_write=False)
        model.access_penalty(few, "gpu1", is_write=False)

        many_penalty = model.access_penalty(region, "cpu1", is_write=True)
        few_penalty = model.access_penalty(few, "cpu1", is_write=True)
        assert many_penalty > few_penalty

    def test_read_after_foreign_write_is_dirty_miss(self, env):
        cluster, mm, model = env
        region = shared_region(mm)
        model.access_penalty(region, "cpu1", is_write=False)
        model.access_penalty(region, "gpu1", is_write=True)
        penalty = model.access_penalty(region, "cpu1", is_write=False)
        assert penalty > 0.0
        assert model.dirty_misses == 1
        # Reading again without an intervening write: clean.
        assert model.access_penalty(region, "cpu1", is_write=False) == 0.0

    def test_own_write_then_own_read_is_free(self, env):
        cluster, mm, model = env
        region = shared_region(mm)
        model.access_penalty(region, "cpu1", is_write=True)
        assert model.access_penalty(region, "cpu1", is_write=False) == 0.0

    def test_model_is_per_cluster_singleton(self, env):
        cluster, _mm, model = env
        assert CoherenceModel.for_cluster(cluster) is model
        other = Cluster.preset("pooled-rack", seed=74)
        assert CoherenceModel.for_cluster(other) is not model


class TestCoherenceThroughAccessor:
    def test_ping_pong_writes_slower_than_private_writes(self, env):
        """Two observers alternately writing a shared region (the
        latch/ping-pong pattern) pay more than one observer writing an
        exclusive region the same number of times."""
        cluster, mm, model = env

        shared = shared_region(mm, owners=("t1", "t2"))
        h1 = shared.handle("t1")
        h2 = shared.handle("t2")
        acc_cpu = Accessor(cluster, h1, "cpu1")
        acc_gpu = Accessor(cluster, h2, "gpu1")

        def ping_pong():
            for _round in range(8):
                yield from acc_cpu.write(64, pattern=AccessPattern.RANDOM,
                                         mode=AccessMode.SYNC, access_size=64)
                yield from acc_gpu.write(64, pattern=AccessPattern.RANDOM,
                                         mode=AccessMode.SYNC, access_size=64)

        t0 = cluster.engine.now
        run(cluster, ping_pong())
        ping_pong_time = cluster.engine.now - t0
        assert model.invalidations >= 15

        exclusive = mm.allocate_on(
            "dram-pool0", 64 * KiB, MemoryProperties(), owner="solo"
        )
        acc_solo = Accessor(cluster, exclusive.handle("solo"), "cpu1")

        def private_writes():
            for _round in range(16):
                yield from acc_solo.write(64, pattern=AccessPattern.RANDOM,
                                          mode=AccessMode.SYNC, access_size=64)

        t0 = cluster.engine.now
        run(cluster, private_writes())
        private_time = cluster.engine.now - t0
        assert ping_pong_time > private_time * 1.5


class TestClusterLifetime:
    def test_dropped_session_frees_its_cluster(self):
        """The coherence model lives on its cluster, so a session whose
        job touched memory (and built the model) leaves nothing behind
        that keeps the cluster reachable once it is dropped."""
        import gc
        import weakref

        from repro import connect
        from repro.dataflow import Job, RegionUsage, Task, WorkSpec

        session = connect("pooled-rack", seed=75)
        job = Job("touch")
        job.add_task(Task("write", work=WorkSpec(
            ops=1e4, output=RegionUsage(64 * KiB))))
        job.add_task(Task("read", work=WorkSpec(
            ops=1e4, input_usage=RegionUsage(0))))
        job.connect("write", "read")
        session.run(job)
        cluster = weakref.ref(session.cluster)
        assert cluster().coherence is not None  # the job built the model
        del session, job
        gc.collect()
        assert cluster() is None
