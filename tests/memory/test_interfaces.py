"""Tests for sync/async access interfaces and the access-plan model."""

import pytest

from repro.hardware import Cluster
from repro.memory.interfaces import (
    AccessMode,
    AccessPattern,
    Accessor,
    InterfaceError,
    access_plan,
)
from repro.memory.manager import MemoryManager
from repro.memory.ownership import UseAfterTransferError
from repro.memory.properties import MemoryProperties
from repro.sim.flows import LinkDown


@pytest.fixture
def env():
    cluster = Cluster.preset("table1-host")
    return cluster, MemoryManager(cluster)


def run_access(cluster, generator):
    def driver():
        duration = yield from generator
        return duration

    return cluster.engine.run(until=cluster.engine.process(driver()))


class TestAccessPlan:
    def test_zero_bytes_is_free(self, env):
        cluster, _ = env
        plan = access_plan(cluster.memory["dram0"], 1.0, 0)
        assert plan.latency_ns == 0.0 and plan.wire_bytes == 0.0 and plan.n_ops == 0

    def test_sequential_pays_latency_once(self, env):
        cluster, _ = env
        dram = cluster.memory["dram0"]
        small = access_plan(dram, 10.0, 64, AccessPattern.SEQUENTIAL)
        large = access_plan(dram, 10.0, 64 * 1024, AccessPattern.SEQUENTIAL)
        assert small.latency_ns == large.latency_ns
        assert large.wire_bytes > small.wire_bytes

    def test_random_sync_latency_scales_with_ops(self, env):
        from repro.memory.interfaces import SYNC_MLP

        cluster, _ = env
        dram = cluster.memory["dram0"]
        one = access_plan(dram, 10.0, 64, AccessPattern.RANDOM, AccessMode.SYNC)
        many = access_plan(dram, 10.0, 64 * 100, AccessPattern.RANDOM, AccessMode.SYNC)
        assert many.n_ops == 100
        # A single miss pays one full round trip; a long stream overlaps
        # SYNC_MLP misses, so 100 ops cost 100/MLP round trips.
        assert many.latency_ns == pytest.approx(
            100 * one.latency_ns / SYNC_MLP
        )

    def test_async_vs_sync_latency_model(self, env):
        """Sync overlaps SYNC_MLP misses; async pays per-op software cost
        but sustains queue_depth in flight."""
        from repro.memory.interfaces import (
            ASYNC_OP_OVERHEAD_NS,
            PER_OP_OVERHEAD_NS,
            SYNC_MLP,
        )

        cluster, _ = env
        dram = cluster.memory["dram0"]
        rtt = 2 * 10.0 + dram.spec.latency + PER_OP_OVERHEAD_NS
        sync = access_plan(dram, 10.0, 64 * 160, AccessPattern.RANDOM, AccessMode.SYNC)
        async_ = access_plan(
            dram, 10.0, 64 * 160, AccessPattern.RANDOM, AccessMode.ASYNC, queue_depth=16
        )
        assert sync.latency_ns == pytest.approx(160 * rtt / SYNC_MLP)
        per_op = max(ASYNC_OP_OVERHEAD_NS, rtt / 16)
        assert async_.latency_ns == pytest.approx(max(rtt, 160 * per_op))
        assert async_.wire_bytes == sync.wire_bytes

    def test_granularity_amplifies_random_wire_bytes(self, env):
        cluster, _ = env
        pmem = cluster.memory["pmem0"]  # 256 B granularity
        plan = access_plan(pmem, 10.0, 8 * 64, AccessPattern.RANDOM, access_size=8)
        # 64 random 8-byte ops each drag in a 256 B granule.
        assert plan.wire_bytes == 64 * 256

    def test_write_penalty_applies(self, env):
        cluster, _ = env
        pmem = cluster.memory["pmem0"]  # write_penalty = 3
        read = access_plan(pmem, 0.0, 64, AccessPattern.RANDOM, is_write=False)
        write = access_plan(pmem, 0.0, 64, AccessPattern.RANDOM, is_write=True)
        assert write.latency_ns > read.latency_ns

    def test_invalid_arguments_rejected(self, env):
        cluster, _ = env
        dram = cluster.memory["dram0"]
        with pytest.raises(ValueError):
            access_plan(dram, 0.0, -1)
        with pytest.raises(ValueError):
            access_plan(dram, 0.0, 64, access_size=0)
        with pytest.raises(ValueError):
            access_plan(dram, 0.0, 64, queue_depth=0)


class TestAccessor:
    def test_sync_read_near_memory(self, env):
        cluster, mm = env
        region = mm.allocate_on("dram0", 64 * 1024, MemoryProperties(), owner="t1")
        acc = Accessor(cluster, region.handle("t1"), "cpu0")
        duration = run_access(cluster, acc.read(mode=AccessMode.SYNC))
        assert duration > 0
        assert cluster.memory["dram0"].bytes_read >= 64 * 1024

    def test_sync_on_far_memory_rejected(self, env):
        cluster, mm = env
        region = mm.allocate_on("far0", 4096, MemoryProperties(), owner="t1")
        acc = Accessor(cluster, region.handle("t1"), "cpu0")
        with pytest.raises(InterfaceError):
            run_access(cluster, acc.read(mode=AccessMode.SYNC))

    def test_async_on_far_memory_works(self, env):
        cluster, mm = env
        region = mm.allocate_on("far0", 4096, MemoryProperties(), owner="t1")
        acc = Accessor(cluster, region.handle("t1"), "cpu0")
        duration = run_access(cluster, acc.read(mode=AccessMode.ASYNC))
        assert duration > 0

    def test_default_mode_follows_table1(self, env):
        cluster, mm = env
        near = mm.allocate_on("dram0", 64, MemoryProperties(), owner="t1")
        far = mm.allocate_on("far0", 64, MemoryProperties(), owner="t1")
        assert Accessor(cluster, near.handle("t1"), "cpu0").default_mode() is AccessMode.SYNC
        assert Accessor(cluster, far.handle("t1"), "cpu0").default_mode() is AccessMode.ASYNC

    def test_coherent_region_on_noncoherent_path_rejected(self, env):
        cluster, mm = env
        region = mm.allocate_on(
            "ssd0", 4096, MemoryProperties(coherent=True), owner="t1"
        )
        with pytest.raises(InterfaceError):
            Accessor(cluster, region.handle("t1"), "cpu0")

    def test_access_beyond_region_size_rejected(self, env):
        cluster, mm = env
        region = mm.allocate_on("dram0", 64, MemoryProperties(), owner="t1")
        acc = Accessor(cluster, region.handle("t1"), "cpu0")
        with pytest.raises(ValueError):
            run_access(cluster, acc.read(nbytes=128))

    def test_stale_handle_rejected_at_access(self, env):
        cluster, mm = env
        region = mm.allocate_on("dram0", 64, MemoryProperties(), owner="t1")
        handle = region.handle("t1")
        acc = Accessor(cluster, handle, "cpu0")
        mm.transfer_ownership(region, "t1", "t2")
        with pytest.raises(UseAfterTransferError):
            run_access(cluster, acc.read())

    def test_random_sync_slower_than_sequential_sync(self, env):
        cluster, mm = env
        region = mm.allocate_on("dram0", 1024 * 1024, MemoryProperties(), owner="t1")

        acc = Accessor(cluster, region.handle("t1"), "cpu0")
        t_seq = run_access(cluster, acc.read(pattern=AccessPattern.SEQUENTIAL))
        t_rand = run_access(cluster, acc.read(pattern=AccessPattern.RANDOM))
        assert t_rand > t_seq

    def test_async_hides_far_latency_vs_serial(self, env):
        """The paper's §2.2(3): async interfaces improve far-memory
        throughput by overlapping requests."""
        cluster, mm = env
        region = mm.allocate_on("cxl0", 64 * 512, MemoryProperties(), owner="t1")
        acc = Accessor(cluster, region.handle("t1"), "cpu0")
        t_sync = run_access(
            cluster, acc.read(pattern=AccessPattern.RANDOM, mode=AccessMode.SYNC)
        )
        t_async = run_access(
            cluster, acc.read(pattern=AccessPattern.RANDOM, mode=AccessMode.ASYNC)
        )
        assert t_async < t_sync / 2

    def test_writes_tracked_separately(self, env):
        cluster, mm = env
        region = mm.allocate_on("dram0", 4096, MemoryProperties(), owner="t1")
        acc = Accessor(cluster, region.handle("t1"), "cpu0")
        run_access(cluster, acc.write())
        assert cluster.memory["dram0"].bytes_written >= 4096

    def test_unknown_observer_rejected(self, env):
        cluster, mm = env
        region = mm.allocate_on("dram0", 64, MemoryProperties(), owner="t1")
        with pytest.raises(InterfaceError):
            Accessor(cluster, region.handle("t1"), "ghost")


class TestAccessEventBudget:
    """An access waits on its transfer's done event, joined with the
    latency floor (``FlowNetwork.transfer(latency_floor=...)``), not on
    ``all_of([transfer, timeout])``."""

    @staticmethod
    def far_reader(env):
        """A latency-dominant access: a 16,808 ns floor over a stream
        whose last byte lands at about 4,065 ns."""
        cluster, mm = env
        region = mm.allocate_on("far0", 4096, MemoryProperties(), owner="t1")
        acc = Accessor(cluster, region.handle("t1"), "cpu0")
        return acc.read(pattern=AccessPattern.RANDOM, mode=AccessMode.ASYNC)

    @pytest.mark.parametrize("device, pattern", [
        ("far0", AccessPattern.RANDOM),  # latency-dominant
        ("dram0", AccessPattern.SEQUENTIAL),  # stream-dominant
    ])
    def test_isolated_access_costs_three_engine_events(self, env, device,
                                                        pattern):
        """Starter, completion timer, done: no floor timeout and no
        join event (five events before the fold)."""
        cluster, mm = env
        region = mm.allocate_on(device, 64 * 1024, MemoryProperties(),
                                owner="t1")
        acc = Accessor(cluster, region.handle("t1"), "cpu0")
        run_access(cluster, acc.read(pattern=pattern, mode=AccessMode.ASYNC))
        # The wrapping process's start and finish are the other two.
        assert cluster.engine.events_processed == 2 + 3

    def test_latency_dominant_access_resumes_after_a_later_same_instant_timeout(
            self, env):
        """The floor's slot was reserved before the timeout was created,
        so the join's hop runs behind it, as ``all_of`` would."""
        cluster, _ = env
        engine = cluster.engine
        order = []

        def access():
            yield from self.far_reader(env)
            order.append(("access", engine.now))

        def other():
            yield engine.timeout(16808.0)
            order.append(("timeout", engine.now))

        engine.process(access())
        engine.process(other())
        engine.run()
        assert order == [("timeout", 16808.0), ("access", 16808.0)]

    def test_mid_stream_link_down_reaches_the_waiter_at_once(self, env):
        cluster, _ = env
        engine = cluster.engine
        caught = []

        def access():
            try:
                yield from self.far_reader(env)
            except LinkDown as exc:
                caught.append((exc.link.name, engine.now))

        def cut():
            yield engine.timeout(3000.0)  # streaming since 2,700 ns
            cluster.flownet.fail_link(
                cluster.topology.route("cpu0", "far0")[0])

        engine.process(access())
        engine.process(cut())
        engine.run()
        assert caught == [("cpu0--far0", 3000.0)]
