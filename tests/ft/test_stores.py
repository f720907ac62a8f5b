"""Integration tests for the fault-tolerant span store + recovery orchestration."""

import numpy as np
import pytest

from repro.ft import DataLoss, ErasureCodedStore, RecoveryOrchestrator
from repro.hardware import Cluster
from repro.memory.manager import MemoryManager
from repro.memory.properties import MemoryProperties

KiB = 1024


@pytest.fixture
def env():
    cluster = Cluster.preset("far-memory-rack", n_nodes=8)
    return cluster, MemoryManager(cluster)


def run(cluster, gen):
    def driver():
        result = yield from gen
        return result

    return cluster.engine.run(until=cluster.engine.process(driver()))


def payload(n, seed=0):
    return np.random.default_rng(seed).integers(0, 256, n).astype(np.uint8)


FARS = [f"far{i}" for i in range(8)]

#: (k, m) points on the overhead-versus-repair curve: 3-way replication,
#: single-parity striping, plain striping and RS(4+2).
CODES = [(1, 2), (4, 1), (4, 0), (4, 2)]
REDUNDANT = [code for code in CODES if code[1] > 0]


def code_id(code):
    return f"k{code[0]}m{code[1]}"


class TestErasureCodedStore:
    def make(self, cluster, mm, **kw):
        kw.setdefault("k", 4)
        kw.setdefault("m", 2)
        kw.setdefault("shard_size", 4 * KiB)
        return ErasureCodedStore(cluster, mm, FARS, home="dram0", **kw)

    def test_put_get_roundtrip(self, env):
        cluster, mm = env
        store = self.make(cluster, mm)
        data = payload(10 * KiB)
        run(cluster, store.put("obj", data))
        got = run(cluster, store.get("obj"))
        assert np.array_equal(got, data)
        assert cluster.engine.now > 0

    def test_shards_on_distinct_failure_domains(self, env):
        cluster, mm = env
        store = self.make(cluster, mm)
        span = run(cluster, store.put("obj", payload(KiB)))
        domains = {cluster.node_of(d) for d in span.devices}
        assert len(domains) == 6  # k + m

    def test_degraded_read_after_crash(self, env):
        cluster, mm = env
        store = self.make(cluster, mm)
        data = payload(12 * KiB, seed=3)
        span = run(cluster, store.put("obj", data))
        cluster.crash_node(cluster.node_of(span.devices[0]))
        store.note_device_failures()
        assert span.lost_shards == [0]
        got = run(cluster, store.get("obj"))
        assert np.array_equal(got, data)

    def test_recover_rebuilds_on_new_domains(self, env):
        cluster, mm = env
        store = self.make(cluster, mm)
        data = payload(8 * KiB, seed=4)
        span = run(cluster, store.put("obj", data))
        victim = cluster.node_of(span.devices[1])
        cluster.crash_node(victim)
        store.note_device_failures()
        rebuilt = run(cluster, store.recover())
        assert rebuilt == 1
        assert span.lost_shards == []
        assert victim not in {cluster.node_of(d) for d in span.devices}
        assert np.array_equal(run(cluster, store.get("obj")), data)
        assert store.repair_bytes > 0

    def test_two_crashes_still_recoverable_with_m2(self, env):
        cluster, mm = env
        store = self.make(cluster, mm)
        data = payload(8 * KiB, seed=5)
        span = run(cluster, store.put("obj", data))
        for d in span.devices[:2]:
            cluster.crash_node(cluster.node_of(d))
        store.note_device_failures()
        run(cluster, store.recover())
        assert np.array_equal(run(cluster, store.get("obj")), data)

    def test_three_crashes_exceed_m_and_lose_data(self, env):
        cluster, mm = env
        store = self.make(cluster, mm)
        span = run(cluster, store.put("obj", payload(8 * KiB)))
        for d in span.devices[:3]:
            cluster.crash_node(cluster.node_of(d))
        store.note_device_failures()
        with pytest.raises(DataLoss):
            run(cluster, store.get("obj"))

    def test_memory_overhead_near_codec_rate(self, env):
        cluster, mm = env
        store = self.make(cluster, mm)
        # Fill one span exactly: k * shard_size bytes of live data.
        run(cluster, store.put("obj", payload(16 * KiB, seed=6)))
        assert store.memory_overhead() == pytest.approx(1.5)

    def test_delete_and_compaction_reclaim_space(self, env):
        """Carbink-style compaction: live remnants of two mostly-dead
        spans get repacked into one fresh span."""
        cluster, mm = env
        store = self.make(cluster, mm)
        for i in range(8):  # two full spans (4 x 4 KiB each)
            run(cluster, store.put(f"o{i}", payload(4 * KiB, seed=i)))
        assert len(store.spans) == 2
        physical_before = store.physical_bytes()
        for i in (1, 2, 3, 5, 6, 7):  # keep one live object per span
            store.delete(f"o{i}")
        moved = run(cluster, store.compact(dead_threshold=0.5))
        assert moved == 2
        assert store.compactions == 2
        assert len(store.spans) == 1
        assert store.physical_bytes() < physical_before
        for i in (0, 4):
            data = run(cluster, store.get(f"o{i}"))
            assert np.array_equal(data, payload(4 * KiB, seed=i))

    def test_multiple_objects_pack_into_one_span(self, env):
        cluster, mm = env
        store = self.make(cluster, mm)
        for i in range(4):
            run(cluster, store.put(f"o{i}", payload(2 * KiB, seed=i)))
        assert len(store.spans) == 1
        for i in range(4):
            assert np.array_equal(
                run(cluster, store.get(f"o{i}")), payload(2 * KiB, seed=i)
            )

    def test_oversized_object_rejected(self, env):
        cluster, mm = env
        store = self.make(cluster, mm)
        with pytest.raises(ValueError):
            run(cluster, store.put("big", payload(64 * KiB)))

    def test_duplicate_name_rejected(self, env):
        cluster, mm = env
        store = self.make(cluster, mm)
        run(cluster, store.put("x", payload(KiB)))
        with pytest.raises(KeyError):
            run(cluster, store.put("x", payload(KiB)))

    def test_too_few_failure_domains_rejected(self, env):
        cluster, mm = env
        with pytest.raises(ValueError):
            ErasureCodedStore(cluster, mm, FARS[:3], home="dram0", k=4, m=2)

    def test_error_counts_failure_domains_not_devices(self, env):
        cluster, mm = env
        with pytest.raises(ValueError, match="got 3$"):
            ErasureCodedStore(cluster, mm, FARS[:3] * 2, home="dram0", k=4, m=2)

    def test_fresh_stores_name_their_first_span_alike(self, env):
        """Span ids are per store, so region names do not depend on
        what ran earlier in the process."""
        cluster, mm = env
        names = []
        for _ in range(2):
            store = self.make(cluster, mm)
            span = run(cluster, store.put("obj", payload(KiB)))
            names.append(span.regions[0].name)
        assert names[0] == names[1] == "span0@far0"


class TestSpanCodes:
    """Replication (k = 1) and striping (m <= 1) are spans with other (k, m)."""

    SHARD = 4 * KiB

    def make(self, cluster, mm, code, shard_size=SHARD):
        k, m = code
        return ErasureCodedStore(
            cluster, mm, FARS, home="dram0", k=k, m=m, shard_size=shard_size,
        )

    @pytest.mark.parametrize("code", CODES, ids=code_id)
    def test_put_get_roundtrip(self, env, code):
        cluster, mm = env
        store = self.make(cluster, mm, code)
        objects = {f"o{i}": payload(code[0] * self.SHARD - 100 * i, seed=i)
                   for i in range(3)}
        for name, data in objects.items():
            run(cluster, store.put(name, data))
        for name, data in objects.items():
            assert np.array_equal(run(cluster, store.get(name)), data)

    @pytest.mark.parametrize("code", CODES, ids=code_id)
    def test_shards_on_distinct_failure_domains(self, env, code):
        cluster, mm = env
        store = self.make(cluster, mm, code)
        span = run(cluster, store.put("obj", payload(KiB)))
        assert len({cluster.node_of(d) for d in span.devices}) == sum(code)

    @pytest.mark.parametrize("code", CODES, ids=code_id)
    def test_memory_overhead_is_code_rate(self, env, code):
        cluster, mm = env
        k, m = code
        store = self.make(cluster, mm, code)
        run(cluster, store.put("obj", payload(k * self.SHARD, seed=6)))
        assert store.memory_overhead() == pytest.approx((k + m) / k)

    @pytest.mark.parametrize("code", REDUNDANT, ids=code_id)
    def test_crash_then_recover(self, env, code):
        cluster, mm = env
        store = self.make(cluster, mm, code)
        data = payload(code[0] * self.SHARD, seed=11)
        span = run(cluster, store.put("obj", data))
        victim = cluster.node_of(span.devices[0])
        cluster.crash_node(victim)
        assert store.note_device_failures() == 1
        assert run(cluster, store.recover()) == 1
        assert span.lost_shards == []
        assert victim not in {cluster.node_of(d) for d in span.devices}
        assert np.array_equal(run(cluster, store.get("obj")), data)

    @pytest.mark.parametrize("code", CODES, ids=code_id)
    def test_more_than_m_losses_is_data_loss(self, env, code):
        cluster, mm = env
        store = self.make(cluster, mm, code)
        span = run(cluster, store.put("obj", payload(KiB)))
        for device in span.devices[: code[1] + 1]:
            cluster.crash_node(cluster.node_of(device))
        store.note_device_failures()
        assert run(cluster, store.recover()) == 0
        with pytest.raises(DataLoss):
            run(cluster, store.get("obj"))

    @pytest.mark.parametrize("code", CODES, ids=code_id)
    def test_delete_frees_regions(self, env, code):
        cluster, mm = env
        store = self.make(cluster, mm, code)
        for name in ("a", "b"):
            run(cluster, store.put(name, payload(KiB)))
        store.delete("a")
        assert len(mm.live_regions()) == sum(code)  # "b" keeps the span
        store.delete("b")
        assert mm.live_regions() == []
        assert store.spans == []

    @pytest.mark.parametrize("code", CODES, ids=code_id)
    def test_too_few_failure_domains_rejected(self, env, code):
        cluster, mm = env
        k, m = code
        with pytest.raises(ValueError):
            ErasureCodedStore(cluster, mm, FARS[: k + m - 1], home="dram0",
                              k=k, m=m)

    def test_invalid_code_rejected(self, env):
        cluster, mm = env
        for k, m in ((0, 2), (1, -1)):
            with pytest.raises(ValueError):
                ErasureCodedStore(cluster, mm, FARS, home="dram0", k=k, m=m)

    def test_striped_read_faster_than_single_device(self, env):
        """The point of striping (m = 0): aggregate bandwidth across nodes."""
        cluster, mm = env
        store = self.make(cluster, mm, (4, 0), shard_size=64 * KiB)
        run(cluster, store.put("obj", payload(256 * KiB, seed=21)))
        t0 = cluster.engine.now
        run(cluster, store.get("obj"))
        striped_time = cluster.engine.now - t0

        t0 = cluster.engine.now
        run(cluster, _null_gen(cluster.transfer("far0", "dram0", 256 * KiB)))
        single_time = cluster.engine.now - t0
        assert striped_time < single_time


class TestRecoveryOrchestrator:
    def test_crash_triggers_automatic_repair(self, env):
        cluster, mm = env
        store = ErasureCodedStore(
            cluster, mm, FARS, home="dram0", k=4, m=2, shard_size=4 * KiB
        )
        orchestrator = RecoveryOrchestrator(cluster, [store], detection_delay_ns=5000.0)
        data = payload(12 * KiB, seed=30)
        span = run(cluster, store.put("obj", data))

        def crash_later():
            yield cluster.engine.timeout(1000.0)
            cluster.crash_node(cluster.node_of(span.devices[0]))

        cluster.engine.process(crash_later())
        cluster.engine.run()
        assert orchestrator.stats.crashes_seen == 1
        assert orchestrator.stats.repairs_completed == 1
        assert orchestrator.stats.shards_rebuilt == 1
        assert orchestrator.stats.mean_repair_time_ns > 0
        assert span.lost_shards == []

    def test_unplaceable_span_stays_degraded_and_repair_goes_on(self, env):
        """A span with no room for its replacement shard must not abort
        the repair of the spans after it."""
        cluster, mm = env
        store = ErasureCodedStore(
            cluster, mm, FARS[:3], home="dram0", k=1, m=1, shard_size=4 * KiB
        )
        orchestrator = RecoveryOrchestrator(cluster, [store], detection_delay_ns=0.0)
        objects = {f"o{i}": payload(4 * KiB, seed=i) for i in range(2)}
        for name, data in objects.items():
            run(cluster, store.put(name, data))
        stuck, fixable = store.spans
        assert stuck.devices == ["far0", "far1"]
        assert fixable.devices == ["far2", "far0"]
        # Fill far2, the only domain that could take stuck's lost shard.
        mm.allocate_on("far2", mm.allocators["far2"].largest_free_extent,
                       MemoryProperties(), owner="filler")
        cluster.crash_node("memnode0")
        cluster.engine.run()
        assert orchestrator.stats.unrecoverable == 0
        assert orchestrator.stats.shards_rebuilt == 1
        assert stuck.lost_shards == [0]
        assert fixable.lost_shards == []
        assert fixable.devices == ["far2", "far1"]
        for name, data in objects.items():
            assert np.array_equal(run(cluster, store.get(name)), data)

    def test_detection_delay_validated(self, env):
        cluster, mm = env
        with pytest.raises(ValueError):
            RecoveryOrchestrator(cluster, [], detection_delay_ns=-1.0)


def _null_gen(event):
    result = yield event
    return result
