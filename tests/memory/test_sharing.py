"""Tests for the refcounted shared-region cache (KV prefix substrate).

The edge cases that matter are the ownership-discipline ones: double
release, eviction with live readers (deferred reclamation), and an
owner/reader crashing while others still hold references.
"""

import pytest

from repro.hardware import Cluster
from repro.memory.manager import MemoryManager
from repro.memory.ownership import NotOwnerError
from repro.memory.properties import MemoryProperties
from repro.memory.region import RegionState
from repro.memory.sharing import SharedRegionCache, SharedRegionError
from repro.sim.faults import FaultKind

OWNER = "kv-cache"


@pytest.fixture
def env():
    cluster = Cluster.preset("table1-host")
    mm = MemoryManager(cluster)
    return cluster, mm, SharedRegionCache(mm, OWNER)


def put(mm, cache, key, size=4096, device="dram0", name=None):
    region = mm.allocate_on(device, size, MemoryProperties(), owner=OWNER,
                            name=name)
    cache.insert(key, region)
    return region


class TestInsert:
    def test_insert_and_lookup(self, env):
        _, mm, cache = env
        region = put(mm, cache, ("sys0",))
        assert ("sys0",) in cache
        assert cache.get(("sys0",)).region is region
        assert len(cache) == 1
        assert cache.keys() == [("sys0",)]

    def test_insert_requires_cache_ownership(self, env):
        _, mm, cache = env
        foreign = mm.allocate_on("dram0", 64, MemoryProperties(), owner="job1")
        with pytest.raises(NotOwnerError):
            cache.insert(("k",), foreign)

    def test_double_insert_rejected(self, env):
        _, mm, cache = env
        put(mm, cache, ("k",))
        with pytest.raises(SharedRegionError):
            put(mm, cache, ("k",))

    def test_pinned_bytes_counts_live_and_dying(self, env):
        _, mm, cache = env
        put(mm, cache, ("a",), size=4096)
        put(mm, cache, ("b",), size=8192)
        cache.acquire(("b",), "r1")
        cache.forget(("b",))  # dying, still allocated
        assert cache.pinned_bytes() == 4096 + 8192


class TestRefcounts:
    def test_acquire_release_roundtrip(self, env):
        _, mm, cache = env
        region = put(mm, cache, ("k",))
        handle = cache.acquire(("k",), "job1", now=5.0)
        assert region.ownership.is_owner("job1")
        assert handle.region is region
        entry = cache.get(("k",))
        assert entry.ref_count == 1 and entry.pinned
        assert entry.last_used_at == 5.0
        freed = cache.release(("k",), "job1")
        assert freed is False  # the cache's own ref keeps it alive
        assert entry.ref_count == 0 and not entry.pinned
        assert region.alive

    def test_acquire_missing_key_raises(self, env):
        _, _, cache = env
        with pytest.raises(KeyError):
            cache.acquire(("nope",), "job1")

    def test_double_acquire_same_reader_rejected(self, env):
        _, mm, cache = env
        put(mm, cache, ("k",))
        cache.acquire(("k",), "job1")
        with pytest.raises(SharedRegionError):
            cache.acquire(("k",), "job1")

    def test_double_release_raises(self, env):
        _, mm, cache = env
        put(mm, cache, ("k",))
        cache.acquire(("k",), "job1")
        cache.release(("k",), "job1")
        with pytest.raises(SharedRegionError):
            cache.release(("k",), "job1")

    def test_release_without_acquire_raises(self, env):
        _, mm, cache = env
        put(mm, cache, ("k",))
        with pytest.raises(SharedRegionError):
            cache.release(("k",), "stranger")

    def test_outstanding_reports_pinned_entries(self, env):
        _, mm, cache = env
        put(mm, cache, ("a",))
        put(mm, cache, ("b",))
        cache.acquire(("a",), "r1")
        cache.acquire(("a",), "r2")
        assert cache.outstanding() == {("a",): 2}
        cache.release(("a",), "r1")
        cache.release(("a",), "r2")
        assert cache.outstanding() == {}


class TestEviction:
    def test_forget_unpinned_frees_immediately(self, env):
        _, mm, cache = env
        region = put(mm, cache, ("k",))
        assert cache.forget(("k",)) is True
        assert region.state is RegionState.FREED
        assert ("k",) not in cache
        assert cache.evictions == 1 and cache.deferred_evictions == 0

    def test_forget_missing_key_raises(self, env):
        _, _, cache = env
        with pytest.raises(KeyError):
            cache.forget(("nope",))

    def test_forget_with_live_refs_defers_reclamation(self, env):
        """ISSUE edge: ``forget()`` on a region with live references."""
        _, mm, cache = env
        region = put(mm, cache, ("k",))
        cache.acquire(("k",), "job1")
        assert cache.forget(("k",)) is False  # pinned: index-only evict
        assert ("k",) not in cache  # invisible to new lookups...
        assert region.alive  # ...but never use-after-free
        assert cache.deferred_evictions == 1
        assert cache.outstanding() == {("k",): 1}
        # The last reader's release drops the cache's own reference too.
        assert cache.release(("k",), "job1") is True
        assert region.state is RegionState.FREED
        assert cache.outstanding() == {}

    def test_deferred_eviction_waits_for_all_readers(self, env):
        _, mm, cache = env
        region = put(mm, cache, ("k",))
        cache.acquire(("k",), "r1")
        cache.acquire(("k",), "r2")
        cache.forget(("k",))
        assert cache.release(("k",), "r1") is False
        assert region.alive
        assert cache.release(("k",), "r2") is True
        assert region.state is RegionState.FREED

    def test_drain_reports_only_immediate_frees(self, env):
        _, mm, cache = env
        put(mm, cache, ("a",))
        put(mm, cache, ("b",))
        cache.acquire(("b",), "r1")
        assert cache.drain() == 1  # "a" freed now, "b" deferred
        assert cache.outstanding() == {("b",): 1}
        cache.release(("b",), "r1")
        assert cache.outstanding() == {}


class TestCrashes:
    def test_reader_crash_cleanup_then_release_settles(self, env):
        """A recovered reader's release is settled without double-drop."""
        _, mm, cache = env
        region = put(mm, cache, ("k",))
        cache.acquire(("k",), "job1")
        # Recovery tears down the crashed job's ownership externally.
        mm.drop_owner(region, "job1")
        assert region.alive  # the cache's reference held it
        freed = cache.release(("k",), "job1")  # bookkeeping settles
        assert freed is False
        assert region.alive
        assert cache.outstanding() == {}

    def test_owner_crash_with_readers_does_not_reclaim(self, env):
        """ISSUE edge: owner crashes while a prefix region has readers.

        Recovery drops the *cache owner's* reference; the reader's
        share must keep the region alive — recovery must not reclaim a
        region another task is actively decoding from.
        """
        _, mm, cache = env
        region = put(mm, cache, ("k",))
        cache.acquire(("k",), "decode-job")
        mm.drop_owner(region, OWNER)  # the owner's recovery path
        assert region.alive  # pinned by the reader
        assert region.ownership.is_owner("decode-job")
        # The reader's ordinary release is now the last drop.
        cache.release(("k",), "decode-job")
        assert region.state is RegionState.FREED

    def test_device_fault_kills_region_release_still_settles(self, env):
        cluster, mm, cache = env
        region = put(mm, cache, ("k",), device="dram0",
                     name="kv-victim")
        cache.acquire(("k",), "job1")
        cluster.faults.inject_now(FaultKind.MEMORY_CORRUPTION, "kv-victim")
        assert not region.alive
        # Neither release nor forget may raise after the fault.
        assert cache.release(("k",), "job1") is False
        assert cache.forget(("k",)) is False
        assert cache.outstanding() == {}


class TestPinnedBytes:
    """``pinned_bytes`` is a running total; it must equal the sum over
    every live and dying entry after each lifecycle step."""

    @staticmethod
    def brute(cache):
        return (sum(e.region.size for e in cache._entries.values())
                + sum(e.region.size for e in cache._dying.values()))

    def test_running_total_equals_brute_force_sum(self, env):
        _, mm, cache = env
        seen = []

        def check():
            seen.append(cache.pinned_bytes())
            assert cache.pinned_bytes() == self.brute(cache)

        a = put(mm, cache, ("a",), size=4096)
        put(mm, cache, ("b",), size=8192)
        put(mm, cache, ("c",), size=1000)
        check()
        cache.acquire(("a",), "r1")
        cache.acquire(("b",), "r1")
        cache.acquire(("b",), "r2")
        check()
        cache.forget(("b",))  # readers live: dying, still counted
        check()
        cache.release(("b",), "r1")
        check()
        cache.release(("b",), "r2")  # last reader: the entry leaves
        check()
        cache.forget(("c",))  # no readers: leaves at once
        check()
        mm.drop_owner(a, OWNER)  # the owner crashes while r1 reads
        check()
        put(mm, cache, ("d",), size=512)
        check()
        cache.drain()  # "a" lingers for r1; "d" leaves
        check()
        cache.release(("a",), "r1")
        check()
        assert seen == [13288, 13288, 13288, 13288, 5096, 4096, 4096,
                        4608, 4096, 0]

    def test_entry_lost_to_a_device_fault_leaves_the_total(self, env):
        cluster, mm, cache = env
        put(mm, cache, ("k",), name="kv-victim")
        cache.acquire(("k",), "job1")
        cluster.faults.inject_now(FaultKind.MEMORY_CORRUPTION, "kv-victim")
        cache.forget(("k",))
        assert cache.pinned_bytes() == self.brute(cache) == 4096
        cache.release(("k",), "job1")
        assert cache.pinned_bytes() == self.brute(cache) == 0
