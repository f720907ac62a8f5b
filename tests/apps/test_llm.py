"""Tests: the LLM request job, the P/D pools, and the prefix trie."""

import pytest

from repro.apps.llm import (
    DECODE_POOL,
    PREFILL_POOL,
    PrefixTrie,
    build_request_job,
    define_pd_pools,
)
from repro.hardware import Cluster
from repro.hardware.spec import ComputeKind
from repro.api import connect


class TestRequestJob:
    def test_two_phase_dataflow(self):
        job = build_request_job(256, 64)
        assert set(job.tasks) == {"prefill", "decode"}
        prefill, decode = job.tasks["prefill"], job.tasks["decode"]
        # The KV cache is prefill's output region; its ownership
        # transfers to decode through the ordinary handover.
        assert prefill.work.output.size == 256 * 2048
        assert decode.name in {t.name for t in prefill.downstream()}
        assert prefill.properties.device_pool == PREFILL_POOL
        assert decode.properties.device_pool == DECODE_POOL
        assert decode.properties.streaming

    def test_colocated_job_has_no_pool_roles(self):
        job = build_request_job(64, 8, disaggregate=False)
        assert job.tasks["prefill"].properties.device_pool is None
        assert job.tasks["decode"].properties.device_pool is None

    def test_cached_prefix_shrinks_prefill_not_decode_reads(self):
        cold = build_request_job(256, 16)
        warm = build_request_job(256, 16, cached_prefix_tokens=192)
        # Prefill computes (and emits KV for) only the uncached suffix.
        assert warm.tasks["prefill"].work.ops \
            == cold.tasks["prefill"].work.ops / 4
        assert warm.tasks["prefill"].work.output.size \
            == cold.tasks["prefill"].work.output.size / 4
        # Decode still reads the *full* KV working set per token.
        read = lambda job: (job.tasks["decode"].work.input_usage.touches
                            * job.tasks["prefill"].work.output.size)
        assert read(warm) == read(cold)

    def test_full_hit_still_seeds_decode(self):
        job = build_request_job(64, 8, cached_prefix_tokens=64)
        assert job.tasks["prefill"].work.ops > 0
        assert job.tasks["prefill"].work.output.size > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_request_job(0, 8)
        with pytest.raises(ValueError):
            build_request_job(8, 0)
        with pytest.raises(ValueError):
            build_request_job(8, 8, cached_prefix_tokens=9)
        with pytest.raises(ValueError):
            build_request_job(8, 8, cached_prefix_tokens=-1)


class TestPdPools:
    def test_split_halves_accelerators(self):
        cluster = Cluster.preset("pooled-rack")
        prefill, decode = define_pd_pools(cluster)
        assert prefill == ("gpu1",) and decode == ("gpu2",)
        assert cluster.device_pools[PREFILL_POOL] == ("gpu1",)
        assert cluster.device_pools[DECODE_POOL] == ("gpu2",)

    def test_needs_two_devices(self):
        cluster = Cluster.preset("pooled-rack")
        with pytest.raises(ValueError):
            define_pd_pools(cluster, kind=ComputeKind.FPGA)

    def test_phases_land_in_their_pools(self):
        cluster = Cluster.preset("pooled-rack", seed=3)
        define_pd_pools(cluster)
        stats = connect(cluster=cluster).run(build_request_job(128, 8))
        assert stats.ok
        assert stats.assignment["prefill"] == "gpu1"
        assert stats.assignment["decode"] == "gpu2"

    def test_undefined_pools_do_not_constrain(self):
        # Pool-annotated jobs still run on clusters without the split.
        cluster = Cluster.preset("pooled-rack", seed=3)
        stats = connect(cluster=cluster).run(build_request_job(128, 8))
        assert stats.ok


class TestPrefixTrie:
    def test_longest_cached_stops_at_first_gap(self):
        trie = PrefixTrie()
        trie.insert(("a",))
        trie.insert(("a", "b"))
        trie.insert(("a", "b", "c", "d"))  # "c" itself not cached
        assert trie.longest_cached(("a", "b", "c", "d")) == 2
        trie.insert(("a", "b", "c"))
        assert trie.longest_cached(("a", "b", "c", "d")) == 4
        assert trie.longest_cached(("x",)) == 0
        assert len(trie) == 4

    def test_remove_is_idempotent(self):
        trie = PrefixTrie()
        trie.insert(("a", "b"))
        trie.remove(("a", "b"))
        trie.remove(("a", "b"))
        trie.remove(("never", "there"))
        assert len(trie) == 0
        assert trie.longest_cached(("a", "b")) == 0

    def test_remove_inner_node_truncates_hits(self):
        trie = PrefixTrie()
        for depth in range(1, 4):
            trie.insert(tuple("abc"[:depth]))
        trie.remove(("a",))
        assert trie.longest_cached(("a", "b", "c")) == 0

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            PrefixTrie().insert(())
