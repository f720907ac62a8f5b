"""Tests: the serving engine — P/D jobs, prefix cache, leak audits."""

import pytest

from repro import connect
from repro.apps.llm import define_pd_pools
from repro.apps.llm_exec import LLMEngine
from repro.workloads import llm_request_stream


def stream(n=24, **kw):
    kw.setdefault("seed", 11)
    kw.setdefault("output_tokens", (4, 16))
    kw.setdefault("prompt_tail_tokens", (16, 64))
    return llm_request_stream(n, **kw)


@pytest.fixture
def session():
    with connect("pooled-rack", seed=11) as s:
        s.register_tenant("chat", weight=2.0, priority="interactive")
        yield s


class TestServe:
    def test_open_loop_completes_all(self, session):
        define_pd_pools(session.cluster)
        engine = LLMEngine(session)
        result = engine.serve(stream())
        assert result.completed == 24
        assert result.shed == 0
        assert result.horizon_ns > 0
        assert result.throughput_per_s() > 0
        # Phase latencies were measured for every completed request.
        assert len(result.ttft_ns()) == 24
        assert len(result.decode_ns()) == 24
        assert all(v >= 0 for v in result.stall_ns())

    def test_closed_loop_completes_all(self, session):
        engine = LLMEngine(session)
        result = engine.serve(stream(12), mode="closed", concurrency=3)
        assert result.completed == 12

    def test_prefix_cache_hits_and_drains(self, session):
        define_pd_pools(session.cluster)
        engine = LLMEngine(session)
        result = engine.serve(stream(32))
        assert result.hit_rate > 0
        assert result.prefix_hit_blocks > 0
        # Hits really shorten prefill: some request had cached tokens.
        assert any(r.cached_tokens > 0 for r in result.records)
        # Zero refcount leaks, then an explicit drain frees the blocks.
        assert result.leaked == {}
        assert engine.audit() == {}
        assert engine.shutdown() > 0
        assert engine.cache.pinned_bytes() == 0

    def test_prefix_caching_off_never_hits(self, session):
        engine = LLMEngine(session, prefix_caching=False)
        result = engine.serve(stream(8))
        assert result.hit_rate == 0.0
        assert result.prefix_hit_blocks == 0
        assert len(engine.cache) == 0

    def test_capacity_bound_evicts_lru(self, session):
        engine = LLMEngine(session, prefix_capacity_blocks=4)
        result = engine.serve(stream(32))
        assert len(engine.cache) <= 4
        assert result.evictions > 0
        assert result.leaked == {}

    def test_tenant_attribution(self, session):
        session.register_tenant("batch", weight=1.0, priority="batch")
        engine = LLMEngine(session)
        result = engine.serve(stream(
            24, batch_tenant="batch", batch_fraction=0.5))
        chat = result.tenant_records("chat")
        batch = result.tenant_records("batch")
        assert chat and batch
        assert len(chat) + len(batch) == 24

    def test_serve_validation(self, session):
        engine = LLMEngine(session)
        with pytest.raises(ValueError):
            engine.serve([])
        with pytest.raises(ValueError):
            engine.serve(stream(4), mode="sideways")
        with pytest.raises(ValueError):
            engine.serve(stream(4), mode="closed", concurrency=0)

    def test_engine_validation(self, session):
        with pytest.raises(ValueError):
            LLMEngine(session, kv_bytes_per_token=0)
        with pytest.raises(ValueError):
            LLMEngine(session, ops_per_token=0.0)


class TestSettlement:
    def test_records_finish_when_admission_does(self, session):
        define_pd_pools(session.cluster)
        result = LLMEngine(session).serve(stream())
        handles = {job.name: job for job in session.driver.stats.jobs}
        for record in result.records:
            assert record.finished_at == handles[record.request.name].finished_at

    def test_memory_utilization_covers_the_run(self, session):
        # The llm-sampler polls the rack's memory-utilization watcher,
        # so a serving run fills session.stats like a rack trace does.
        define_pd_pools(session.cluster)
        engine = session.cluster.engine
        start = engine.now
        LLMEngine(session).serve(stream())
        util = session.stats.memory_utilization
        assert util.windows()[0].index - util.dropped == util.window_index(
            start)
        assert util.newest().index == util.window_index(engine.now)
        assert 0.0 < util.mean(engine.now) < 1.0
        assert util.maximum > 0.0

    def test_no_completion_polling(self, session, monkeypatch):
        engine = session.cluster.engine
        names = []
        spawn = engine.process

        def recording_process(generator, name=""):
            names.append(name)
            return spawn(generator, name=name)

        monkeypatch.setattr(engine, "process", recording_process)
        LLMEngine(session).serve(stream(12))
        LLMEngine(session).serve(stream(12, seed=12), mode="closed",
                                 concurrency=3)
        assert names  # the arrival and sampler processes were seen
        assert not [n for n in names if n.startswith("llm-wait")]

    def test_event_count_scales_with_tasks(self, session):
        define_pd_pools(session.cluster)
        engine = session.cluster.engine
        before = engine.events_processed
        result = LLMEngine(session).serve(stream(50))
        assert result.completed == 50
        tasks = sum(
            len(job.execution.stats.tasks) for job in session.driver.stats.jobs
        )
        # A completion poll costs ~1,700 events per task on this stream;
        # event-driven settlement stays near 250.
        assert engine.events_processed - before < 400 * tasks


class TestOwnershipTransfer:
    def test_pooled_rack_handover_is_zero_copy(self, session):
        define_pd_pools(session.cluster)
        engine = LLMEngine(session, prefix_caching=False)
        result = engine.serve(stream(6))
        # Both pools address the CXL pool: the P->D handover moves
        # ownership, not bytes.
        assert result.kv_bytes_moved == 0

    def test_compute_centric_handover_moves_ownership_not_bytes(self):
        # Figure 1a: even without a shared pool, declarative placement
        # sees decode as an observer of prefill's output *before*
        # allocating it, so the KV region lands where both accelerators
        # can address it and the handover is still a pure ownership
        # move — the paper's point about planning placements around
        # transfers instead of copying after the fact.
        with connect("compute-centric", seed=11) as session:
            session.register_tenant("chat", weight=2.0,
                                    priority="interactive")
            define_pd_pools(session.cluster)
            engine = LLMEngine(session, prefix_caching=False)
            result = engine.serve(stream(6))
            transfers = session.rts.handover.stats.zero_copy
        assert result.completed == 6
        assert transfers >= 6  # one P->D move per request
        assert result.kv_bytes_moved == 0

