"""Every drive ends on the settle event of its last job.

``RackDriver`` trace runs, ``LLMEngine.serve`` and the federated
drive each advance the clock with one ``engine.run`` until their jobs
have settled, then one more to drain what is left after the sampler
(or heartbeat) is killed.  However long the trace, the engine is run
at most twice, and the clock stops at the last event that does work
instead of on a sampler tick.
"""

import pytest

from repro import connect
from repro.apps.llm import define_pd_pools
from repro.apps.llm_exec import LLMEngine
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.runtime.health import HealthState
from repro.workloads import llm_request_stream

MiB = 1 << 20


def pipeline(name, ops=1e4, payload=4096):
    job = Job(name)
    a = job.add_task(Task("a", work=WorkSpec(
        ops=ops, output=RegionUsage(payload))))
    b = job.add_task(Task("b", work=WorkSpec(
        ops=ops, input_usage=RegionUsage(0))))
    job.connect(a, b)
    return job


def count_runs(engine):
    """Wrap ``engine.run`` on this instance; returns the call counter."""
    calls = []
    run = engine.run

    def counted(*args, **kwargs):
        calls.append(args or kwargs)
        return run(*args, **kwargs)

    engine.run = counted
    return calls


def arrivals(n, gap_ns):
    return [
        (gap_ns * i, f"j{i}", (lambda i=i: pipeline(f"j{i}")))
        for i in range(n)
    ]


class TestRackTrace:
    @pytest.mark.parametrize("n", [5, 60])
    def test_runs_the_engine_at_most_twice(self, n):
        session = connect("pooled-rack", seed=3)
        calls = count_runs(session.cluster.engine)
        # 60 jobs span dozens of sampler ticks.
        stats = session.run_trace(arrivals(n, 50_000.0))
        assert stats.completed == n
        assert len(calls) <= 2

    def test_clock_ends_at_the_last_finish(self):
        session = connect("pooled-rack", seed=3)
        stats = session.run_trace(arrivals(5, 10_000.0))
        last = max(job.finished_at for job in stats.jobs)
        # Nothing runs in the background: the killed sampler's pending
        # tick must not carry the clock past the last job.
        assert session.cluster.engine.now == last
        assert session.cluster.engine.queue_depth == 0


class TestServe:
    @pytest.mark.parametrize("n", [4, 40])
    def test_runs_the_engine_at_most_twice(self, n):
        with connect("pooled-rack", seed=11) as session:
            session.register_tenant("chat", weight=2.0)
            define_pd_pools(session.cluster)
            llm = LLMEngine(session)
            calls = count_runs(session.cluster.engine)
            result = llm.serve(llm_request_stream(
                n, seed=11, output_tokens=(4, 16),
                prompt_tail_tokens=(16, 64),
            ))
            assert result.completed == n
            assert len(calls) <= 2

    def test_horizon_is_the_last_settle(self):
        with connect("pooled-rack", seed=11) as session:
            session.register_tenant("chat", weight=2.0)
            llm = LLMEngine(session)
            engine = session.cluster.engine
            engine.timeout(7_000.0)
            engine.run()
            start = engine.now
            result = llm.serve(llm_request_stream(
                12, seed=11, output_tokens=(4, 16),
                prompt_tail_tokens=(16, 64),
            ), mode="closed", concurrency=3)
            last = max(r.finished_at for r in result.records)
            assert result.horizon_ns == last - start


class TestFederatedTrace:
    @pytest.mark.parametrize("n", [3, 30])
    def test_runs_the_engine_at_most_twice(self, n):
        fed = connect("pooled-rack", racks=3, seed=9, max_concurrent=4)
        calls = count_runs(fed.engine)
        handles = fed.run_trace(arrivals(n, 20_000.0))
        assert len(handles) == n
        assert not fed.job_failures()
        assert len(calls) <= 2
        # The heartbeat's pending beat leaves with it.
        last = max(h.admitted.finished_at for h in handles)
        assert fed.engine.now == last

    def test_drain_waits_for_a_fetch_in_flight_toward_the_rack(self):
        fed = connect("pooled-rack", racks=2, seed=9)
        # The dataset lives on rack1; round-robin sends the first job to
        # rack0, which must fetch it across the inter-rack fabric first.
        fed.pin_dataset("ds", "rack1", nbytes=MiB)
        handle = fed.submit(pipeline("far", ops=1e5), session="ds")
        assert handle.rack == "rack0"
        assert handle.admitted is None  # still fetching
        rack0 = fed.rack("rack0")
        devices = list(rack0.cluster.memory) + list(rack0.cluster.compute)
        transitions = []

        def on_change():
            transitions.append((fed.engine.now, any(
                rack0.monitor.state(d) is HealthState.DRAINING
                for d in devices
            )))

        rack0.monitor.on_change(on_change)
        done = fed.drain_rack("rack0")
        drained_at = []

        def watch():
            yield done
            drained_at.append(fed.engine.now)

        fed.engine.process(watch())
        fed.run()
        assert done.value == "rack0"
        assert "rack0" not in fed.registry
        # The job landed on rack0 after its fetch and finished there
        # before any node of the rack started draining.
        assert handle.fetched_bytes == MiB
        assert handle.admitted in rack0.driver.stats.jobs
        assert not fed.job_failures()
        assert transitions[0] == (handle.admitted.finished_at, True)
        # The drain ends at the transition that left no member DRAINING,
        # not on a later heartbeat.
        drained = [time for time, draining in transitions if not draining]
        assert drained_at == drained[:1]
