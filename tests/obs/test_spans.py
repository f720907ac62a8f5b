"""Span tracing: nesting, explicit parents, and the no-op disabled path."""

import pytest

from repro.obs import NOOP_SPAN, Observability
from repro.sim.engine import Engine
from repro.sim.trace import TraceLog


@pytest.fixture
def obs():
    return Observability(engine=Engine())


class TestSpanLifecycle:
    def test_context_manager_emits_span_complete_event(self, obs):
        with obs.span("cat", "work", items=3) as sp:
            obs.engine._now = 50.0
            sp.set(more=True)
        [event] = obs.trace.events
        assert event.is_span
        assert event.begin == 0.0
        assert event.time == 50.0
        assert event.duration == 50.0
        assert event.fields == {"items": 3, "more": True}

    def test_close_is_idempotent(self, obs):
        span = obs.begin_span("cat", "work")
        span.close()
        span.close()
        assert len(obs.trace.events) == 1

    def test_explicit_close_time(self, obs):
        span = obs.begin_span("cat", "work")
        span.close(time=123.0)
        assert obs.trace.events[0].time == 123.0

    def test_close_time_before_begin_clamps_to_zero_duration(self, obs):
        obs.engine._now = 100.0
        span = obs.begin_span("cat", "work")
        span.close(time=40.0)  # bogus earlier-than-begin close
        [event] = obs.trace.events
        assert event.begin == 100.0
        assert event.time == 100.0  # clamped, not a negative duration
        assert event.duration == 0.0

    def test_double_close_keeps_first_end_time(self, obs):
        obs.engine._now = 10.0
        span = obs.begin_span("cat", "work")
        obs.engine._now = 30.0
        span.close()
        span.close(time=5.0)  # late duplicate with a bogus time
        [event] = obs.trace.events
        assert event.time == 30.0
        assert event.duration == 20.0

    def test_exception_recorded_and_propagated(self, obs):
        with pytest.raises(RuntimeError):
            with obs.span("cat", "work"):
                raise RuntimeError("boom")
        [event] = obs.trace.events
        assert "RuntimeError" in event.fields["error"]


class TestParenting:
    def test_with_nesting_links_parent(self, obs):
        with obs.span("cat", "outer") as outer:
            with obs.span("cat", "inner"):
                pass
        inner_ev, outer_ev = obs.trace.events
        assert inner_ev.name == "inner"
        assert inner_ev.parent_id == outer.id
        assert outer_ev.parent_id == 0

    def test_explicit_parent_span(self, obs):
        root = obs.begin_span("cat", "root")
        child = obs.begin_span("cat", "child", parent=root)
        child.close()
        root.close()
        child_ev = obs.trace.events[0]
        assert child_ev.parent_id == root.id

    def test_explicit_parent_id(self, obs):
        child = obs.begin_span("cat", "child", parent=77)
        child.close()
        assert obs.trace.events[0].parent_id == 77

    def test_interleaved_exit_removes_self_not_top(self, obs):
        # Two interleaved scopes (as simulation processes produce): A
        # enters, B enters, A exits first.  A must remove itself, not B.
        a = obs.span("cat", "a")
        b = obs.span("cat", "b")
        a.__enter__()
        b.__enter__()
        a.__exit__(None, None, None)
        assert obs._stack == [b]
        with obs.span("cat", "c"):
            pass
        b.__exit__(None, None, None)
        c_ev = [e for e in obs.trace.events if e.name == "c"][0]
        assert c_ev.parent_id == b.id


class TestDisabledPath:
    def test_disabled_category_returns_shared_noop(self):
        obs = Observability(trace=TraceLog(enabled={"on"}))
        assert obs.span("off", "work") is NOOP_SPAN
        assert obs.begin_span("off", "work") is NOOP_SPAN
        assert obs.span("on", "work") is not NOOP_SPAN

    def test_noop_span_is_falsy_and_inert(self):
        assert not NOOP_SPAN
        assert NOOP_SPAN.id == 0
        NOOP_SPAN.set(anything=1)
        NOOP_SPAN.close()
        with NOOP_SPAN as sp:
            assert sp is NOOP_SPAN

    def test_real_span_is_truthy(self, obs):
        assert obs.span("cat", "work")

    def test_disabled_event_records_nothing(self):
        obs = Observability(trace=TraceLog(enabled=set()))
        obs.event("cat", "thing", n=1)
        with obs.span("cat", "work"):
            pass
        assert len(obs.trace) == 0

    def test_disable_some_while_all_on_keeps_the_rest(self):
        # Regression: disabling one category while all were on switched
        # off every category, since the complement was built from the
        # categories that had already emitted.
        obs = Observability()
        obs.disable("flow")
        assert not obs.on("flow")
        assert obs.on("job") and obs.on("never-emitted")
        obs.event("flow", "xfer")
        obs.event("job", "run")
        assert [e.category for e in obs.trace.events] == ["job"]
        obs.disable("job")
        assert not obs.on("job") and not obs.on("flow")
        assert obs.on("task")

    def test_disable_subtracts_from_an_enabled_set(self, obs):
        obs.enable("a", "b")
        obs.disable("a")
        assert obs.on("b") and not obs.on("a") and not obs.on("c")

    def test_enable_disable_roundtrip(self, obs):
        obs.disable()
        assert not obs.on("cat")
        obs.enable("cat")
        assert obs.on("cat") and not obs.on("other")
        obs.enable()
        assert obs.on("anything")


class TestObservabilityFacade:
    def test_now_follows_engine(self):
        engine = Engine()
        obs = Observability(engine=engine)
        engine._now = 42.0
        assert obs.now() == 42.0
        assert Observability().now() == 0.0

    def test_event_stamps_current_time(self, obs):
        obs.engine._now = 9.0
        obs.event("cat", "tick", n=1)
        [event] = obs.trace.events
        assert event.time == 9.0
        assert not event.is_span

    def test_span_ids_are_unique_and_increasing(self, obs):
        ids = [obs.begin_span("cat", f"s{i}").id for i in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5
