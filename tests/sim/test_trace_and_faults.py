"""Tests for tracing and the fault injector."""

import pytest

from repro.sim import Engine, FaultInjector, FaultKind, TraceLog
from repro.sim.rand import RandomStreams


class TestTraceLog:
    def test_emit_and_query(self):
        log = TraceLog()
        log.emit(1.0, "memory", "allocate", region="r1")
        log.emit(2.0, "memory", "free", region="r1")
        log.emit(3.0, "scheduler", "assign", task="t")
        assert len(log) == 3
        assert len(log.by_category("memory")) == 2
        assert len(log.by_name("allocate")) == 1
        assert log.by_name("allocate")[0].fields["region"] == "r1"

    def test_category_filter_drops_at_emission(self):
        log = TraceLog(enabled={"memory"})
        log.emit(1.0, "memory", "allocate")
        log.emit(2.0, "scheduler", "assign")
        assert len(log) == 1

    def test_clear_and_iterate(self):
        log = TraceLog()
        log.emit(1.0, "x", "y")
        assert list(log)
        log.clear()
        assert len(log) == 0

    def test_event_renders_readably(self):
        log = TraceLog()
        log.emit(1500.0, "memory", "allocate", region="r", size=64)
        text = str(log.events[0])
        assert "memory" in text and "allocate" in text and "size=64" in text


class TestRandomStreams:
    def test_streams_are_independent_and_deterministic(self):
        a = RandomStreams(42)
        b = RandomStreams(42)
        assert a.stream("x").integers(0, 1000, 5).tolist() == \
            b.stream("x").integers(0, 1000, 5).tolist()
        assert a.stream("y").integers(0, 1000, 5).tolist() != \
            b.stream("x").integers(0, 1000, 5).tolist()

    def test_reset_rederives_identically(self):
        streams = RandomStreams(7)
        first = streams.stream("s").integers(0, 1000, 5).tolist()
        streams.reset()
        assert streams.stream("s").integers(0, 1000, 5).tolist() == first


class TestFaultInjector:
    def test_handlers_dispatch_by_kind(self):
        engine = Engine()
        injector = FaultInjector(engine)
        seen = []
        injector.on(FaultKind.NODE_CRASH, lambda f: seen.append(f.target))
        injector.inject_now(FaultKind.NODE_CRASH, "n1")
        injector.inject_now(FaultKind.LINK_DOWN, "l1")  # no handler: ignored
        assert seen == ["n1"]
        assert len(injector.history) == 2

    def test_inject_at_schedules_in_future(self):
        engine = Engine()
        injector = FaultInjector(engine)
        times = []
        injector.on(FaultKind.NODE_CRASH,
                    lambda f: times.append(engine.now))
        injector.inject_at(100.0, FaultKind.NODE_CRASH, "n1")
        with pytest.raises(ValueError):
            injector.inject_at(-1.0, FaultKind.NODE_CRASH, "n1")
        engine.run()
        assert times == [100.0]

    def test_poisson_schedule_is_deterministic_and_bounded(self):
        def run_once():
            engine = Engine()
            injector = FaultInjector(engine, RandomStreams(3))
            times = []
            injector.on(FaultKind.NODE_CRASH,
                        lambda f: times.append((engine.now, f.target)))
            n = injector.schedule_poisson(
                FaultKind.NODE_CRASH, ["a", "b"],
                rate_per_ns=1e-3, horizon=10_000.0,
            )
            engine.run()
            return n, times

        n1, times1 = run_once()
        n2, times2 = run_once()
        assert n1 == n2 and times1 == times2
        assert n1 == len(times1)
        assert all(t < 10_000.0 for t, _target in times1)
        assert n1 == pytest.approx(10, abs=8)  # ~rate * horizon

    def test_node_reboot_is_a_distinct_kind(self):
        """NODE_RESTART is the *request*, NODE_REBOOT the power-cycle
        instant a drain (or immediate repair) resolves it into."""
        assert FaultKind.NODE_REBOOT is not FaultKind.NODE_RESTART
        assert FaultKind.NODE_REBOOT.value == "node_reboot"

    def test_handlers_run_in_registration_order(self):
        # The recovery stack depends on this: the cluster fails devices
        # first, the memory manager marks regions lost second, and the
        # health monitor (registered last) observes the final state.
        engine = Engine()
        injector = FaultInjector(engine)
        order = []
        injector.on(FaultKind.NODE_CRASH, lambda f: order.append("cluster"))
        injector.on(FaultKind.NODE_CRASH, lambda f: order.append("memory"))
        injector.on(FaultKind.NODE_CRASH, lambda f: order.append("health"))
        injector.inject_now(FaultKind.NODE_CRASH, "n1")
        assert order == ["cluster", "memory", "health"]

    def test_detail_fields_reach_handlers_and_history(self):
        engine = Engine()
        injector = FaultInjector(engine)
        seen = []
        injector.on(FaultKind.MEMORY_CORRUPTION,
                    lambda f: seen.append(f.detail))
        injector.inject_now(FaultKind.MEMORY_CORRUPTION, "region-x", bits=3)
        assert seen == [{"bits": 3}]
        assert injector.history[-1].detail == {"bits": 3}

    def test_poisson_validation(self):
        injector = FaultInjector(Engine())
        with pytest.raises(ValueError):
            injector.schedule_poisson(FaultKind.NODE_CRASH, ["a"],
                                      rate_per_ns=0.0, horizon=1.0)
        with pytest.raises(ValueError):
            injector.schedule_poisson(FaultKind.NODE_CRASH, [],
                                      rate_per_ns=1.0, horizon=1.0)
