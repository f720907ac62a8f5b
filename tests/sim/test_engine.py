"""Unit tests for the discrete-event kernel (engine + events)."""

import pytest

from repro.sim import Engine, Interrupt
from repro.sim.engine import EmptySchedule


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_timeout_advances_clock():
    engine = Engine()
    engine.timeout(100.0)
    engine.run()
    assert engine.now == 100.0


def test_run_until_time_stops_exactly():
    engine = Engine()
    engine.timeout(50.0)
    engine.timeout(500.0)
    engine.run(until=100.0)
    assert engine.now == 100.0


def test_run_until_past_raises():
    engine = Engine()
    engine.timeout(10.0)
    engine.run()
    with pytest.raises(ValueError):
        engine.run(until=5.0)


def test_step_on_empty_raises():
    with pytest.raises(EmptySchedule):
        Engine().step()


def test_process_returns_value():
    engine = Engine()

    def proc():
        yield engine.timeout(10.0)
        return 42

    result = engine.run(until=engine.process(proc()))
    assert result == 42
    assert engine.now == 10.0


def test_process_sequential_timeouts_accumulate():
    engine = Engine()
    times = []

    def proc():
        for _ in range(3):
            yield engine.timeout(5.0)
            times.append(engine.now)

    engine.process(proc())
    engine.run()
    assert times == [5.0, 10.0, 15.0]


def test_process_join():
    engine = Engine()

    def child():
        yield engine.timeout(30.0)
        return "done"

    def parent():
        value = yield engine.process(child())
        return (engine.now, value)

    result = engine.run(until=engine.process(parent()))
    assert result == (30.0, "done")


def test_process_failure_propagates_to_run():
    engine = Engine()

    def proc():
        yield engine.timeout(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        engine.run(until=engine.process(proc()))


def test_process_can_catch_failed_event():
    engine = Engine()
    event = engine.event()

    def failer():
        yield engine.timeout(5.0)
        event.fail(RuntimeError("nope"))

    def waiter():
        try:
            yield event
        except RuntimeError as exc:
            return str(exc)

    engine.process(failer())
    result = engine.run(until=engine.process(waiter()))
    assert result == "nope"


def test_interrupt_wakes_waiting_process():
    engine = Engine()
    record = {}

    def sleeper():
        try:
            yield engine.timeout(1000.0)
        except Interrupt as interrupt:
            record["cause"] = interrupt.cause
            record["time"] = engine.now

    proc = engine.process(sleeper())

    def interrupter():
        yield engine.timeout(10.0)
        proc.interrupt("wake up")

    engine.process(interrupter())
    engine.run()
    assert record == {"cause": "wake up", "time": 10.0}


def test_kill_terminates_process_quietly():
    engine = Engine()
    reached_end = []

    def victim():
        yield engine.timeout(1000.0)
        reached_end.append(True)

    proc = engine.process(victim())

    def killer():
        yield engine.timeout(5.0)
        proc.kill()

    engine.process(killer())
    engine.run()
    assert not reached_end
    assert not proc.is_alive
    assert proc.ok


def test_kill_withdraws_the_private_timeout():
    engine = Engine()

    def sampler():
        while True:
            yield engine.timeout(100.0)

    proc = engine.process(sampler())
    engine.run(until=30.0)
    depth = engine.queue_depth
    proc.kill()
    # Processing the kill removes the parked timeout with the process.
    engine.run()
    assert engine.queue_depth == depth - 1 == 0
    assert engine.now == 30.0
    assert not proc.is_alive


def test_kill_keeps_a_timeout_another_process_waits_on():
    engine = Engine()
    shared = engine.timeout(100.0)
    woke = []

    def waiter(tag):
        yield shared
        woke.append((tag, engine.now))

    victim = engine.process(waiter("victim"))
    engine.process(waiter("other"))
    engine.run(until=30.0)
    victim.kill()
    engine.run()
    assert woke == [("other", 100.0)]
    assert engine.now == 100.0


def test_all_of_waits_for_all():
    engine = Engine()

    def proc():
        t1 = engine.timeout(10.0, value="a")
        t2 = engine.timeout(20.0, value="b")
        results = yield engine.all_of([t1, t2])
        return (engine.now, sorted(results.values()))

    result = engine.run(until=engine.process(proc()))
    assert result == (20.0, ["a", "b"])


def test_any_of_fires_on_first():
    engine = Engine()

    def proc():
        t1 = engine.timeout(10.0, value="fast")
        t2 = engine.timeout(20.0, value="slow")
        results = yield engine.any_of([t1, t2])
        return (engine.now, list(results.values()))

    result = engine.run(until=engine.process(proc()))
    assert result == (10.0, ["fast"])


def test_simultaneous_events_fifo_order():
    engine = Engine()
    order = []

    def proc(tag):
        yield engine.timeout(10.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        engine.process(proc(tag))
    engine.run()
    assert order == ["a", "b", "c"]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.timeout(-1.0)


def test_event_cannot_trigger_twice():
    engine = Engine()
    event = engine.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_yield_non_event_raises():
    engine = Engine()

    def bad():
        yield 42

    with pytest.raises(RuntimeError):
        engine.process(bad())
        engine.run()
