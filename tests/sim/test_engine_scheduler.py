"""Ordering suite for the engine's event queue.

The engine keeps one binary heap ordered by ``(time, priority,
sequence)`` (DESIGN.md §5.2).  Every test here pins the processing
order against ``sorted()`` of the entries pushed: either all entries
are pushed up front and the drain must equal their sorted order, or a
recording engine checks at every pop that the processed entry is the
smallest of the entries still pending.  The scenarios are the spots an
event queue gets wrong: timestamp ties broken by priority/sequence,
zero-delay self-reschedules, bursts at one instant, far-future jumps,
``run(until=...)`` horizon breaks followed by earlier scheduling,
URGENT entries at infinity, and seeded random interleavings of all of
the above.
"""

import random

import pytest

from repro.sim import Engine
from repro.sim.engine import NORMAL, URGENT
from repro.sim.events import Event

INF = float("inf")


class _RecordingEngine(Engine):
    """Engine that checks each processed entry against ``sorted()`` of
    the entries pending at that moment, and keeps the processing trace."""

    def __init__(self):
        super().__init__()
        self._pending = {}
        self._keys = 0
        self.processed = []

    def schedule(self, event, delay=0.0, priority=NORMAL):
        super().schedule(event, delay=delay, priority=priority)
        key = (self.now + delay, priority, self._keys)
        self._keys += 1
        self._pending[key] = event
        event.callbacks.insert(0, lambda _ev, key=key: self._popped(key))

    def _popped(self, key):
        assert key == sorted(self._pending)[0]
        del self._pending[key]
        self.processed.append(key)


def _ready_event(engine, tag, trace):
    event = Event(engine)
    event._ok = True
    event._value = None
    event.callbacks.append(lambda _ev: trace.append(tag))
    return event


def _push_all(engine, entries):
    """Schedule one event per ``(time, priority, tag)`` entry at t=0;
    return the trace their callbacks append their tags to."""
    trace = []
    for t, priority, tag in entries:
        engine.schedule(_ready_event(engine, tag, trace), delay=t,
                        priority=priority)
    return trace


def _expected_tags(entries):
    """Tags in ``sorted()`` order of the pushed (time, priority, seq)."""
    keyed = [(t, p, seq, tag) for seq, (t, p, tag) in enumerate(entries)]
    return [tag for *_key, tag in sorted(keyed)]


def _run_recorded(build):
    engine = _RecordingEngine()
    trace = []
    build(engine, trace)
    engine.run()
    assert not engine._pending
    return trace


# -- queue-level ordering ------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 23, 99])
def test_push_pop_total_order_matches_heap(seed):
    """Random (time, priority) entries drain in sorted() order."""
    rng = random.Random(seed)
    entries = []
    for tag in range(500):
        t = float(rng.choice([0, 1, 5, 10, 10, 1000, 10**6, 10**9]))
        t += rng.random() * rng.choice([0.0, 1.0, 1e3])
        entries.append((t, rng.choice([URGENT, NORMAL, 3]), tag))
    engine = Engine()
    trace = _push_all(engine, entries)
    engine.run()
    assert trace == _expected_tags(entries)


@pytest.mark.parametrize("seed", [3, 17, 42])
def test_interleaved_push_pop_matches_heap(seed):
    """Steps interleaved with monotone pushes: each step processes the
    smallest pending entry and ``peek()`` always reports its time."""
    rng = random.Random(seed)
    engine = _RecordingEngine()
    for _ in range(2000):
        if engine.queue_depth == 0 or rng.random() < 0.55:
            engine.schedule(
                _ready_event(engine, None, []),
                delay=float(rng.randrange(0, 10**6)),
                priority=rng.choice([URGENT, NORMAL]),
            )
        else:
            assert engine.peek() == sorted(engine._pending)[0][0]
            engine.step()
    assert engine.processed == sorted(engine.processed)


def test_same_timestamp_burst_drains_in_seq_order():
    """20k entries at one instant drain in schedule order."""
    entries = [(0.0, NORMAL, i) for i in range(20000)]
    engine = Engine()
    trace = _push_all(engine, entries)
    engine.run()
    assert trace == _expected_tags(entries) == list(range(20000))


def test_sparse_far_future_jump():
    """A 1e15 ns gap between two clusters of entries loses nothing."""
    entries = [(float(i), NORMAL, i) for i in range(50)]
    entries += [(1e15 + i, NORMAL, 50 + i) for i in range(50)]
    engine = Engine()
    trace = _push_all(engine, list(reversed(entries)))
    engine.run()
    assert trace == _expected_tags(list(reversed(entries))) == list(range(100))
    assert engine.now == 1e15 + 49


def test_infinity_entries_park_and_drain_last():
    """Entries at t=inf drain after every finite one, URGENT first."""
    entries = [(INF, NORMAL, 0), (5.0, NORMAL, 1), (INF, URGENT, 2)]
    engine = Engine()
    trace = _push_all(engine, entries)
    assert engine.peek() == 5.0
    engine.run()
    assert trace == _expected_tags(entries) == [1, 2, 0]


def test_infinity_push_refreshes_cached_min():
    """An URGENT inf entry pushed after a peek saw a NORMAL inf entry
    becomes the next one processed: peeking has no side effect."""
    engine = Engine()
    trace = []
    engine.schedule(_ready_event(engine, 0, trace), delay=INF)
    assert engine.peek() == INF
    engine.schedule(_ready_event(engine, 1, trace), delay=INF,
                    priority=URGENT)
    assert engine.peek() == INF
    engine.run()
    assert trace == [1, 0]


def test_push_below_parked_cursor_is_not_skipped():
    """Peek at a far-future entry without processing it, then push
    earlier entries: all of them fire before it, in time order."""
    engine = Engine()
    trace = []
    engine.schedule(_ready_event(engine, "far", trace), delay=1000.5)
    assert engine.peek() == 1000.5
    engine.schedule(_ready_event(engine, "a1", trace), delay=160.0)
    engine.schedule(_ready_event(engine, "a2", trace), delay=161.0)
    engine.run()
    assert trace == ["a1", "a2", "far"]


# -- engine-level ordering -----------------------------------------------


def test_engine_rejects_unknown_scheduler():
    """The heap is the only queue; there is no backend option."""
    with pytest.raises(TypeError):
        Engine(scheduler="heap")


def test_peek_and_queue_depth_track_schedule():
    engine = Engine()
    assert engine.peek() == INF
    assert engine.queue_depth == 0
    engine.timeout(30.0)
    engine.timeout(10.0)
    engine.timeout(20.0)
    assert engine.queue_depth == 3
    assert engine.peek() == 10.0
    engine.step()
    assert engine.now == 10.0
    assert engine.peek() == 20.0
    assert engine.queue_depth == 2


def test_tie_order_priority_then_sequence():
    """Same-instant events: URGENT first, then schedule order."""
    entries = [(50.0, URGENT if tag == "b" else NORMAL, tag) for tag in "abc"]
    engine = Engine()
    trace = _push_all(engine, entries)
    engine.run()
    assert trace == _expected_tags(entries) == ["b", "a", "c"]


def test_zero_delay_self_reschedule_runs_same_instant():
    """yield timeout(0) re-enters the queue at now and runs before later
    events."""

    def build(engine, trace):
        def bouncer():
            for i in range(5):
                trace.append(("bounce", i, engine.now))
                yield engine.timeout(0.0)

        def later():
            yield engine.timeout(1.0)
            trace.append(("later", engine.now))

        engine.process(bouncer())
        engine.process(later())

    trace = _run_recorded(build)
    assert trace[:5] == [("bounce", i, 0.0) for i in range(5)]
    assert trace[-1] == ("later", 1.0)


@pytest.mark.parametrize("seed", [11, 29, 61])
def test_random_interleaving_traces_identical(seed):
    """Seeded random process soup (timer churn, ties, zero delays,
    urgent pings, far jumps): every processed entry is the smallest
    pending one, and a second run reproduces the trace exactly."""

    def build(engine, trace):
        rng = random.Random(seed)

        def worker(wid):
            for r in range(rng.randrange(3, 12)):
                delay = float(rng.choice([0, 0, 1, 7, 100, 10**4, 10**7]))
                yield engine.timeout(delay)
                trace.append((engine.now, wid, r))
                if rng.random() < 0.2:
                    event = Event(engine)
                    event._ok = True
                    event._value = None
                    engine.schedule(event, delay=0.0, priority=URGENT)

        for wid in range(40):
            engine.process(worker(wid))

    trace = _run_recorded(build)
    assert trace == sorted(trace, key=lambda hit: hit[0])
    assert _run_recorded(build) == trace


def test_schedule_after_horizon_break_preserves_order():
    """run(until=...) breaks on a peek beyond the horizon without
    processing; work scheduled afterwards at earlier (legal, t >= now)
    times must still fire first, with a monotone clock."""
    engine = _RecordingEngine()
    trace = []
    far = engine.timeout(1000.5)
    far.callbacks.append(lambda ev: trace.append(engine.now))
    engine.run(until=100.0)
    assert engine.now == 100.0
    for delay in (60.0, 61.0):  # fires at t=160, t=161
        tmo = engine.timeout(delay)
        tmo.callbacks.append(lambda ev: trace.append(engine.now))
    engine.run()
    assert trace == [160.0, 161.0, 1000.5]


@pytest.mark.parametrize("seed", [5, 13, 37])
def test_random_horizon_breaks_with_late_scheduling(seed):
    """Interleave run(until=horizon) breaks with scheduling work that
    lands before the queue's current next event: every processed entry
    is the smallest pending one and the clock is monotone."""
    rng = random.Random(seed)
    engine = _RecordingEngine()
    trace = []

    def note(ev):
        trace.append(engine.now)

    # Seed a sparse far-future backbone so peeks overshoot horizons.
    for i in range(10):
        tmo = engine.timeout(float(10**4 * (i + 1)) + 0.5)
        tmo.callbacks.append(note)
    for _ in range(200):
        horizon = engine.now + float(rng.randrange(1, 5000))
        engine.run(until=horizon)
        assert engine.now == horizon
        for _ in range(rng.randrange(0, 4)):
            tmo = engine.timeout(float(rng.randrange(0, 3000)))
            tmo.callbacks.append(note)
    engine.run()
    assert trace == sorted(trace)
    assert len(trace) == len(engine.processed)
    assert not engine._pending


def test_run_until_horizon_equivalent():
    engine = Engine()
    hits = []

    def proc():
        while True:
            yield engine.timeout(10.0)
            hits.append(engine.now)

    engine.process(proc())
    engine.run(until=55.0)
    assert hits == [10.0, 20.0, 30.0, 40.0, 50.0]
    assert engine.now == 55.0
