"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot condition that processes can wait on.  It
moves through three states: *pending* (created, not yet triggered),
*triggered* (scheduled on the engine's queue with a value), and
*processed* (its callbacks ran).  Events may succeed with a value or fail
with an exception; failures propagate into the waiting generator via
``throw`` so that simulation code can use ordinary ``try/except``.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

PENDING = object()


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(Exception):
    """Raised inside a process when the engine forcefully kills it."""


class Event:
    """A one-shot condition with callbacks.

    Callbacks are callables taking the event itself; they run when the
    engine processes the triggered event.
    """

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: typing.Optional[list] = []
        self._value: object = PENDING
        self._ok: typing.Optional[bool] = None

    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise RuntimeError("event has not been triggered yet")
        return self._ok

    @property
    def value(self):
        if self._value is PENDING:
            raise RuntimeError("event has not been triggered yet")
        return self._value

    def succeed(self, value: object = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.engine.schedule(self, delay=delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.engine.schedule(self, delay=delay)
        return self

    def add_callback(self, callback) -> None:
        """Run ``callback(event)`` when this event is processed."""
        if self.callbacks is None:
            raise RuntimeError(f"{self!r} has already been processed")
        self.callbacks.append(callback)

    def remove_callback(self, callback) -> None:
        """Deregister a pending callback (no-op if absent)."""
        if self.callbacks is not None and callback in self.callbacks:
            self.callbacks.remove(callback)

    def _process(self) -> None:
        """Run all callbacks.  Called by the engine exactly once."""
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)
        if self._ok is False and not getattr(self, "_defused", False):
            # An unhandled failure would otherwise vanish silently.
            raise self._value  # type: ignore[misc]

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine will not re-raise."""
        self._defused = True

    def __repr__(self) -> str:
        state = "pending"
        if self.processed:
            state = "processed"
        elif self.triggered:
            state = "triggered"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    def __init__(self, engine: "Engine", delay: float, value: object = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(engine)
        self.delay = delay
        self._ok = True
        self._value = value
        engine.schedule(self, delay=delay)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process itself is an event that triggers when the generator
    returns (successfully, with its return value) or raises (failed).
    Other processes can therefore ``yield proc`` to join it.
    """

    def __init__(self, engine: "Engine", generator, name: str = ""):
        super().__init__(engine)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._target: typing.Optional[Event] = None
        # Kick off the process at the current simulation time.
        initial = Event(engine)
        initial._ok = True
        initial._value = None
        initial.add_callback(self._resume)
        engine.schedule(initial)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    @property
    def target(self) -> typing.Optional[Event]:
        """The event this process is currently waiting on, if any."""
        return self._target

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return
        trigger = Event(self.engine)
        trigger._ok = False
        trigger._value = Interrupt(cause)
        trigger._defused = True
        trigger.add_callback(self._resume)
        self.engine.schedule(trigger, priority=-1)

    def kill(self) -> None:
        """Terminate the process, raising :class:`ProcessKilled` inside
        it; a timeout only it waits on leaves the queue with it."""
        if not self.is_alive:
            return
        trigger = Event(self.engine)
        trigger._ok = False
        trigger._value = ProcessKilled()
        trigger._defused = True
        trigger.add_callback(self._resume)
        self.engine.schedule(trigger, priority=-1)

    def _resume(self, trigger: Event) -> None:
        if not self.is_alive:
            return
        # Detach from the event we were waiting on (interrupt path).
        target = self._target
        if target is not None and target is not trigger:
            target.remove_callback(self._resume)
        self._target = None

        self.engine._active_process = self
        try:
            while True:
                if trigger._ok:
                    try:
                        yielded = self._generator.send(trigger._value)
                    except StopIteration as stop:
                        self._finish(True, stop.value)
                        return
                else:
                    trigger.defuse()
                    try:
                        yielded = self._generator.throw(trigger._value)
                    except StopIteration as stop:
                        self._finish(True, stop.value)
                        return
                    except BaseException as exc:
                        if isinstance(trigger._value, ProcessKilled) and isinstance(
                            exc, ProcessKilled
                        ):
                            self._finish(True, None)
                            if isinstance(target, Timeout) and not target.callbacks:
                                self.engine.unschedule(target)
                            return
                        self._finish(False, exc)
                        return

                if not isinstance(yielded, Event):
                    error = RuntimeError(
                        f"process {self.name!r} yielded non-event {yielded!r}"
                    )
                    self._generator.throw(error)
                    raise error
                if yielded.callbacks is None:
                    # Already fully processed: resume immediately in-loop.
                    trigger = yielded
                    continue
                yielded.add_callback(self._resume)
                self._target = yielded
                return
        except StopIteration as stop:  # raised by generator cleanup paths
            self._finish(True, stop.value)
        except BaseException as exc:
            if isinstance(exc, RuntimeError):
                raise
            self._finish(False, exc)
        finally:
            self.engine._active_process = None

    def _finish(self, ok: bool, value) -> None:
        self.engine._active_process = None
        if ok:
            self.succeed(value)
        else:
            self.fail(value)

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    def __init__(self, engine: "Engine", events: typing.Sequence[Event]):
        super().__init__(engine)
        self.events = list(events)
        for event in self.events:
            if event.engine is not engine:
                raise ValueError("all events must belong to the same engine")
        self._done = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for event in self.events:
            if event.processed:
                self._check(event)
            else:
                event.add_callback(self._check)

    def _collect(self) -> dict:
        return {
            i: event._value
            for i, event in enumerate(self.events)
            if event.processed and event._ok
        }

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when all child events have triggered (fails on first failure)."""

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers when the first child event triggers."""

    def _check(self, event: Event) -> None:
        if self.triggered:
            # A loser of the race failing after the condition already
            # triggered was abandoned by the waiter; defuse it so the
            # engine does not re-raise on behalf of nobody.
            if not event._ok:
                event.defuse()
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self.succeed(self._collect())
