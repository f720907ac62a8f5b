"""Host seconds at a steady nominal machine speed.

The benchmark runs on shared machines whose speed drifts -- by up to 2x,
for seconds to minutes -- as other work lands on the same cores.  CPU
time does not remove that (it tracks wall time within about 10%: the
cores run slower, the process is rarely off them), so raw wall
time moves with the neighbours, not only with the program.

A ``Pacer`` samples the speed while it runs: every ``PERIOD_S`` a timer
signal runs ``kernel()``, a fixed pure-Python discrete-event loop that
shares no code with ``repro``, and times it.  The paced seconds of a
set of spans are their wall seconds, less the time the samples took,
scaled by the speed-up ``NOMINAL_S`` over the median time of the
samples taken within them, raised to ``SENSITIVITY``.  Pooling the
spans of a whole run into one figure keeps the sampling noise of any
one span out of it.  The result is host time as a machine running the
kernel in ``NOMINAL_S`` would have spent it; a change to ``repro``
moves it, the neighbours mostly do not.  Simulated behaviour is
untouched: the kernel reads and writes nothing of the program.
"""

from __future__ import annotations

import heapq
import itertools
import signal
import statistics
import time
import typing

#: Seconds between speed samples.
PERIOD_S = 0.05
#: Seconds ``kernel()`` takes at the nominal speed; a fixed scale, close
#: to its time when sampled amid a workload on an idle 2-vCPU x86-64 VM.
NOMINAL_S = 0.001
#: How strongly host time follows the kernel's speed: it scales with
#: the kernel's speed-up to this power.  The kernel runs from the core's
#: caches, while the workloads also wait on memory, which speeds up and
#: slows down less with the core.  Fitted on three sets of ten seeds per
#: workload (2-vCPU x86-64 VM): at 0.75 no set's spread between seeds
#: (quartile distance over median) passed 0.064, at 1 and at 0.5 the
#: worst were 0.14 and 0.13.
SENSITIVITY = 0.75


def _steps(size: int, stats: dict):
    for step in range(8):
        delay = float((size * (step + 1)) % 97 + 1)
        yield delay
        stats[size % 13] = stats.get(size % 13, 0.0) + delay


def kernel(n: int = 100) -> float:
    """A fixed amount of interpreter work shaped like an event loop:
    generator processes, a heap of timed wake-ups, dict counters."""
    seq, heap, stats, now = itertools.count(), [], {}, 0.0
    for i in range(n):
        heapq.heappush(heap, (float(i % 50), next(seq),
                              _steps((i * 7919) % 1009, stats)))
    while heap:
        now, _, process = heapq.heappop(heap)
        for delay in process:
            heapq.heappush(heap, (now + delay, next(seq), process))
            break
    return now


class Pacer:
    """Samples the machine's speed from a timer signal while active."""

    def __init__(self):
        #: Seconds each sample took, and all of them together.
        self.samples: typing.List[float] = []
        self.spent = 0.0
        self._previous = None
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:      # the timer fired inside a mark's sample
            return
        self._busy = True
        started = time.perf_counter()
        kernel()
        took = time.perf_counter() - started
        self.spent += took
        self.samples.append(took)
        self._busy = False

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple:
        """A span boundary; takes a sample first, so every span has one."""
        self.sample()
        return time.perf_counter(), len(self.samples) - 1, self.spent

    def seconds(self, *spans: typing.Tuple[tuple, tuple]) -> float:
        """Paced seconds of the ``(start mark, end mark)`` spans together."""
        inside, taken = 0.0, []
        for (t0, i0, spent0), (t1, i1, spent1) in spans:
            inside += (t1 - t0) - (spent1 - spent0)
            # Samples i0 .. i1: the marks' own and those taken between.
            taken += self.samples[i0:i1 + 1]
        return inside * (NOMINAL_S / statistics.median(taken)) ** SENSITIVITY
