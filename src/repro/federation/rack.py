"""One rack's full stack, packaged for the federation layer.

A :class:`Rack` bundles the pieces a single-rack deployment already has
— cluster, runtime system, QoS admission driver, health monitor — under
one name, plus the :class:`StatsWindow` of recent load samples the
router's ``least_loaded`` policy decides over.  All racks in a
federation share one :class:`~repro.sim.engine.Engine` (one simulated
clock) but keep separate fabrics, device inventories, observability
hubs, and fault streams.
"""

from __future__ import annotations

import collections
import typing

from repro.hardware.cluster import Cluster
from repro.runtime.admission import RackDriver
from repro.runtime.health import HealthMonitor
from repro.runtime.rts import RuntimeSystem


class StatsWindow:
    """A bounded sliding window of ``(time, value)`` load samples.

    Routing decisions read the *recent* load, not the lifetime mean: a
    rack that was saturated an hour ago but is idle now must look idle.
    Samples older than ``window_ns`` are evicted on read; ``maxlen``
    bounds memory regardless of sampling rate.
    """

    def __init__(self, window_ns: float = 500_000.0, maxlen: int = 128):
        if window_ns <= 0:
            raise ValueError(f"window must be positive, got {window_ns}")
        self.window_ns = float(window_ns)
        self.samples: typing.Deque[typing.Tuple[float, float]] = (
            collections.deque(maxlen=maxlen)
        )

    def observe(self, time: float, value: float) -> None:
        """Append one sample at ``time``."""
        self.samples.append((float(time), float(value)))

    def _evict(self, now: float) -> None:
        horizon = now - self.window_ns
        while self.samples and self.samples[0][0] < horizon:
            self.samples.popleft()

    def mean(self, now: float) -> float:
        """Mean of the samples still inside the window (0.0 when empty)."""
        self._evict(now)
        if not self.samples:
            return 0.0
        return sum(v for _t, v in self.samples) / len(self.samples)

    def latest(self) -> float:
        """The most recent sample's value (0.0 when empty)."""
        return self.samples[-1][1] if self.samples else 0.0

    def __len__(self) -> int:
        return len(self.samples)


class Rack:
    """One rack (cluster + RTS + admission + health) inside a federation."""

    def __init__(
        self,
        name: str,
        cluster: Cluster,
        rts: RuntimeSystem,
        driver: RackDriver,
        monitor: HealthMonitor,
        window_ns: float = 500_000.0,
    ):
        self.name = name
        self.cluster = cluster
        self.rts = rts
        self.driver = driver
        self.monitor = monitor
        self.window = StatsWindow(window_ns=window_ns)
        #: Set by the registry while the rack is being drained out.
        self.draining = False
        #: Total devices at registration time (health-fraction base).
        self._device_total = len(cluster.memory) + len(cluster.compute)

    # -- live signals ------------------------------------------------------

    @property
    def obs(self):
        return self.cluster.obs

    @property
    def queued(self) -> int:
        """Jobs waiting in this rack's admission queues."""
        return self.driver.queued_count

    @property
    def running(self) -> int:
        """Jobs admitted on this rack and not yet finished."""
        return self.driver.running_count

    @property
    def slots(self) -> int:
        return self.driver.max_concurrent

    def health_fraction(self) -> float:
        """Fraction of this rack's devices the control plane may use.

        Devices the monitor has flagged fail-slow (DEGRADED) count half:
        they still serve, but a rack full of slow devices should read as
        degraded to the federation registry so the router spills around
        it before jobs start missing deadlines there.
        """
        if not self._device_total:
            return 0.0
        healthy = len(self.monitor.up_devices())
        if hasattr(self.monitor, "degraded_devices"):
            healthy -= 0.5 * len(self.monitor.degraded_devices())
        return max(0.0, healthy) / self._device_total

    def load(self) -> float:
        """Instantaneous load: jobs in the system per admission slot."""
        return (self.queued + self.running) / max(1, self.slots)

    def sample(self, now: float) -> float:
        """Record the current load into the stats window; returns it.

        Also feeds the rack's continuous telemetry: the load level and
        a watcher poll, so federated racks get per-window series and
        burn-rate sweeps at the heartbeat cadence even without a local
        trace-driver sampler running.
        """
        load = self.load()
        self.window.observe(now, load)
        telem = self.obs.telemetry
        telem.record_level("fed.load", now, load)
        telem.poll(now)
        return load

    def load_score(self, now: float) -> float:
        """What ``least_loaded`` compares: the current load blended with
        the windowed recent mean, so one momentarily idle slot on a
        recently-slammed rack does not immediately re-attract traffic."""
        return self.sample(now) + self.window.mean(now)

    def __repr__(self) -> str:
        return (
            f"<Rack {self.name} queued={self.queued} running={self.running} "
            f"health={self.health_fraction():.0%}>"
        )
