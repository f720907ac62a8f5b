"""Service discovery for a federation of racks.

The :class:`RackRegistry` is the federation's source of truth for *which
racks exist* and *which may take traffic*.  Racks register and
deregister dynamically (elastic join/drain); liveness is **derived from
each rack's own** :class:`~repro.runtime.health.HealthMonitor` — the
registry never probes devices itself.  A heartbeat process samples every
rack's health fraction and load on a fixed cadence (feeding the routing
stats windows), and monitor ``on_change`` callbacks refresh a rack's
state between heartbeats so a crash is visible to the router at the
instant the rack's own control plane sees it.

State ladder (per rack)::

    UP        health fraction >= degraded_below
    DEGRADED  down_below <= health fraction < degraded_below
              (still routable: capacity is reduced, not gone)
    DRAINING  being removed; no new traffic, in-flight work finishes
    DOWN      health fraction < down_below; not routable
"""

from __future__ import annotations

import dataclasses
import enum
import typing

from repro.federation.rack import Rack

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from repro.sim.engine import Engine


class RackState(enum.Enum):
    """Registry view of one rack (order matters: gauges export the index)."""

    UP = "up"
    DEGRADED = "degraded"
    DRAINING = "draining"
    DOWN = "down"


#: The ``fed.rack.state/<name>`` collector reading exports the index here.
STATE_ORDER = (
    RackState.UP, RackState.DEGRADED, RackState.DRAINING, RackState.DOWN,
)


@dataclasses.dataclass
class RegistryStats:
    registered: int = 0
    deregistered: int = 0
    transitions: int = 0
    heartbeats: int = 0
    drains_started: int = 0
    drains_completed: int = 0


class RackRegistry:
    """Rack membership + heartbeat-driven liveness for one federation."""

    def __init__(
        self,
        engine: "Engine",
        obs: "Observability",
        heartbeat_ns: float = 50_000.0,
        degraded_below: float = 0.7,
        down_below: float = 0.3,
    ):
        if heartbeat_ns <= 0:
            raise ValueError(f"heartbeat must be positive, got {heartbeat_ns}")
        if not 0.0 <= down_below <= degraded_below <= 1.0:
            raise ValueError(
                "need 0 <= down_below <= degraded_below <= 1, got "
                f"{down_below} / {degraded_below}"
            )
        self.engine = engine
        self.obs = obs
        self.heartbeat_ns = float(heartbeat_ns)
        self.degraded_below = float(degraded_below)
        self.down_below = float(down_below)
        self.stats = RegistryStats()
        self._racks: typing.Dict[str, Rack] = {}
        self._state: typing.Dict[str, RackState] = {}
        self._heartbeat_proc = None
        obs.registry.add_collector(self._collect_metrics)

    # -- membership --------------------------------------------------------

    def register(self, rack: Rack) -> Rack:
        """Add a rack to the federation; liveness tracking starts now."""
        if rack.name in self._racks:
            raise ValueError(f"duplicate rack name {rack.name!r}")
        self._racks[rack.name] = rack
        self._state[rack.name] = self._derive_state(rack)
        self.stats.registered += 1
        self.obs.counter("fed.racks_registered").inc()
        self.obs.event("federation", "register", rack=rack.name,
                       state=self._state[rack.name].value)
        # Health transitions inside the rack refresh its federation
        # state immediately — the router never routes to a rack its own
        # control plane already knows is gone.
        rack.monitor.on_change(lambda name=rack.name: self._refresh(name))
        return rack

    def deregister(self, name: str) -> Rack:
        """Remove a rack (it keeps simulating; the router forgets it)."""
        rack = self._racks.pop(name)
        self._state.pop(name)
        self.stats.deregistered += 1
        self.obs.counter("fed.racks_deregistered").inc()
        self.obs.event("federation", "deregister", rack=name)
        return rack

    def get(self, name: str) -> Rack:
        """Look up a registered rack by name (KeyError if absent)."""
        return self._racks[name]

    def __contains__(self, name: str) -> bool:
        return name in self._racks

    def racks(self) -> typing.List[Rack]:
        """All registered racks, in name order (deterministic scans)."""
        return [self._racks[name] for name in sorted(self._racks)]

    def state(self, name: str) -> RackState:
        """The registry's current view of one rack."""
        return self._state[name]

    def routable_racks(self) -> typing.List[Rack]:
        """Racks new jobs may be routed to, in name order."""
        return [
            rack for rack in self.racks()
            if self._state[rack.name] in (RackState.UP, RackState.DEGRADED)
        ]

    # -- liveness ----------------------------------------------------------

    def _derive_state(self, rack: Rack) -> RackState:
        if rack.draining:
            return RackState.DRAINING
        fraction = rack.health_fraction()
        if fraction < self.down_below:
            return RackState.DOWN
        if fraction < self.degraded_below:
            return RackState.DEGRADED
        return RackState.UP

    def _refresh(self, name: str) -> None:
        rack = self._racks.get(name)
        if rack is None:
            return  # a late health callback from a deregistered rack
        new = self._derive_state(rack)
        old = self._state[name]
        if new is old:
            return
        self._state[name] = new
        self.stats.transitions += 1
        self.obs.counter(f"fed.rack_to_{new.value}").inc()
        self.obs.event("federation", "transition", rack=name,
                       state=new.value, was=old.value,
                       health=rack.health_fraction())

    def begin_drain(self, name: str) -> None:
        """Mark a rack DRAINING: no new routes; in-flight work finishes."""
        rack = self._racks[name]
        if rack.draining:
            return
        rack.draining = True
        self.stats.drains_started += 1
        self.obs.counter("fed.rack_drains").inc()
        self._refresh(name)

    def pulse(self) -> None:
        """One heartbeat: sample every rack's load window and re-derive
        its state from its health monitor."""
        now = self.engine.now
        self.stats.heartbeats += 1
        for rack in self.racks():
            rack.sample(now)
            self._refresh(rack.name)

    def start_heartbeat(self):
        """Spawn (or return) the periodic heartbeat process.

        The process runs forever; callers driving the simulation to
        quiescence must :meth:`stop_heartbeat` once drained (the
        federated session's drive does, once every job has settled).
        """
        if self._heartbeat_proc is not None and self._heartbeat_proc.is_alive:
            return self._heartbeat_proc

        def beat():
            while True:
                self.pulse()
                yield self.engine.timeout(self.heartbeat_ns)

        self._heartbeat_proc = self.engine.process(
            beat(), name="federation:heartbeat"
        )
        return self._heartbeat_proc

    def stop_heartbeat(self) -> None:
        """Kill the heartbeat process (lets the event queue drain)."""
        if self._heartbeat_proc is not None and self._heartbeat_proc.is_alive:
            self._heartbeat_proc.kill()
        self._heartbeat_proc = None

    # -- observability -----------------------------------------------------

    def _collect_metrics(self):
        """Per-rack gauges for the federation obs snapshot."""
        for rack in self.racks():
            name = rack.name
            yield f"fed.rack.state/{name}", float(
                STATE_ORDER.index(self._state[name])
            )
            yield f"fed.rack.health/{name}", rack.health_fraction()
            yield f"fed.rack.queued/{name}", float(rack.queued)
            yield f"fed.rack.running/{name}", float(rack.running)
            yield f"fed.rack.load/{name}", rack.load()
            yield f"fed.rack.alerts/{name}", float(
                len(rack.obs.telemetry.alerts.active)
            )
