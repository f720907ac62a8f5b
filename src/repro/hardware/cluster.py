"""The Cluster: devices + fabric + simulation engine in one handle.

A :class:`Cluster` is the substrate everything above runs on.  It owns
the discrete-event :class:`~repro.sim.engine.Engine`, the flow network
that moves bytes, the topology, and the device inventories, and it
groups devices into *nodes* so that fault injection can take out a whole
failure domain at once (paper §3, Challenge 8).
"""

from __future__ import annotations

import typing

from repro.hardware import calibration
from repro.hardware.compute import ComputeDevice
from repro.hardware.devices import MemoryDevice
from repro.hardware.interconnect import Topology
from repro.hardware.spec import (
    ComputeDeviceSpec,
    LinkKind,
    LinkSpec,
    MemoryDeviceSpec,
    MemoryKind,
)
from repro.obs import Observability
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.faults import FaultEvent, FaultInjector, FaultKind
from repro.sim.flows import FlowNetwork, Link
from repro.sim.rand import RandomStreams
from repro.sim.trace import TraceLog


class Cluster:
    """A simulated rack of disaggregated compute and memory."""

    def __init__(
        self,
        seed: int = 0,
        trace_categories: typing.Optional[typing.Iterable[str]] = None,
        engine: typing.Optional[Engine] = None,
    ):
        #: Passing an existing ``engine`` composes several clusters onto
        #: one simulated clock — how :mod:`repro.federation` builds a
        #: datacenter of racks that share a timeline but keep separate
        #: fabrics, device inventories, and fault streams.
        self.engine = engine if engine is not None else Engine()
        self.streams = RandomStreams(seed)
        self.trace = TraceLog(enabled=trace_categories)
        self.obs = Observability(trace=self.trace, engine=self.engine)
        self.obs.registry.add_collector(self._collect_hardware_metrics)
        self.flownet = FlowNetwork(self.engine, trace=self.trace)
        # Default hub watchers: per-window event/traffic rates and queue
        # depth, folded on every telemetry poll (admission sampler,
        # federation heartbeat, or an explicit hub.pump process).
        telem = self.obs.telemetry
        telem.watch("engine.events", lambda: self.engine.events_processed,
                    kind="rate")
        telem.watch("engine.queue_depth", lambda: self.engine.queue_depth,
                    kind="level")
        telem.watch("flow.bytes", lambda: self.flownet.bytes_completed,
                    kind="rate")
        telem.watch("flow.transfers",
                    lambda: self.flownet.completed_transfers, kind="rate")
        telem.watch("util.compute", self._compute_busy_total, kind="rate")
        self.topology = Topology()
        self.memory: typing.Dict[str, MemoryDevice] = {}
        self.compute: typing.Dict[str, ComputeDevice] = {}
        #: node name -> set of device names in that failure domain
        self.nodes: typing.Dict[str, set] = {}
        self.faults = FaultInjector(self.engine, self.streams, self.trace)
        self.faults.on(FaultKind.NODE_CRASH, self._on_node_crash)
        self.faults.on(FaultKind.NODE_RESTART, self._on_node_restart)
        self.faults.on(FaultKind.NODE_REBOOT, self._on_node_reboot)
        self.faults.on(FaultKind.LINK_DOWN, self._on_link_down)
        self.faults.on(FaultKind.LINK_UP, self._on_link_up)
        self.faults.on(FaultKind.LINK_DEGRADED, self._on_link_degraded)
        self.faults.on(FaultKind.LINK_RESTORED, self._on_link_restored)
        self.faults.on(FaultKind.DEVICE_SLOW, self._on_device_slow)
        self.faults.on(FaultKind.DEVICE_RESTORED, self._on_device_restored)
        #: Optional :class:`repro.runtime.health.HealthMonitor`; when
        #: attached it owns restart draining and health-aware filtering.
        self.health_monitor = None
        #: Named compute pools (:meth:`define_pool`): a task whose
        #: properties carry ``device_pool=<name>`` may only be scheduled
        #: on the pool's members.  How disaggregated phases (e.g. LLM
        #: prefill vs decode) keep paired tasks on *different* devices
        #: without ever naming a device in the job itself.
        self.device_pools: typing.Dict[str, typing.Tuple[str, ...]] = {}
        #: The cluster's :class:`repro.memory.coherence.CoherenceModel`,
        #: created on first use by ``CoherenceModel.for_cluster``.
        self.coherence = None

    # -- construction ------------------------------------------------------

    def add_memory(
        self, spec: MemoryDeviceSpec, node: typing.Optional[str] = None
    ) -> MemoryDevice:
        """Register a memory device (optionally in a failure domain)."""
        if spec.name in self.memory or spec.name in self.compute:
            raise ValueError(f"duplicate device name {spec.name!r}")
        device = MemoryDevice(spec)
        self.memory[spec.name] = device
        self.topology.add_node(spec.name, role="memory")
        self._register_node_member(node, spec.name)
        return device

    def add_compute(
        self, spec: ComputeDeviceSpec, node: typing.Optional[str] = None
    ) -> ComputeDevice:
        """Register a compute device (optionally in a failure domain)."""
        if spec.name in self.memory or spec.name in self.compute:
            raise ValueError(f"duplicate device name {spec.name!r}")
        device = ComputeDevice(spec, self.engine)
        # The device's busy slots are the hub's occupancy series: one
        # level signal, recorded once, exported with the telemetry.
        device.busy_slots = self.obs.telemetry.series(
            device.busy_slots.name, "level"
        )
        self.compute[spec.name] = device
        self.topology.add_node(spec.name, role="compute")
        self._register_node_member(node, spec.name)
        return device

    def define_pool(self, name: str, devices: typing.Iterable[str]) -> None:
        """Name a compute pool for ``TaskProperties(device_pool=...)``.

        ``devices`` must be registered compute devices.  Re-defining a
        pool replaces its membership.  Pools partition *scheduling*, not
        hardware: the same device may belong to several pools.
        """
        members = tuple(dict.fromkeys(devices))
        if not members:
            raise ValueError(f"pool {name!r} needs at least one device")
        for device in members:
            if device not in self.compute:
                raise KeyError(
                    f"pool {name!r} names unknown compute device {device!r}"
                )
        self.device_pools[name] = members

    def add_switch(self, name: str, node: typing.Optional[str] = None) -> None:
        """Register a fabric switch vertex in the topology."""
        self.topology.add_node(name, role="switch")
        self._register_node_member(node, name)

    def connect(
        self,
        a: str,
        b: str,
        kind: LinkKind,
        spec: typing.Optional[LinkSpec] = None,
    ) -> Link:
        """Connect two topology nodes with a calibrated link of ``kind``
        (or an explicit ``spec`` overriding the calibration)."""
        if spec is None:
            spec = calibration.make_link(f"{a}--{b}", kind)
        return self.topology.connect(a, b, spec)

    def _register_node_member(self, node: typing.Optional[str], name: str) -> None:
        if node is not None:
            self.nodes.setdefault(node, set()).add(name)

    # -- device lookups ------------------------------------------------------

    def device(self, name: str):
        """Either kind of device by name."""
        if name in self.memory:
            return self.memory[name]
        if name in self.compute:
            return self.compute[name]
        raise KeyError(f"no device named {name!r}")

    def memory_devices(
        self, kind: typing.Optional[MemoryKind] = None, alive_only: bool = True
    ) -> typing.List[MemoryDevice]:
        """Memory devices, optionally filtered by kind and liveness."""
        devices = list(self.memory.values())
        if kind is not None:
            devices = [d for d in devices if d.kind == kind]
        if alive_only:
            devices = [d for d in devices if not d.failed]
        return devices

    def compute_devices(self, alive_only: bool = True) -> typing.List[ComputeDevice]:
        """Compute devices, optionally including failed ones."""
        devices = list(self.compute.values())
        if alive_only:
            devices = [d for d in devices if not d.failed]
        return devices

    def node_of(self, device_name: str) -> typing.Optional[str]:
        """The failure domain a device belongs to (None if unassigned)."""
        for node, members in self.nodes.items():
            if device_name in members:
                return node
        return None

    # -- data movement ---------------------------------------------------

    def access_route(self, endpoint: str, memory_name: str) -> typing.List[Link]:
        """Route for an access from ``endpoint`` (compute or memory device)
        to ``memory_name``, including the target device's port link."""
        device = self.memory[memory_name]
        route = list(self.topology.route(endpoint, memory_name))
        route.append(device.port)
        return route

    def transfer_route(
        self, src_memory: str, dst_memory: str, nbytes: float
    ) -> typing.Tuple[typing.List[Link], float]:
        """Route and effective payload for a device-to-device copy.

        A device-internal copy moves bytes in *and* out of the same
        media, so it crosses the lone port link with twice the payload.
        """
        src = self.memory[src_memory]
        if src_memory == dst_memory:
            return [src.port], 2 * nbytes
        route = [src.port] + list(self.topology.route(src_memory, dst_memory))
        route.append(self.memory[dst_memory].port)
        return route, nbytes

    def estimate_transfer_ns(
        self, route: typing.Sequence[Link], nbytes: float
    ) -> float:
        """Nominal uncontended duration of a copy over ``route`` (ns).

        Uses the links' *advertised* bandwidth, never the physical
        degrade factor — this is the expectation the health monitor
        compares observed timings against.
        """
        if not route:
            return 0.0
        latency = sum(link.latency for link in route)
        bandwidth = min(link.bandwidth for link in route)
        return latency + nbytes / bandwidth

    def transfer(self, src_memory: str, dst_memory: str, nbytes: float) -> Event:
        """Move ``nbytes`` from one memory device to another through the
        fabric, contending with all other traffic.  Both device ports are
        on the route, so both media bandwidths throttle the copy."""
        route, nbytes = self.transfer_route(src_memory, dst_memory, nbytes)
        self.trace.emit(
            self.engine.now, "transfer", "start",
            src=src_memory, dst=dst_memory, nbytes=nbytes,
        )
        return self.flownet.transfer(route, nbytes)

    def _observe_transfer_evidence(
        self, src_memory: str, dst_memory: str, nbytes: float, duration: float
    ) -> None:
        """Feed one finished (or abandoned) copy's timing to the monitor.

        The expectation is the nominal uncontended estimate, so the
        recorded ratio folds in both contention and fail-slow state; the
        monitor's peer-relative outlier test separates the two.  No-op
        without an attached monitor running degradation detection.
        """
        monitor = self.health_monitor
        if monitor is None or getattr(monitor, "degradation", None) is None:
            return
        try:
            route, effective = self.transfer_route(src_memory, dst_memory, nbytes)
        except Exception:
            return  # route gone (link died since); nothing to attribute
        expected = self.estimate_transfer_ns(route, effective)
        monitor.observe_transfer(route, duration, expected)

    def reliable_transfer(
        self,
        src_memory: str,
        dst_memory: str,
        nbytes: float,
        *,
        retries: int = 2,
        backoff_ns: float = 10_000.0,
        backoff_factor: float = 2.0,
        timeout_ns: typing.Optional[float] = None,
        report: typing.Optional[list] = None,
        hedge_delay_ns: typing.Optional[float] = None,
        hedge_source: typing.Optional[str] = None,
    ):
        """Generator: :meth:`transfer` with timeout, retry-with-backoff,
        and reroute semantics for faults landing mid-flight.

        Each attempt recomputes the route (so repaired or alternate
        paths are picked up automatically), races the transfer against
        an optional deadline, and backs off exponentially between
        attempts.  Recoverable errors are :class:`LinkDown`,
        :class:`TransferTimeout`, and
        :class:`~repro.hardware.interconnect.NoRouteError`; after
        ``retries`` re-attempts the last error propagates to the caller.
        Yields from a simulation process; returns the transfer duration
        of the successful attempt.

        **Hedging** (the gray-failure mitigation): when both
        ``hedge_delay_ns`` and ``hedge_source`` are given and the
        primary attempt has not finished after the delay, a backup copy
        of the same bytes is launched from ``hedge_source`` (a replica
        holder) and the two race; the first finisher wins and the loser
        is cancelled with its partial progress charged to the
        ``hedge.wasted_bytes`` counter.

        ``report``, when given, receives one dict describing the
        successful attempt — bytes, duration, retry count, the actual
        ``source`` the bytes came from, whether the ``hedged`` copy won,
        and the bottleneck link the waterfill froze the flow at
        (``None`` when causal tracing is off or the transfer never
        contended).
        """
        from repro.hardware.interconnect import NoRouteError
        from repro.sim.flows import LinkDown, TransferTimeout

        hedging = (
            hedge_delay_ns is not None
            and hedge_source is not None
            and hedge_source != src_memory
            and hedge_source in self.memory
        )
        attempt = 0
        while True:
            try:
                if hedging:
                    duration, used_src, hedged, winner = yield from (
                        self._hedged_attempt(
                            src_memory, dst_memory, nbytes,
                            hedge_source, hedge_delay_ns, timeout_ns,
                        )
                    )
                else:
                    done = self.transfer(src_memory, dst_memory, nbytes)
                    if timeout_ns is None:
                        duration = yield done
                    else:
                        timer = self.engine.timeout(timeout_ns)
                        yield self.engine.any_of([done, timer])
                        if not done.triggered:
                            self.flownet.cancel(
                                done, TransferTimeout(nbytes, timeout_ns)
                            )
                            raise TransferTimeout(nbytes, timeout_ns)
                        if not done._ok:  # lost a same-timestamp race
                            raise done._value
                        duration = done._value
                    used_src, hedged, winner = src_memory, False, done
                self._observe_transfer_evidence(
                    used_src, dst_memory, nbytes, duration
                )
                if report is not None:
                    report.append({
                        "src": src_memory, "dst": dst_memory,
                        "bytes": nbytes, "duration": duration,
                        "attempts": attempt + 1,
                        "source": used_src, "hedged": hedged,
                        "link": getattr(winner, "_bottleneck", None),
                    })
                return duration
            except (LinkDown, TransferTimeout, NoRouteError) as exc:
                if attempt >= retries:
                    raise
                attempt += 1
                self.obs.counter("transfer.retries").inc()
                self.trace.emit(
                    self.engine.now, "transfer", "retry",
                    src=src_memory, dst=dst_memory, nbytes=nbytes,
                    attempt=attempt, error=type(exc).__name__,
                )
                delay = min(backoff_ns * backoff_factor ** (attempt - 1), 1e7)
                yield self.engine.timeout(delay)

    def _hedged_attempt(
        self,
        src_memory: str,
        dst_memory: str,
        nbytes: float,
        hedge_source: str,
        hedge_delay_ns: float,
        timeout_ns: typing.Optional[float],
    ):
        """One transfer attempt raced against a hedge from a replica.

        Returns ``(duration, used_source, hedge_won, winner_event)``;
        raises the primary's error when every copy fails, or
        :class:`TransferTimeout` when the overall deadline fires first.
        The loser of a decided race is cancelled and its settled partial
        progress — exact bytes, via ``FlowNetwork.cancel`` — is charged
        to ``hedge.wasted_bytes``.
        """
        from repro.sim.flows import TransferTimeout

        started = self.engine.now
        done = self.transfer(src_memory, dst_memory, nbytes)
        deadline = (
            self.engine.timeout(timeout_ns) if timeout_ns is not None else None
        )
        hedge = None
        # Phase 1: give the primary its hedge delay to finish alone.
        if not done.triggered:
            waits = [done, self.engine.timeout(hedge_delay_ns)]
            if deadline is not None:
                waits.append(deadline)
            yield self.engine.any_of(waits)
        if not done.triggered and (deadline is None or not deadline.triggered):
            hedge = self.transfer(hedge_source, dst_memory, nbytes)
            self.obs.counter("hedge.launched").inc()
            self.trace.emit(
                self.engine.now, "transfer", "hedge",
                src=hedge_source, dst=dst_memory, nbytes=nbytes,
            )
        # Phase 2: race primary, hedge, and deadline to a verdict.
        winner = None
        while True:
            if done.triggered and done._ok:
                winner = done  # primary wins same-tick ties
                break
            if hedge is not None and hedge.triggered and hedge._ok:
                winner = hedge
                break
            if done.triggered and (hedge is None or hedge.triggered):
                break  # every copy failed
            if deadline is not None and deadline.triggered:
                break  # out of time
            waits = [
                event for event in (done, hedge)
                if event is not None and not event.triggered
            ]
            if deadline is not None:
                waits.append(deadline)
            yield self.engine.any_of(waits)

        if winner is None:
            for event in (done, hedge):
                if event is not None and not event.triggered:
                    self.flownet.cancel(
                        event,
                        TransferTimeout(
                            nbytes,
                            timeout_ns if timeout_ns is not None
                            else hedge_delay_ns,
                        ),
                    )
                    if event is hedge:
                        self.obs.counter("hedge.wasted_bytes").inc(
                            getattr(event, "_progress", 0.0)
                        )
            if deadline is not None and deadline.triggered:
                raise TransferTimeout(nbytes, timeout_ns)
            raise done._value  # primary (and any hedge) failed outright

        loser = hedge if winner is done else done
        if loser is not None and not loser.triggered:
            self.flownet.cancel(
                loser, TransferTimeout(nbytes, self.engine.now - started)
            )
            self.obs.counter("hedge.wasted_bytes").inc(
                getattr(loser, "_progress", 0.0)
            )
            if loser is done:
                # The abandoned primary ran the whole race without
                # finishing: its elapsed time is a lower bound on its
                # true duration — honest fail-slow evidence.
                self._observe_transfer_evidence(
                    src_memory, dst_memory, nbytes, self.engine.now - started
                )
        if winner is hedge:
            self.obs.counter("hedge.won").inc()
            self.trace.emit(
                self.engine.now, "transfer", "hedge_won",
                src=hedge_source, dst=dst_memory, nbytes=nbytes,
            )
            return winner._value, hedge_source, True, winner
        return winner._value, src_memory, False, winner

    # -- fault handling ----------------------------------------------------

    def crash_node(self, node: str) -> None:
        """Inject an unplanned crash of a whole failure domain now."""
        self.faults.inject_now(FaultKind.NODE_CRASH, node)

    def _on_node_crash(self, fault: FaultEvent) -> None:
        members = self.nodes.get(fault.target, set())
        for name in members:
            if name in self.memory:
                device = self.memory[name]
                device.fail()
                self.flownet.fail_link(device.port)
            elif name in self.compute:
                self.compute[name].fail()
        # Take down all fabric links touching the node's devices.
        for u, v, link in self.topology.edges():
            if u in members or v in members:
                self.flownet.fail_link(link)
        self.topology.invalidate_routes()

    def _on_node_restart(self, fault: FaultEvent) -> None:
        """A restart *request*.  With a health monitor attached and the
        node healthy, the monitor drains it gracefully and injects
        ``NODE_REBOOT`` once idle; otherwise (no monitor, or the node
        already crashed so there is nothing left to drain) the node
        power-cycles immediately and synchronously."""
        monitor = self.health_monitor
        if monitor is not None and monitor.begin_drain(fault.target):
            return
        self.faults.inject_now(FaultKind.NODE_REBOOT, fault.target)

    def _on_node_reboot(self, fault: FaultEvent) -> None:
        """The power-cycle instant: devices come back, every attached
        link bounces (killing in-flight flows), and volatile contents
        are wiped by the :class:`~repro.memory.manager.MemoryManager`'s
        own ``NODE_REBOOT`` handler."""
        members = self.nodes.get(fault.target, set())
        for name in members:
            if name in self.memory:
                self.memory[name].recover(preserve_contents=True)
            elif name in self.compute:
                self.compute[name].recover()
        for name in members:
            if name in self.memory:
                port = self.memory[name].port
                self.flownet.fail_link(port)
                self.flownet.restore_link(port)
        for u, v, link in self.topology.edges():
            if u in members or v in members:
                self.flownet.fail_link(link)
                self.flownet.restore_link(link)
        self.topology.invalidate_routes()

    def _on_link_down(self, fault: FaultEvent) -> None:
        for link in self.topology.links():
            if link.name == fault.target:
                self.flownet.fail_link(link)
        self.topology.invalidate_routes()

    def _on_link_up(self, fault: FaultEvent) -> None:
        for link in self.topology.links():
            if link.name == fault.target:
                self.flownet.restore_link(link)
        self.topology.invalidate_routes()

    def _on_link_degraded(self, fault: FaultEvent) -> None:
        """Fail-slow a fabric link: ``detail['factor']`` is the speed
        multiplier (0.1 = ten times slower).  The link stays up, routes
        are unchanged, and the nominal bandwidth the control plane sees
        is untouched — only observed transfer timings reveal it."""
        factor = float(fault.detail.get("factor", 0.1))
        for link in self.topology.links():
            if link.name == fault.target:
                self.flownet.degrade_link(link, factor)

    def _on_link_restored(self, fault: FaultEvent) -> None:
        for link in self.topology.links():
            if link.name == fault.target:
                self.flownet.restore_link_speed(link)

    def _on_device_slow(self, fault: FaultEvent) -> None:
        """Fail-slow a device.  Compute devices stretch execution time;
        memory devices throttle their port link, which physically slows
        both transfers and far-memory accesses through it."""
        factor = float(fault.detail.get("factor", 0.1))
        if fault.target in self.compute:
            self.compute[fault.target].slow_factor = factor
        elif fault.target in self.memory:
            self.flownet.degrade_link(self.memory[fault.target].port, factor)

    def _on_device_restored(self, fault: FaultEvent) -> None:
        if fault.target in self.compute:
            self.compute[fault.target].slow_factor = 1.0
        elif fault.target in self.memory:
            self.flownet.restore_link_speed(self.memory[fault.target].port)

    # -- observability ----------------------------------------------------

    def _compute_busy_total(self) -> float:
        """Total compute busy-time (ns), cumulative across devices.

        Watched as a ``rate`` series: each telemetry window's total is
        busy-ns accrued that window, so ``total / (width * n_compute)``
        is the fleet utilization fraction for the window.
        """
        return sum(d.busy_time for d in self.compute.values())

    def _collect_hardware_metrics(self):
        """Hardware-layer metric readings for the obs registry snapshot."""
        yield "engine.events_processed", self.engine.events_processed
        yield "engine.queue_depth", self.engine.queue_depth
        yield "flow.completed_transfers", self.flownet.completed_transfers
        yield "flow.bytes_completed", self.flownet.bytes_completed
        yield "flow.peak_active", self.flownet.peak_active_flows
        yield "flow.rebalances", self.flownet.rebalances
        yield "flow.flows_resolved", self.flownet.flows_resolved
        yield "flow.resolves_coalesced", self.flownet.resolves_coalesced
        yield "flow.resolves_skipped", self.flownet.resolves_skipped
        yield "flow.timers_superseded", self.flownet.timers_superseded
        yield "flow.settle_skipped", self.flownet.settle_skipped
        # Flow progress is settled lazily (only when a flow's rate
        # changes); bring every in-flight flow current so the per-link
        # byte counters below are exact as of this snapshot.
        self.flownet.settle_all()
        for link in self.topology.links():
            yield f"link.bytes/{link.name}", link.bytes_carried
        for name, device in self.compute.items():
            yield f"device.busy_time/{name}", device.busy_time
            yield f"device.tasks_completed/{name}", device.tasks_completed
        for name, device in self.memory.items():
            yield f"device.mem_used/{name}", device.used

    # -- presets ---------------------------------------------------------

    @classmethod
    def preset(cls, name: str, **kwargs) -> "Cluster":
        """Build a canonical cluster; see :mod:`repro.hardware.presets`."""
        from repro.hardware import presets

        return presets.build(name, **kwargs)

    def __repr__(self) -> str:
        return (
            f"<Cluster {len(self.compute)} compute, {len(self.memory)} memory, "
            f"{len(self.nodes)} nodes, t={self.engine.now:.0f}ns>"
        )
