"""Access interfaces: synchronous and asynchronous region access.

The paper (§2.2(3)) argues that different Memory Regions should expose
different access interfaces: synchronous loads/stores for near memory,
asynchronous batched access for far memory so compute can overlap with
data movement.  This module provides both, with a shared analytical
core:

* :func:`access_plan` — a pure function turning (device, path, pattern,
  mode, size) into an :class:`AccessPlan` (latency component, wire
  bytes, op count).  The runtime's cost model calls the same function,
  so the optimizer's estimates and the simulator's behaviour agree by
  construction.
* :class:`Accessor` — executes plans on the simulation engine: the
  wire bytes go through the flow network (contending with all other
  traffic) with the latency term as the transfer's latency floor, and
  validation enforces the interface rules (sync requires an
  addressable path and a sync-capable device; coherent regions require
  a coherent path).

The asynchronous interface models ``queue_depth`` outstanding requests,
which is how far-memory latency gets hidden (and why Table 1's far tiers
are marked async-only).
"""

from __future__ import annotations

import enum
import math
import typing

from repro.hardware.cluster import Cluster
from repro.hardware.devices import MemoryDevice, amplified_bytes
from repro.memory.region import RegionHandle


class AccessPattern(enum.Enum):
    """Spatial access behaviour: prefetchable stream vs. random points."""
    SEQUENTIAL = "sequential"
    RANDOM = "random"


class AccessMode(enum.Enum):
    """How a region is accessed: synchronous ld/st or async batches."""
    SYNC = "sync"
    ASYNC = "async"


class InterfaceError(Exception):
    """The requested interface is not available on this path/device."""


#: Default number of outstanding async requests (NIC/CXL queue depth).
DEFAULT_QUEUE_DEPTH = 16
#: Fixed software overhead per access operation, ns (syscall-free path).
PER_OP_OVERHEAD_NS = 2.0
#: Memory-level parallelism of synchronous loads: an out-of-order core
#: keeps a handful of cache misses in flight, so sync random access to
#: *near* memory is cheaper than one full round trip per op.
SYNC_MLP = 4
#: Per-request software cost of the explicit asynchronous interface
#: (building the request, completion handling).  This is why async does
#: NOT pay off for near memory (paper §2.2(3)): for DRAM-class RTTs the
#: software overhead eats the overlap gain.
ASYNC_OP_OVERHEAD_NS = 25.0


class AccessPlan(typing.NamedTuple):
    """The analytic decomposition of one region access."""

    latency_ns: float  # pure latency component (not bandwidth-limited)
    wire_bytes: float  # bytes that cross the fabric/device port
    n_ops: int  # individual access operations issued

    def lower_bound_ns(self, path_bandwidth: float) -> float:
        """Uncontended completion-time estimate used by the cost model.

        The latency term and the wire-byte streaming overlap in the
        simulator (both must finish), so the estimate is their max —
        keeping the analytic model and the executed behaviour aligned.
        """
        if path_bandwidth <= 0:
            return float("inf")
        return max(self.latency_ns, self.wire_bytes / path_bandwidth)


def access_plan(
    device: MemoryDevice,
    path_latency_ns: float,
    nbytes: int,
    pattern: AccessPattern = AccessPattern.SEQUENTIAL,
    mode: AccessMode = AccessMode.SYNC,
    access_size: int = 64,
    is_write: bool = False,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
) -> AccessPlan:
    """Compute the access plan for touching ``nbytes`` of a region.

    The model: each access operation of ``access_size`` bytes pays a
    round trip of fabric latency plus the device's media latency (writes
    scaled by the device's write penalty).  Sequential accesses are
    prefetchable, so the latency is paid once and the rest streams at
    bandwidth.  Random sync accesses pay the round trip serially; random
    async accesses overlap ``queue_depth`` of them.  Wire bytes are
    amplified to the device's access granularity.

    The size-independent part is an :class:`AccessPath`; callers that
    plan many sizes over one path (the cost model) keep the path and
    call :meth:`AccessPath.plan` directly.
    """
    if nbytes < 0:
        raise ValueError(f"negative access size: {nbytes}")
    if access_size <= 0:
        raise ValueError(f"access_size must be positive, got {access_size}")
    if queue_depth < 1:
        raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
    if nbytes == 0:
        return AccessPlan(0.0, 0.0, 0)
    return AccessPath.between(device, path_latency_ns, is_write).plan(
        nbytes, pattern, mode, access_size, queue_depth
    )


class AccessPath(typing.NamedTuple):
    """The size-independent constants of accessing one device from one
    observer in one direction: the per-op round trip and the device's
    access granularity."""

    round_trip_ns: float
    granularity: int

    @classmethod
    def between(
        cls, device: MemoryDevice, path_latency_ns: float, is_write: bool
    ) -> "AccessPath":
        """The path to ``device`` over a fabric route of the given
        one-way latency."""
        media_latency = device.spec.latency
        if is_write:
            media_latency *= device.spec.write_penalty
        return cls(
            round_trip_ns=2.0 * path_latency_ns + media_latency + PER_OP_OVERHEAD_NS,
            granularity=device.spec.granularity,
        )

    def plan(
        self,
        nbytes: int,
        pattern: AccessPattern,
        mode: AccessMode,
        access_size: int,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
    ) -> AccessPlan:
        """The plan for touching ``nbytes`` (> 0) over this path."""
        round_trip, granularity = self
        n_ops = max(1, math.ceil(nbytes / access_size))
        if pattern is _RANDOM:
            # Every op touches a separate granule -> full amplification.
            wire_bytes = float(n_ops * max(access_size, granularity))
            if mode is _SYNC:
                # Out-of-order cores overlap SYNC_MLP misses — but nothing
                # makes a single miss cheaper than one full round trip.
                latency = max(round_trip, n_ops * round_trip / SYNC_MLP)
            else:
                # Explicit async: queue_depth in flight, but every request
                # pays its software issue/completion cost.  The pipeline-fill
                # round trip overlaps with steady-state issue, so the total
                # is bounded below by one round trip, not prefixed by it.
                per_op = max(ASYNC_OP_OVERHEAD_NS, round_trip / queue_depth)
                latency = max(round_trip, n_ops * per_op)
        else:
            # Prefetchable stream: pay the round trip once; the device port
            # and fabric links bound the streaming part via wire_bytes.
            wire_bytes = float(amplified_bytes(nbytes, granularity))
            latency = round_trip
        return AccessPlan(latency, wire_bytes, n_ops)


#: Members compared on every planned access, bound once (looking a
#: member up on its Enum class costs more than the rest of a plan step).
_RANDOM = AccessPattern.RANDOM
_SYNC = AccessMode.SYNC


#: Fallback software crypto rate when the observer has no CRYPTO units
#: (bytes/ns; ~1 GB/s of unaccelerated AES).
SOFTWARE_CRYPTO_BYTES_PER_NS = 1.0


def encryption_time(cluster: Cluster, observer: str, nbytes: float) -> float:
    """Time (ns) for ``observer`` to en/decrypt ``nbytes``.

    Treats one CRYPTO op as one byte (AES-GCM-style streaming), so a CPU
    with AES units runs at its CRYPTO throughput and an FPGA/DPU offload
    is dramatically faster — which is exactly why the paper's hardware
    landscape includes crypto accelerators.
    """
    if nbytes <= 0:
        return 0.0
    from repro.hardware.spec import OpClass

    device = cluster.compute.get(observer)
    if device is not None and device.supports(OpClass.CRYPTO):
        rate = device.spec.ops_per_ns(OpClass.CRYPTO)
    else:
        rate = SOFTWARE_CRYPTO_BYTES_PER_NS
    return nbytes / rate


class Accessor:
    """Executes region accesses for one observer (compute device).

    Created per (task, region) by the runtime; standalone use::

        acc = Accessor(cluster, handle, "cpu0")
        yield from acc.read(4096, pattern=AccessPattern.RANDOM)
    """

    def __init__(
        self,
        cluster: Cluster,
        handle: RegionHandle,
        observer: str,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        source_device: typing.Optional[str] = None,
    ):
        self.cluster = cluster
        self.handle = handle
        self.observer = observer
        self.queue_depth = queue_depth
        #: Hedged read-around: physical device to serve *reads* from in
        #: place of the region's primary backing — a replica that holds
        #: the same bytes (e.g. an output backup).  Writes always go to
        #: the primary; the handle's ownership checks still apply.
        self.source_device = source_device
        #: Nominal expectation for the most recent access (ns) — the
        #: same figure fed to the health monitor, kept so callers can
        #: compare an observed duration against it (write-path abort).
        #: Stays 0.0 while fail-slow detection is off.
        self.last_expected_ns: float = 0.0
        if observer not in cluster.compute and observer not in cluster.memory:
            raise InterfaceError(f"unknown observer device {observer!r}")
        if source_device is not None and source_device not in cluster.memory:
            raise InterfaceError(
                f"unknown source device {source_device!r}"
            )
        self._validate_static()

    # -- validation ----------------------------------------------------------

    def _validate_static(self) -> None:
        region = self.handle.region
        topo = self.cluster.topology
        if region.properties.coherent and not topo.coherent(
            self.observer, region.device.name
        ):
            raise InterfaceError(
                f"region {region.name} requires coherence but the path "
                f"{self.observer} -> {region.device.name} is not coherent"
            )

    def _validate_mode(self, mode: AccessMode) -> None:
        region = self.handle.region
        if mode is AccessMode.SYNC:
            device = region.device
            if not device.spec.supports_sync:
                raise InterfaceError(
                    f"{device.name} ({device.kind.value}) does not support "
                    "synchronous access (Table 1)"
                )
            if not self.cluster.topology.addressable(self.observer, device.name):
                raise InterfaceError(
                    f"no load/store path from {self.observer} to {device.name}; "
                    "use the asynchronous interface"
                )

    # -- operations -----------------------------------------------------------

    def read(
        self,
        nbytes: typing.Optional[int] = None,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
        mode: typing.Optional[AccessMode] = None,
        access_size: int = 64,
    ):
        """Generator: read ``nbytes`` (default: whole region).

        Returns the access duration in ns.
        """
        duration = yield from self._access(
            nbytes, pattern, mode, access_size, is_write=False
        )
        return duration

    def write(
        self,
        nbytes: typing.Optional[int] = None,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
        mode: typing.Optional[AccessMode] = None,
        access_size: int = 64,
    ):
        """Generator: write ``nbytes`` (default: whole region).

        Returns the access duration in ns.
        """
        duration = yield from self._access(
            nbytes, pattern, mode, access_size, is_write=True
        )
        return duration

    def default_mode(self) -> AccessMode:
        """Sync when the device+path allow it, async otherwise."""
        region = self.handle.region
        if region.device.spec.supports_sync and self.cluster.topology.addressable(
            self.observer, region.device.name
        ):
            # An explicitly async-typed region keeps its async interface.
            if region.properties.sync is None and not region.device.spec.coherent:
                return AccessMode.ASYNC
            return AccessMode.SYNC
        return AccessMode.ASYNC

    def _access(
        self,
        nbytes: typing.Optional[int],
        pattern: AccessPattern,
        mode: typing.Optional[AccessMode],
        access_size: int,
        is_write: bool,
    ):
        self.handle.validate()
        region = self.handle.region
        if nbytes is None:
            nbytes = region.size
        if nbytes > region.size:
            raise ValueError(
                f"access of {nbytes} B exceeds region size {region.size} B"
            )
        if mode is None:
            mode = self.default_mode()
        self._validate_mode(mode)

        device = region.device
        if self.source_device is not None and not is_write:
            # Serve the bytes from the replica; fall back to the async
            # interface when the replica medium cannot do load/store.
            device = self.cluster.memory[self.source_device]
            if mode is AccessMode.SYNC and not (
                device.spec.supports_sync
                and self.cluster.topology.addressable(
                    self.observer, device.name)
            ):
                mode = AccessMode.ASYNC
        path_latency = self.cluster.topology.path_latency(self.observer, device.name)
        plan = access_plan(
            device, path_latency, nbytes, pattern, mode, access_size,
            is_write=is_write, queue_depth=self.queue_depth,
        )
        if is_write:
            device.bytes_written += plan.wire_bytes
            region.bytes_written += plan.wire_bytes
        else:
            device.bytes_read += plan.wire_bytes
        # Sampled hotness: all but every Nth access return immediately
        # inside record_access, so the hot path stays O(1) and cheap.
        self.cluster.obs.telemetry.hotness.record_access(
            region.id, device.name, plan.wire_bytes, self.cluster.engine.now
        )

        engine = self.cluster.engine
        route = list(self.cluster.topology.route(self.observer, device.name))
        route.append(device.port)
        # Shared-ownership regions pay the coherence protocol (§2.2(2));
        # exclusive regions are free by construction.
        from repro.memory.coherence import CoherenceModel

        coherence_penalty = CoherenceModel.for_cluster(self.cluster).access_penalty(
            region, self.observer, is_write
        )
        crypto_penalty = 0.0
        if region.encrypted:
            crypto_penalty = encryption_time(
                self.cluster, self.observer, plan.wire_bytes
            )
        # Latency term and wire-byte streaming overlap; both must finish.
        # The term is the transfer's latency floor, so its done event is
        # the join, processed where all_of([transfer, timeout(term)])
        # would be, without the timeout and join events.
        total_latency = plan.latency_ns + coherence_penalty + crypto_penalty
        started = engine.now
        yield self.cluster.flownet.transfer(
            route, plan.wire_bytes, latency_floor=total_latency
        )
        self.handle.validate()  # ownership may have changed while blocked
        observed = engine.now - started
        self._feed_evidence(route, plan.wire_bytes, total_latency, observed)
        return observed

    def _feed_evidence(
        self, route, wire_bytes: float, extra_latency_ns: float, observed: float
    ) -> None:
        """Report this access's observed-vs-nominal timing to the health
        monitor (when fail-slow detection is on).

        The expectation mirrors the access structure — the nominal
        uncontended stream time racing the latency term — so the ratio
        the detector sees approximates the physical degrade factor once
        the wire time dominates.  Contention inflates it too; the
        monitor's peer-relative gate is what separates a genuinely slow
        device from a busy fabric.
        """
        self.last_expected_ns = 0.0
        monitor = getattr(self.cluster, "health_monitor", None)
        if monitor is None or getattr(monitor, "degradation", None) is None:
            return
        expected = max(
            self.cluster.estimate_transfer_ns(route, wire_bytes),
            extra_latency_ns,
        )
        if expected <= 0:
            return
        self.last_expected_ns = expected
        monitor.observe_transfer(route, observed, expected)
