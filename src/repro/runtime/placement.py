"""Placement: matching declared properties to physical devices.

This is where "Memory Regions are declared and identified by their
properties, not by their location" (§2.2) becomes an algorithm:

1. filter the live devices to those whose *offer* — as seen from every
   compute device that will touch the region (Figure 3) — satisfies the
   request, and which have room;
2. rank the survivors by estimated access cost for the declared usage
   and break ties toward cheaper media, keeping fast tiers free;
3. allocate on the winner.

Two deliberately bad policies (:class:`NaivePlacement`,
:class:`StaticKindPlacement`) reproduce the baselines the paper argues
against: location-oblivious first-fit and the traditional explicit
"everything goes on device kind X" style.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.dataflow.workspec import RegionUsage
from repro.hardware.devices import MemoryDevice
from repro.hardware.spec import MemoryKind
from repro.memory.interfaces import AccessPattern
from repro.memory.manager import MemoryManager, PlacementError
from repro.memory.properties import MemoryProperties
from repro.memory.region import MemoryRegion
from repro.memory.regions import RegionType
from repro.runtime.costmodel import CostModel


@dataclasses.dataclass(frozen=True)
class PlacementRequest:
    """One region allocation request as seen by the placement policy."""

    size: int
    properties: MemoryProperties
    owner: typing.Hashable
    #: Compute devices that will access the region; the offer must
    #: satisfy the request from every one of them.
    observers: typing.Tuple[str, ...]
    name: str = ""
    region_type: typing.Optional[RegionType] = None
    #: Declared usage; lets the policy rank by expected access cost.
    usage: typing.Optional[RegionUsage] = None
    #: Devices to treat as a last resort — e.g. ones this request's
    #: task already fled with a fail-slow abort, which the health
    #: monitor may not have flagged yet.  Soft: honoured only while
    #: some other candidate remains.
    avoid: typing.Tuple[str, ...] = ()

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"region size must be positive, got {self.size}")
        if not self.observers:
            raise ValueError("a placement request needs at least one observer")


class PlacementPolicy:
    """Interface: choose a device for a request, then allocate on it."""

    def __init__(self, cluster, manager: MemoryManager, costmodel: CostModel):
        self.cluster = cluster
        self.manager = manager
        self.costmodel = costmodel
        self.placements = 0
        self.rejections = 0
        #: (observers, properties) -> device names whose offer satisfies
        #: the request from every observer.  Valid for one (topology,
        #: health) epoch pair; capacity is deliberately excluded from
        #: the key — ``_has_room`` stays a per-call O(1) probe.
        self._sat_cache: typing.Dict[tuple, typing.List[str]] = {}
        self._sat_epoch: typing.Optional[tuple] = None

    def choose_device(self, request: PlacementRequest) -> MemoryDevice:
        """Pick the backing device for a request (no allocation)."""
        raise NotImplementedError

    def place(self, request: PlacementRequest) -> MemoryRegion:
        """Choose a device and allocate the region there."""
        device = self.choose_device(request)
        region = self.manager.allocate_on(
            device.name, request.size, request.properties, request.owner,
            name=request.name, region_type=request.region_type,
        )
        self.placements += 1
        trace = self.cluster.trace
        if trace.wants("placement"):  # describe() is not free; skip when off
            trace.emit(
                self.cluster.engine.now, "placement", "place",
                region=region.name, device=device.name,
                properties=request.properties.describe(),
            )
        return region

    def _reject(self, request: PlacementRequest, reason: str) -> None:
        """Count (and trace) a request no live device could satisfy."""
        self.rejections += 1
        trace = self.cluster.trace
        if trace.wants("placement"):
            trace.emit(
                self.cluster.engine.now, "placement", "reject",
                region=request.name, size=request.size, reason=reason,
            )
        obs = getattr(self.cluster, "obs", None)
        if obs is not None:
            # Recovery nodes cite rejection pressure as retry context.
            obs.causal.note_rejection(
                request.owner, request.name, reason, self.cluster.engine.now
            )

    def _has_room(self, device: MemoryDevice, size: int) -> bool:
        return self.manager.allocators[device.name].largest_free_extent >= size

    def _prefer_non_degraded(
        self, devices: typing.List[MemoryDevice]
    ) -> typing.List[MemoryDevice]:
        """Devices not flagged DEGRADED by the health monitor, when any
        exist — otherwise the full list.  DEGRADED devices stay usable
        (``can_use`` admits them) but become the last resort, so a
        fail-slow device stops attracting fresh placements while still
        backstopping a cluster where everything else is worse."""
        monitor = getattr(self.cluster, "health_monitor", None)
        if monitor is None or not hasattr(monitor, "is_degraded"):
            return devices
        fresh = [d for d in devices if not monitor.is_degraded(d.name)]
        return fresh or devices

    def _prefer_unavoided(
        self,
        devices: typing.List[MemoryDevice],
        request: PlacementRequest,
    ) -> typing.List[MemoryDevice]:
        """Devices outside the request's ``avoid`` set, when any exist.

        A retry after a fail-slow abort names the device it fled in
        ``avoid`` before the health monitor's evidence catches up;
        without this, the retry can be placed straight back onto the
        same slow device.  Soft like ``_prefer_non_degraded``: when
        every candidate is avoided, the full list survives."""
        if not request.avoid:
            return devices
        avoided = set(request.avoid)
        fresh = [d for d in devices if d.name not in avoided]
        return fresh or devices

    def _alive_devices(self) -> typing.List[MemoryDevice]:
        """Live memory devices, minus any a health monitor rules out.

        If health filtering would leave nothing (e.g. the whole cluster
        is draining), fall back to the unfiltered live set so placement
        degrades to the pre-health behaviour instead of deadlocking.
        """
        devices = self.cluster.memory_devices()
        monitor = getattr(self.cluster, "health_monitor", None)
        if monitor is not None:
            healthy = [d for d in devices if monitor.can_use(d.name)]
            return healthy or devices
        return devices

    def _satisfying_names(
        self,
        observers: typing.Tuple[str, ...],
        properties: MemoryProperties,
    ) -> typing.List[str]:
        """Alive device names whose offer satisfies ``properties`` for
        every observer, via an epoch-keyed index.

        Device liveness changes always travel with a fabric change
        (``fail``/``recover`` pair with link fail/restore, which bump
        ``FlowNetwork.topology_epoch``) and health rulings bump the
        monitor's epoch, so one integer pair decides cache validity
        without any callback wiring.
        """
        monitor = getattr(self.cluster, "health_monitor", None)
        flownet = getattr(self.cluster, "flownet", None)
        epoch = (
            flownet.topology_epoch if flownet is not None else 0,
            monitor.epoch if monitor is not None else -1,
        )
        if epoch != self._sat_epoch:
            self._sat_epoch = epoch
            self._sat_cache.clear()
        key = (observers, properties)
        names = self._sat_cache.get(key)
        if names is None:
            names = [
                device.name
                for device in self._alive_devices()
                if all(
                    self.costmodel.offered(observer, device).satisfies(properties)
                    for observer in observers
                )
            ]
            self._sat_cache[key] = names
        return names


class DeclarativePlacement(PlacementPolicy):
    """The paper's policy: cheapest device satisfying all declared
    properties from the view of every observer."""

    def candidates(self, request: PlacementRequest) -> typing.List[MemoryDevice]:
        """Live devices whose offer satisfies the request for every observer."""
        memory = self.cluster.memory
        return [
            memory[name]
            for name in self._satisfying_names(
                request.observers, request.properties
            )
            if self._has_room(memory[name], request.size)
        ]

    def scores(
        self, request: PlacementRequest, devices: typing.List[MemoryDevice]
    ) -> typing.List[float]:
        """Each device's score, lower is better: expected access cost +
        a capacity-pressure term that keeps scarce fast tiers free for
        demanding requests.  One estimate step per (observer, device)."""
        usage = request.usage or RegionUsage(
            size=request.size, touches=1.0, pattern=AccessPattern.SEQUENTIAL
        )
        observers = request.observers
        costs = self.costmodel.access_times(
            [(observer, device) for device in devices
             for observer in observers], usage
        )
        width = len(observers)
        scores = []
        for i, device in enumerate(devices):
            cost = max(costs[i * width:(i + 1) * width])
            pressure = device.utilization  # 0..1
            media_price = device.spec.cost_per_gib
            scores.append(cost * (1.0 + 0.25 * pressure) + 1e-3 * media_price)
        return scores

    def choose_device(self, request: PlacementRequest) -> MemoryDevice:
        """The lowest-scoring satisfying candidate (raises if none).

        Candidates observed fail-slow (DEGRADED) are considered only
        when no healthy candidate satisfies the request.
        """
        survivors = self.candidates(request)
        if not survivors:
            self._reject(request, "no satisfying device")
            raise PlacementError(
                f"no device satisfies {request.properties.describe()} "
                f"for observers {list(request.observers)} "
                f"(size {request.size} B)"
            )
        survivors = self._prefer_unavoided(survivors, request)
        survivors = self._prefer_non_degraded(survivors)
        scores = self.scores(request, survivors)
        return survivors[min(range(len(survivors)), key=scores.__getitem__)]


class EncryptingPlacement(DeclarativePlacement):
    """Declarative placement that may trade isolation for encryption.

    When a *confidential* request has no isolated candidate (or only
    expensive ones), this policy also considers non-isolated devices,
    pricing in the crypto cycles every access will pay on the
    requesting observer.  Chosen non-isolated placements are marked
    ``encrypted`` so the access interfaces charge the crypto cost.

    This operationalizes the paper's point that built-in encryption
    accelerators (Sapphire Rapids, FPGAs, DPUs) change placement
    economics for sensitive data.
    """

    def candidates(self, request: PlacementRequest):
        """Satisfying devices, plus encryptable fallbacks for confidential data."""
        from dataclasses import replace as dc_replace

        survivors = super().candidates(request)
        if not request.properties.confidential:
            return survivors
        relaxed = dc_replace(request.properties, confidential=False)
        seen = {device.name for device in survivors}
        memory = self.cluster.memory
        extra = [
            memory[name]
            for name in self._satisfying_names(request.observers, relaxed)
            if name not in seen and self._has_room(memory[name], request.size)
        ]
        return survivors + extra

    def scores(self, request: PlacementRequest, devices) -> typing.List[float]:
        """Base scores plus the crypto surcharge on non-isolated devices."""
        from repro.memory.interfaces import encryption_time

        scores = super().scores(request, devices)
        if not request.properties.confidential:
            return scores
        usage = request.usage
        touched = usage.touched_bytes if usage is not None else request.size
        for i, device in enumerate(devices):
            offers = [self.costmodel.offered(o, device)
                      for o in request.observers]
            if all(offer.isolated for offer in offers):
                continue
            scores[i] += max(
                encryption_time(self.cluster, observer, touched)
                for observer in request.observers
            )
        return scores

    def place(self, request: PlacementRequest) -> MemoryRegion:
        """Place the request, marking non-isolated confidential data encrypted."""
        region = super().place(request)
        if request.properties.confidential:
            offers = [
                self.costmodel.offered(o, region.device)
                for o in request.observers
            ]
            if not all(offer.isolated for offer in offers):
                region.encrypted = True
                self.cluster.trace.emit(
                    self.cluster.engine.now, "placement", "encrypted",
                    region=region.name, device=region.device.name,
                )
        return region


class NaivePlacement(PlacementPolicy):
    """Baseline: seeded-random device with room; only hard physical
    constraints (persistence) respected.  Models a developer placing data
    with no knowledge of the topology."""

    def __init__(self, cluster, manager, costmodel, stream: str = "naive-placement"):
        super().__init__(cluster, manager, costmodel)
        self._rng = cluster.streams.stream(stream)

    def choose_device(self, request: PlacementRequest) -> MemoryDevice:
        """A seeded-random device with room (topology-oblivious baseline)."""
        candidates = [
            device for device in self._alive_devices()
            if self._has_room(device, request.size)
            and (not request.properties.persistent or device.spec.persistent)
            and device.spec.byte_addressable
        ]
        if not candidates:
            self._reject(request, "no device with room")
            raise PlacementError(f"no device has {request.size} B free")
        return candidates[int(self._rng.integers(0, len(candidates)))]


class StaticKindPlacement(PlacementPolicy):
    """Baseline: the traditional explicit model — a fixed mapping from
    region type to device *kind*, chosen once by the developer."""

    DEFAULT_MAP = {
        RegionType.PRIVATE_SCRATCH: MemoryKind.DRAM,
        RegionType.GLOBAL_STATE: MemoryKind.DRAM,
        RegionType.GLOBAL_SCRATCH: MemoryKind.DRAM,
        RegionType.INPUT: MemoryKind.DRAM,
        RegionType.OUTPUT: MemoryKind.DRAM,
    }

    def __init__(self, cluster, manager, costmodel, kind_map=None):
        super().__init__(cluster, manager, costmodel)
        self.kind_map = dict(kind_map or self.DEFAULT_MAP)

    def choose_device(self, request: PlacementRequest) -> MemoryDevice:
        """The least-utilized device of the statically mapped kind."""
        kind = self.kind_map.get(request.region_type, MemoryKind.DRAM)
        candidates = [
            device for device in self._alive_devices()
            if device.kind == kind and self._has_room(device, request.size)
            and (not request.properties.persistent or device.spec.persistent)
        ]
        if not candidates:
            # The explicit programmer's fallback: anything with room.
            candidates = [
                device for device in self._alive_devices()
                if self._has_room(device, request.size)
                and (not request.properties.persistent or device.spec.persistent)
            ]
        if not candidates:
            self._reject(request, "no device with room")
            raise PlacementError(f"no device has {request.size} B free")
        # Deterministic: fill the least-utilized matching device.
        return min(candidates, key=lambda d: (d.utilization, d.name))
