"""The memory manager: logical→physical bookkeeping.

The :class:`MemoryManager` owns one offset allocator per memory device
and the table of live regions.  It performs the mechanical half of the
runtime's duties (§2.3): allocating a region on a chosen device,
deallocating it when the last owner drops, migrating regions between
devices, and marking regions lost when their backing device fails.

*Choosing* the device is the placement optimizer's job
(:mod:`repro.runtime.placement`); the manager only checks hard physical
constraints (capacity, persistence) so no layer above it can corrupt the
accounting.
"""

from __future__ import annotations

import typing

from repro.hardware.cluster import Cluster
from repro.hardware.devices import CapacityError, MemoryDevice
from repro.memory.allocator import AllocationError, FreeListAllocator
from repro.memory.properties import MemoryProperties
from repro.memory.region import MemoryRegion, RegionState
from repro.memory.regions import RegionType
from repro.sim.faults import FaultEvent, FaultKind


class PlacementError(Exception):
    """The requested placement is physically impossible."""


class MemoryManager:
    """Bookkeeping for all memory regions in one cluster."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.allocators: typing.Dict[str, FreeListAllocator] = {
            name: FreeListAllocator(dev.capacity, dev.spec.granularity)
            for name, dev in cluster.memory.items()
        }
        self.regions: typing.Dict[int, MemoryRegion] = {}
        self.freed_regions = 0
        self.lost_regions = 0
        cluster.faults.on(FaultKind.NODE_CRASH, self._on_node_crash)
        cluster.faults.on(FaultKind.NODE_REBOOT, self._on_node_crash)
        cluster.faults.on(FaultKind.POWER_OUTAGE, self._on_power_outage)
        cluster.faults.on(FaultKind.MEMORY_CORRUPTION, self._on_corruption)

    # -- allocation ----------------------------------------------------------

    def allocate_on(
        self,
        device_name: str,
        size: int,
        properties: MemoryProperties,
        owner: typing.Hashable,
        name: str = "",
        region_type: typing.Optional[RegionType] = None,
    ) -> MemoryRegion:
        """Allocate a region of ``size`` bytes on a specific device.

        Raises :class:`PlacementError` when the device cannot possibly
        host the request (failed, persistence mismatch, out of space).
        """
        device = self._device(device_name)
        if device.failed:
            raise PlacementError(f"{device_name} has failed")
        if properties.persistent and not device.spec.persistent:
            raise PlacementError(
                f"{device_name} is volatile but the request requires persistence"
            )
        allocator = self.allocators[device_name]
        try:
            allocation = allocator.allocate(size)
        except AllocationError as exc:
            raise PlacementError(f"{device_name}: {exc}") from exc
        try:
            device.reserve(allocation.size)
        except CapacityError as exc:  # pragma: no cover - allocator guards this
            allocator.free(allocation)
            raise PlacementError(str(exc)) from exc

        region = MemoryRegion(
            size=size,
            properties=properties,
            device=device,
            allocation=allocation,
            owner=owner,
            name=name,
            region_type=region_type,
            created_at=self.cluster.engine.now,
        )
        region.ownership.on_release.append(lambda: self.free(region))
        self.regions[region.id] = region
        self.cluster.trace.emit(
            self.cluster.engine.now, "memory", "allocate",
            region=region.name, device=device_name, size=size, owner=str(owner),
            rtype=region_type.value if region_type is not None else "",
        )
        return region

    def free(self, region: MemoryRegion) -> None:
        """Deallocate a region (idempotent; also the last-drop hook)."""
        if region.state is RegionState.FREED:
            return
        if region.state is not RegionState.LOST:
            self.allocators[region.device.name].free(region.allocation)
            region.device.release(region.allocation.size)
        region.state = RegionState.FREED
        region.freed_at = self.cluster.engine.now
        self.regions.pop(region.id, None)
        self.freed_regions += 1
        self.cluster.trace.emit(
            self.cluster.engine.now, "memory", "free",
            region=region.name, device=region.device.name,
        )

    # -- ownership operations (delegate + trace) -----------------------------

    def transfer_ownership(
        self, region: MemoryRegion, from_owner: typing.Hashable, to_owner: typing.Hashable
    ) -> int:
        """Move exclusive ownership between tasks (Figure 4 handover)."""
        region.check_alive()
        epoch = region.ownership.transfer(from_owner, to_owner)
        self.cluster.trace.emit(
            self.cluster.engine.now, "memory", "transfer_ownership",
            region=region.name, src=str(from_owner), dst=str(to_owner),
        )
        return epoch

    def share(
        self,
        region: MemoryRegion,
        actor: typing.Hashable,
        others: typing.Iterable[typing.Hashable],
    ) -> None:
        """Widen a region's owner set (converts to shared mode)."""
        region.check_alive()
        region.ownership.share(actor, others)

    def drop_owner(self, region: MemoryRegion, owner: typing.Hashable) -> bool:
        """Drop one owner; frees the region when it was the last one."""
        return region.ownership.drop(owner)

    # -- migration -------------------------------------------------------

    def migrate(self, region: MemoryRegion, new_device_name: str):
        """Simulation generator: move a region's bytes to another device.

        Allocates on the target, streams the payload through the fabric
        (contending with everything else), then atomically swaps the
        backing and frees the old allocation.  Yields from a sim process::

            yield from manager.migrate(region, "dram-pool0")
        """
        region.check_alive()
        if region.state is RegionState.MIGRATING:
            raise PlacementError(f"{region.name} is already migrating")
        new_device = self._device(new_device_name)
        if new_device.name == region.device.name:
            return region
        if region.properties.persistent and not new_device.spec.persistent:
            raise PlacementError(
                f"cannot migrate persistent region {region.name} to volatile "
                f"{new_device_name}"
            )
        allocator = self.allocators[new_device_name]
        try:
            new_allocation = allocator.allocate(region.size)
        except AllocationError as exc:
            raise PlacementError(f"{new_device_name}: {exc}") from exc
        new_device.reserve(new_allocation.size)

        region.state = RegionState.MIGRATING
        old_device, old_allocation = region.device, region.allocation
        try:
            yield self.cluster.transfer(old_device.name, new_device_name, region.size)
        except BaseException:
            # Roll back the target allocation; the region stays put.
            allocator.free(new_allocation)
            new_device.release(new_allocation.size)
            region.state = RegionState.ACTIVE
            raise
        region.device = new_device
        region.allocation = new_allocation
        region.state = RegionState.ACTIVE
        region.migrations += 1
        self.allocators[old_device.name].free(old_allocation)
        old_device.release(old_allocation.size)
        self.cluster.trace.emit(
            self.cluster.engine.now, "memory", "migrate",
            region=region.name, src=old_device.name, dst=new_device_name,
        )
        return region

    # -- failure handling --------------------------------------------------

    def _on_node_crash(self, fault: FaultEvent) -> None:
        # Handles NODE_CRASH and NODE_REBOOT alike: both lose the
        # volatile contents of every member device (a reboot of a node
        # that already crashed finds them marked lost and is a no-op).
        members = self.cluster.nodes.get(fault.target, set())
        for region in list(self.regions.values()):
            if region.device.name in members and not region.device.spec.persistent:
                self._mark_lost(region)

    def _on_power_outage(self, fault: FaultEvent) -> None:
        # Power loss takes out every volatile region cluster-wide.
        for region in list(self.regions.values()):
            if not region.device.spec.persistent:
                self._mark_lost(region)

    def _on_corruption(self, fault: FaultEvent) -> None:
        # Target is a region name; corrupt exactly that region.
        for region in list(self.regions.values()):
            if region.name == fault.target:
                self._mark_lost(region)

    def _mark_lost(self, region: MemoryRegion) -> None:
        if region.state is not RegionState.ACTIVE:
            return
        region.state = RegionState.LOST
        self.lost_regions += 1
        self.regions.pop(region.id, None)
        # The contents are gone; reclaim the physical range so the device
        # is consistent again after recovery (no phantom allocations).
        self.allocators[region.device.name].free(region.allocation)
        region.device.release(region.allocation.size)
        self.cluster.trace.emit(
            self.cluster.engine.now, "memory", "lost",
            region=region.name, device=region.device.name,
        )

    # -- introspection -----------------------------------------------------

    def live_regions(self) -> typing.List[MemoryRegion]:
        """All regions currently alive under this manager."""
        return list(self.regions.values())

    def live_bytes(self, device_name: typing.Optional[str] = None) -> int:
        """Accounted live bytes, cluster-wide or for one device."""
        return sum(
            r.allocation.size
            for r in self.regions.values()
            if device_name is None or r.device.name == device_name
        )

    def _device(self, name: str) -> MemoryDevice:
        try:
            return self.cluster.memory[name]
        except KeyError:
            raise PlacementError(f"no memory device named {name!r}") from None
