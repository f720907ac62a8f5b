"""Energy accounting for the disaggregated rack.

The paper's opening motivation is efficiency under sustainability
pressure (§1, citing Schneider's low-carbon-systems talk): data
movement dominates cost, and overprovisioned DRAM burns static power
around the clock.  This module attaches a simple, calibrated energy
model to a cluster:

* **static power** — every provisioned memory device draws watts
  proportional to capacity (DRAM refresh ~0.35 W/GiB, PMem idles much
  lower, storage lower still); compute devices draw an idle floor,
* **dynamic energy** — every byte through a device port costs
  picojoules (media access), every byte over NIC links costs more
  (serialization), and compute busy-time is charged at the device's
  active power.

The model reads the counters the simulator already keeps
(``port.bytes_carried``, ``ComputeDevice.busy_time``), so a single
:class:`EnergyMeter` snapshot prices any completed run.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.hardware.cluster import Cluster
from repro.hardware.spec import ComputeKind, LinkKind, MemoryKind

GiB = 1024 ** 3
NS_PER_S = 1e9
PJ = 1e-12  # joules per picojoule

#: Static draw per provisioned GiB (watts).
STATIC_W_PER_GIB = {
    MemoryKind.CACHE: 2.0,  # SRAM is power-hungry per byte
    MemoryKind.HBM: 0.8,
    MemoryKind.DRAM: 0.35,
    MemoryKind.GDDR: 0.6,
    MemoryKind.PMEM: 0.10,  # no refresh
    MemoryKind.CXL_DRAM: 0.40,  # DRAM + controller
    MemoryKind.FAR_MEMORY: 0.45,  # DRAM + NIC endpoint share
    MemoryKind.SSD: 0.02,
    MemoryKind.HDD: 0.01,
}

#: Dynamic energy per byte moved through the device media (picojoules).
DYNAMIC_PJ_PER_BYTE = {
    MemoryKind.CACHE: 1.0,
    MemoryKind.HBM: 4.0,
    MemoryKind.DRAM: 20.0,
    MemoryKind.GDDR: 8.0,
    MemoryKind.PMEM: 60.0,
    MemoryKind.CXL_DRAM: 30.0,
    MemoryKind.FAR_MEMORY: 60.0,
    MemoryKind.SSD: 200.0,
    MemoryKind.HDD: 1000.0,
}

#: Extra per-byte cost of crossing fabric links (picojoules).
LINK_PJ_PER_BYTE = {
    LinkKind.DDR: 5.0,
    LinkKind.ONBOARD: 2.0,
    LinkKind.CXL: 15.0,
    LinkKind.PCIE: 25.0,
    LinkKind.NIC: 150.0,
    LinkKind.SATA: 50.0,
}

#: Active power while a compute slot is busy (watts per slot).
COMPUTE_ACTIVE_W = {
    ComputeKind.CPU: 6.0,
    ComputeKind.GPU: 40.0,
    ComputeKind.TPU: 50.0,
    ComputeKind.FPGA: 8.0,
    ComputeKind.DPU: 5.0,
}

#: Idle floor per compute device (watts).
COMPUTE_IDLE_W = {
    ComputeKind.CPU: 40.0,
    ComputeKind.GPU: 60.0,
    ComputeKind.TPU: 70.0,
    ComputeKind.FPGA: 15.0,
    ComputeKind.DPU: 20.0,
}


@dataclasses.dataclass(frozen=True)
class EnergyBreakdown:
    """Joules, split by where they went."""

    memory_static: float
    memory_dynamic: float
    fabric_dynamic: float
    compute_idle: float
    compute_active: float

    @property
    def total(self) -> float:
        return (self.memory_static + self.memory_dynamic
                + self.fabric_dynamic + self.compute_idle
                + self.compute_active)

    @property
    def static_fraction(self) -> float:
        static = self.memory_static + self.compute_idle
        return static / self.total if self.total else 0.0


class EnergyMeter:
    """Prices a simulated interval on one cluster."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self._baseline = self._snapshot()
        self._start_time = cluster.engine.now

    def _snapshot(self) -> dict:
        topology = self.cluster.topology
        return {
            "port_bytes": {
                name: device.port.bytes_carried
                for name, device in self.cluster.memory.items()
            },
            "link_bytes": [
                (topology.link_kind(link), link.bytes_carried)
                for link in topology.links()
            ],
            "busy": {
                name: device.busy_time
                for name, device in self.cluster.compute.items()
            },
        }

    def reset(self) -> None:
        """Start a fresh measurement window at the current time."""
        self._baseline = self._snapshot()
        self._start_time = self.cluster.engine.now

    def read(self) -> EnergyBreakdown:
        """Energy consumed since construction/reset (joules)."""
        now = self.cluster.engine.now
        elapsed_s = max(0.0, now - self._start_time) / NS_PER_S
        current = self._snapshot()

        memory_static = sum(
            STATIC_W_PER_GIB[device.kind] * device.capacity / GiB
            for device in self.cluster.memory.values()
        ) * elapsed_s

        memory_dynamic = sum(
            (current["port_bytes"][name] - self._baseline["port_bytes"][name])
            * DYNAMIC_PJ_PER_BYTE[device.kind] * PJ
            for name, device in self.cluster.memory.items()
        )

        fabric_dynamic = 0.0
        for (kind, carried), (_k2, carried0) in zip(
            current["link_bytes"], self._baseline["link_bytes"]
        ):
            fabric_dynamic += (carried - carried0) * LINK_PJ_PER_BYTE[kind] * PJ

        compute_idle = sum(
            COMPUTE_IDLE_W[device.kind]
            for device in self.cluster.compute.values()
        ) * elapsed_s

        compute_active = sum(
            (current["busy"][name] - self._baseline["busy"][name]) / NS_PER_S
            * COMPUTE_ACTIVE_W[device.kind]
            for name, device in self.cluster.compute.items()
        )

        return EnergyBreakdown(
            memory_static=memory_static,
            memory_dynamic=memory_dynamic,
            fabric_dynamic=fabric_dynamic,
            compute_idle=compute_idle,
            compute_active=compute_active,
        )


def provisioned_memory_power(cluster: Cluster) -> float:
    """Static watts of all provisioned memory (the overprovisioning tax)."""
    return sum(
        STATIC_W_PER_GIB[device.kind] * device.capacity / GiB
        for device in cluster.memory.values()
    )
