"""Tests for the energy accounting model."""

import pytest

from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.hardware import Cluster
from repro.metrics.energy import (
    EnergyMeter,
    provisioned_memory_power,
)
from repro.api import connect

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB


def run_pipeline(cluster, payload=16 * MiB):
    session = connect(cluster=cluster)
    job = Job("energy-probe")
    a = job.add_task(Task("a", work=WorkSpec(ops=1e5, output=RegionUsage(payload))))
    b = job.add_task(Task("b", work=WorkSpec(
        ops=1e6, input_usage=RegionUsage(0, touches=1.0))))
    job.connect(a, b)
    return session.run(job)


class TestEnergyMeter:
    def test_idle_interval_is_pure_static_power(self):
        cluster = Cluster.preset("pooled-rack")
        meter = EnergyMeter(cluster)
        cluster.engine.timeout(1e9)  # one simulated second
        cluster.engine.run()
        breakdown = meter.read()
        assert breakdown.memory_dynamic == 0.0
        assert breakdown.fabric_dynamic == 0.0
        assert breakdown.compute_active == 0.0
        assert breakdown.memory_static > 0.0
        assert breakdown.compute_idle > 0.0
        assert breakdown.static_fraction == pytest.approx(1.0)

    def test_static_energy_scales_with_time(self):
        cluster = Cluster.preset("pooled-rack")
        meter = EnergyMeter(cluster)
        cluster.engine.timeout(1e9)
        cluster.engine.run()
        one_second = meter.read().memory_static
        cluster.engine.timeout(1e9)
        cluster.engine.run()
        two_seconds = meter.read().memory_static
        assert two_seconds == pytest.approx(2 * one_second)

    def test_work_adds_dynamic_energy(self):
        cluster = Cluster.preset("pooled-rack")
        meter = EnergyMeter(cluster)
        run_pipeline(cluster)
        breakdown = meter.read()
        assert breakdown.memory_dynamic > 0.0
        assert breakdown.fabric_dynamic > 0.0
        assert breakdown.compute_active > 0.0
        assert breakdown.total > 0.0

    def test_dynamic_energy_scales_with_payload(self):
        dynamics = {}
        for payload in (8 * MiB, 64 * MiB):
            cluster = Cluster.preset("pooled-rack")
            meter = EnergyMeter(cluster)
            run_pipeline(cluster, payload=payload)
            dynamics[payload] = meter.read().memory_dynamic
        # More than linear headroom is not guaranteed: larger payloads may
        # land on media with cheaper per-byte energy (GDDR vs DRAM).
        assert dynamics[64 * MiB] > dynamics[8 * MiB] * 2

    def test_reset_zeroes_the_window(self):
        cluster = Cluster.preset("pooled-rack")
        meter = EnergyMeter(cluster)
        run_pipeline(cluster)
        meter.reset()
        breakdown = meter.read()
        assert breakdown.total == 0.0

    def test_provisioned_power_rewards_rightsizing(self):
        """The Fig. 1 energy angle: a pooled rack provisioned for the
        pooled peak burns less standing DRAM power than per-node
        overprovisioning of the same workload."""
        overprovisioned = Cluster.preset("compute-centric",
                                         dram_per_node=256 * GiB)
        rightsized = Cluster.preset("compute-centric",
                                    dram_per_node=128 * GiB)
        assert (provisioned_memory_power(rightsized)
                < provisioned_memory_power(overprovisioned))

    def test_far_memory_bytes_cost_more_than_local(self):
        """Moving a byte over the NIC fabric costs an order of magnitude
        more energy than a local DRAM access."""
        from repro.metrics.energy import DYNAMIC_PJ_PER_BYTE, LINK_PJ_PER_BYTE
        from repro.hardware.spec import LinkKind, MemoryKind

        local = DYNAMIC_PJ_PER_BYTE[MemoryKind.DRAM] + LINK_PJ_PER_BYTE[LinkKind.DDR]
        far = (DYNAMIC_PJ_PER_BYTE[MemoryKind.FAR_MEMORY]
               + LINK_PJ_PER_BYTE[LinkKind.NIC])
        assert far > 5 * local
