"""Tests for the cost model (offers, access times, transfer estimates)."""

import itertools
import random

import pytest

from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.hardware import Cluster, presets
from repro.hardware.spec import OpClass
from repro.memory.interfaces import AccessMode, AccessPattern, access_plan
from repro.memory.properties import BandwidthClass, LatencyClass
from repro.runtime import CostModel


@pytest.fixture
def pooled():
    cluster = Cluster.preset("pooled-rack")
    return cluster, CostModel(cluster)


@pytest.fixture
def host():
    cluster = Cluster.preset("table1-host")
    return cluster, CostModel(cluster)


class TestOffers:
    def test_figure3_offers_depend_on_observer(self, pooled):
        """The same physical device offers different classes to different
        compute devices — the core of Figure 3."""
        cluster, cm = pooled
        gddr = cluster.memory["gddr1"]
        from_gpu = cm.offered("gpu1", gddr)
        from_cpu = cm.offered("cpu1", gddr)
        assert from_gpu.rtt_ns < from_cpu.rtt_ns
        assert from_gpu.latency is LatencyClass.LOW

    def test_far_memory_offers_no_sync(self, host):
        cluster, cm = host
        offer = cm.offered("cpu0", cluster.memory["far0"])
        assert not offer.sync
        assert not offer.coherent
        assert not offer.isolated  # NIC-attached: not for confidential data

    def test_dram_offer_from_cpu(self, host):
        cluster, cm = host
        offer = cm.offered("cpu0", cluster.memory["dram0"])
        assert offer.sync and offer.coherent and offer.isolated
        assert offer.latency is LatencyClass.LOW
        assert offer.bandwidth is BandwidthClass.HIGH

    def test_offer_cache_and_invalidate(self, host):
        cluster, cm = host
        first = cm.offered("cpu0", cluster.memory["dram0"])
        assert cm.offered("cpu0", cluster.memory["dram0"]) is first
        cm.invalidate()
        assert cm.offered("cpu0", cluster.memory["dram0"]) is not first

    def test_unreachable_device_offer_is_infinite(self):
        cluster = Cluster(seed=0)
        from repro.hardware import calibration as cal

        cluster.add_compute(cal.make_cpu("cpu0"))
        cluster.add_memory(cal.make_dram("island"))
        cm = CostModel(cluster)
        offer = cm.offered("cpu0", cluster.memory["island"])
        assert offer.rtt_ns == float("inf")
        assert offer.bytes_per_ns == 0.0


class TestAccessTimes:
    def test_near_beats_far(self, host):
        cluster, cm = host
        usage = RegionUsage(1024 * 1024)
        t_dram = cm.access_time("cpu0", cluster.memory["dram0"], usage)
        t_cxl = cm.access_time("cpu0", cluster.memory["cxl0"], usage)
        t_far = cm.access_time("cpu0", cluster.memory["far0"], usage)
        assert t_dram < t_cxl < t_far

    def test_random_costs_more_than_sequential(self, host):
        cluster, cm = host
        seq = RegionUsage(64 * 1024, pattern=AccessPattern.SEQUENTIAL)
        rand = RegionUsage(64 * 1024, pattern=AccessPattern.RANDOM)
        dram = cluster.memory["dram0"]
        assert cm.access_time("cpu0", dram, rand) > cm.access_time("cpu0", dram, seq)

    def test_zero_usage_is_free(self, host):
        cluster, cm = host
        assert cm.access_time("cpu0", cluster.memory["dram0"], RegionUsage(0)) == 0.0

    def test_transfer_time_scales_and_respects_topology(self, host):
        cluster, cm = host
        near = cm.transfer_time(cluster.memory["dram0"], cluster.memory["cxl0"], 1 << 20)
        far = cm.transfer_time(cluster.memory["dram0"], cluster.memory["far0"], 1 << 20)
        assert far > near
        small = cm.transfer_time(cluster.memory["dram0"], cluster.memory["cxl0"], 1 << 10)
        assert small < near

    def test_same_device_transfer_double_cost(self, host):
        cluster, cm = host
        dram = cluster.memory["dram0"]
        t = cm.transfer_time(dram, dram, 1000)
        assert t == pytest.approx(2 * 1000 / dram.spec.bandwidth)


class TestTaskEstimates:
    def test_compute_time_prefers_matching_device(self, pooled):
        cluster, cm = pooled
        task = Task("t", work=WorkSpec(op_class=OpClass.MATMUL, ops=1e6))
        assert cm.compute_time(task, "gpu1") < cm.compute_time(task, "cpu1")

    def test_unsupported_op_is_infinite(self, pooled):
        cluster, cm = pooled
        task = Task("t", work=WorkSpec(op_class=OpClass.SCALAR, ops=1e6))
        assert cm.compute_time(task, "tpu1") == float("inf")

    def test_task_estimate_includes_memory_phases(self, pooled):
        cluster, cm = pooled
        light = Task("light", work=WorkSpec(op_class=OpClass.SCALAR, ops=1e4))
        heavy = Task(
            "heavy",
            work=WorkSpec(
                op_class=OpClass.SCALAR, ops=1e4,
                scratch=RegionUsage(16 * 1024 * 1024, touches=4.0),
            ),
        )
        scratch = cm.best_scratch_device("cpu1")
        t_light = cm.task_time_estimate(light, "cpu1", lambda role: scratch)
        t_heavy = cm.task_time_estimate(heavy, "cpu1", lambda role: scratch)
        assert t_heavy > t_light

    def test_best_scratch_device_is_sync_addressable(self, pooled):
        cluster, cm = pooled
        best = cm.best_scratch_device("gpu1")
        assert best is not None
        offer = cm.offered("gpu1", best)
        assert offer.sync
        # For a GPU the on-board GDDR should win (Figure 3).
        assert best.name == "gddr1"

    def test_best_scratch_for_cpu_is_local(self, pooled):
        cluster, cm = pooled
        best = cm.best_scratch_device("cpu1")
        assert best.name in ("dram-local1", "dram-local2")

    def test_node_crash_retires_offers_through_the_epoch_alone(self):
        """A crash fails the node's links with its devices, so the
        topology epoch drops the cached offers: the health monitor
        needs no cost-model hook."""
        from repro.runtime import HealthMonitor, RuntimeSystem
        from repro.sim.faults import FaultKind

        cluster = Cluster.preset("pooled-rack")
        monitor = HealthMonitor(cluster)
        cm = RuntimeSystem(cluster).costmodel
        assert all(getattr(callback, "__self__", None) is not cm
                   for callback in monitor._callbacks)
        shelf = cluster.memory["dram-pool0"]
        assert cm.best_scratch_device("fpga1") is shelf
        assert cm.offered("fpga1", shelf).sync
        cluster.faults.inject_now(FaultKind.NODE_CRASH, "mem-shelf")
        best = cm.best_scratch_device("fpga1")
        assert best is not None
        assert best.name not in cluster.nodes["mem-shelf"]
        offer = cm.offered("fpga1", shelf)
        assert not offer.sync
        assert offer.rtt_ns == float("inf")


MiB = 1024 * 1024


class TestEstimateParity:
    """The cost model's estimates are the data plane's access plans:
    same arithmetic, same operation order, so equal to the last bit."""

    @staticmethod
    def reference(cluster, cm, observer, device, nbytes, pattern, mode,
                  is_write):
        """What the estimate must be, from the offer plus access_plan."""
        if nbytes == 0:
            return 0.0
        offer = cm.offered(observer, device)
        if offer.bytes_per_ns == 0.0:
            return float("inf")
        if mode is None:
            mode = AccessMode.SYNC if offer.sync else AccessMode.ASYNC
        plan = access_plan(
            device, cluster.topology.path_latency(observer, device.name),
            nbytes, pattern=pattern, mode=mode, is_write=is_write,
        )
        return plan.lower_bound_ns(offer.bytes_per_ns)

    @pytest.mark.parametrize("preset", presets.available())
    def test_access_time_equals_access_plan_bound(self, preset):
        cluster = Cluster.preset(preset)
        cm = CostModel(cluster)
        checked = 0
        for observer in cluster.compute:
            for device in cluster.memory_devices():
                gran = device.spec.granularity
                sizes = sorted({0, 1, gran - 1, gran, gran + 1, 64 * MiB})
                for nbytes, pattern, mode, is_write in itertools.product(
                    sizes, AccessPattern,
                    (AccessMode.SYNC, AccessMode.ASYNC, None), (False, True),
                ):
                    usage = RegionUsage(nbytes, pattern=pattern)
                    got = cm.access_time(observer, device, usage,
                                         is_write=is_write, mode=mode)
                    want = self.reference(cluster, cm, observer, device,
                                          nbytes, pattern, mode, is_write)
                    assert got == want, (
                        preset, observer, device.name, nbytes, pattern,
                        mode, is_write)
                    checked += 1
        assert checked > 0

    def test_input_phase_matches_a_region_usage(self, pooled):
        """The input phase, sized from upstream outputs, costs what the
        equivalent RegionUsage would."""
        cluster, cm = pooled
        job = Job("j")
        up = job.add_task(Task("up", work=WorkSpec(
            ops=1e4, output=RegionUsage(3 * MiB + 7))))
        down = job.add_task(Task("down", work=WorkSpec(
            ops=1e4, input_usage=RegionUsage(
                0, touches=1.5, pattern=AccessPattern.RANDOM,
                access_size=256))))
        job.connect(up, down)
        scratch = cm.best_scratch_device("cpu1")
        input_bytes = 3 * MiB + 7
        estimate = cm.task_time_estimate(
            down, "cpu1", lambda role: scratch, input_bytes=input_bytes)
        usage = RegionUsage(input_bytes, touches=1.5,
                            pattern=AccessPattern.RANDOM, access_size=256)
        assert estimate == (cm.compute_time(down, "cpu1")
                            + cm.access_time("cpu1", scratch, usage))

    def test_caches_are_bounded_by_the_inventory(self, pooled):
        """10,000 distinct sizes leave at most one entry per (observer,
        device, direction): nothing is memoized per usage."""
        cluster, cm = pooled
        observers = list(cluster.compute)
        devices = cluster.memory_devices()
        pairs = [(o, d, w) for o in observers for d in devices
                 for w in (False, True)]
        rng = random.Random(21)
        sizes = rng.sample(range(1, 1 << 30), 10_000)
        for i, nbytes in enumerate(sizes):
            observer, device, is_write = pairs[i % len(pairs)]
            cm.access_time(observer, device, RegionUsage(nbytes),
                           is_write=is_write)
        bound = 2 * len(observers) * len(devices)
        assert len(cm._path_cache) <= bound
        assert len(cm._offer_cache) <= len(observers) * len(devices)

    def test_constants_follow_the_topology_epoch(self, pooled):
        """A link failure moves the epoch and drops the cached constants
        with the offers, so estimates never outlive the route."""
        cluster, cm = pooled
        device = cluster.memory["dram-pool0"]
        usage = RegionUsage(MiB)
        before = cm.access_time("cpu1", device, usage)
        assert cm._path_cache
        cluster.flownet.fail_link(device.port)
        cm.access_time("gpu1", cluster.memory["gddr1"], usage)
        assert ("cpu1", "dram-pool0", False) not in cm._path_cache
        cluster.flownet.restore_link(device.port)
        assert cm.access_time("cpu1", device, usage) == before
