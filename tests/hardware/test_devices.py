"""Tests for memory/compute device models."""

import pytest

from repro import connect
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.hardware import calibration as cal
from repro.hardware.compute import ComputeDevice
from repro.hardware.devices import CapacityError, DeviceFailed, MemoryDevice
from repro.hardware.spec import MemoryKind, OpClass
from repro.sim import Engine


def test_reserve_release_accounting():
    dev = MemoryDevice(cal.make_dram("d0", capacity=1000))
    dev.reserve(400)
    assert dev.used == 400
    assert dev.free == 600
    dev.release(100)
    assert dev.used == 300
    assert dev.utilization == pytest.approx(0.3)


def test_reserve_over_capacity_raises():
    dev = MemoryDevice(cal.make_dram("d0", capacity=1000))
    dev.reserve(900)
    with pytest.raises(CapacityError):
        dev.reserve(200)
    # Failed reservation must not consume capacity.
    assert dev.used == 900


def test_release_more_than_used_raises():
    dev = MemoryDevice(cal.make_dram("d0", capacity=1000))
    dev.reserve(100)
    with pytest.raises(ValueError):
        dev.release(200)


def test_negative_amounts_rejected():
    dev = MemoryDevice(cal.make_dram("d0", capacity=1000))
    with pytest.raises(ValueError):
        dev.reserve(-1)
    with pytest.raises(ValueError):
        dev.release(-1)


def test_failed_device_rejects_reservations():
    dev = MemoryDevice(cal.make_dram("d0", capacity=1000))
    dev.fail()
    with pytest.raises(DeviceFailed):
        dev.reserve(10)
    assert not dev.port.up


def test_volatile_device_loses_contents_on_recover():
    dev = MemoryDevice(cal.make_dram("d0", capacity=1000))
    dev.reserve(500)
    dev.fail()
    dev.recover()
    assert dev.used == 0
    assert dev.port.up


def test_persistent_device_keeps_contents_on_recover():
    dev = MemoryDevice(cal.make_pmem("p0", capacity=1000))
    dev.reserve(500)
    dev.fail()
    dev.recover()
    assert dev.used == 500


def test_granularity_amplification():
    pmem = MemoryDevice(cal.make_pmem("p0"))  # 256 B granularity
    assert pmem.effective_bytes(1) == 256
    assert pmem.effective_bytes(256) == 256
    assert pmem.effective_bytes(257) == 512
    cache = MemoryDevice(cal.make_cache("c0"))  # 1 B granularity
    assert cache.effective_bytes(13) == 13


def test_table1_factories_cover_all_kinds():
    for kind, factory in cal.MEMORY_FACTORIES.items():
        dev = MemoryDevice(factory(f"dev-{kind.value}"))
        assert dev.kind == kind
        assert dev.capacity > 0


def test_table1_bandwidth_ordering():
    """Table 1 'Bw.' column ordering must hold in the calibration."""
    bw = {k: f(f"x-{k.value}").bandwidth for k, f in cal.MEMORY_FACTORIES.items()}
    assert bw[MemoryKind.CACHE] > bw[MemoryKind.HBM] > bw[MemoryKind.DRAM]
    assert bw[MemoryKind.DRAM] > bw[MemoryKind.CXL_DRAM] > bw[MemoryKind.PMEM]
    assert bw[MemoryKind.PMEM] > bw[MemoryKind.SSD] > bw[MemoryKind.HDD]


def test_table1_latency_ordering():
    lat = {k: f(f"x-{k.value}").latency for k, f in cal.MEMORY_FACTORIES.items()}
    assert lat[MemoryKind.CACHE] < lat[MemoryKind.DRAM] < lat[MemoryKind.PMEM]
    assert lat[MemoryKind.DRAM] < lat[MemoryKind.CXL_DRAM] < lat[MemoryKind.FAR_MEMORY]
    assert lat[MemoryKind.FAR_MEMORY] < lat[MemoryKind.SSD] < lat[MemoryKind.HDD]


def test_table1_persistence_column():
    assert not cal.make_dram("d").persistent
    assert cal.make_pmem("p").persistent
    assert cal.make_ssd("s").persistent
    assert cal.make_hdd("h").persistent
    assert not cal.make_far_memory("f").persistent
    assert cal.make_far_memory("f2", persistent=True).persistent


def test_table1_sync_column():
    assert cal.make_dram("d").supports_sync
    assert cal.make_cxl_dram("c").supports_sync
    assert not cal.make_far_memory("f").supports_sync
    assert not cal.make_ssd("s").supports_sync


def test_compute_time_scales_with_throughput():
    engine = Engine()
    cpu = ComputeDevice(cal.make_cpu("cpu0"), engine)
    gpu = ComputeDevice(cal.make_gpu("gpu0", local_memory="gddr0"), engine)
    ops = 1e6
    assert gpu.compute_time(OpClass.MATMUL, ops) < cpu.compute_time(OpClass.MATMUL, ops)
    assert cpu.compute_time(OpClass.SCALAR, ops) < gpu.compute_time(OpClass.SCALAR, ops)


def test_unsupported_op_class_raises():
    engine = Engine()
    tpu = ComputeDevice(cal.make_tpu("tpu0", local_memory="hbm0"), engine)
    assert not tpu.supports(OpClass.SCALAR)
    with pytest.raises(KeyError):
        tpu.compute_time(OpClass.SCALAR, 100)


def test_execute_occupies_slot_for_compute_time():
    engine = Engine()
    cpu = ComputeDevice(cal.make_cpu("cpu0", slots=1), engine)

    def run(ops):
        yield from cpu.execute(OpClass.SCALAR, ops)
        return engine.now

    p1 = engine.process(run(8.0))  # 1 ns at 8 ops/ns
    p2 = engine.process(run(8.0))
    engine.run()
    # Single slot: the second task queues behind the first.
    assert p1.value == pytest.approx(1.0)
    assert p2.value == pytest.approx(2.0)
    assert cpu.tasks_completed == 2


def test_execute_parallel_slots():
    engine = Engine()
    cpu = ComputeDevice(cal.make_cpu("cpu0", slots=4), engine)

    def run():
        yield from cpu.execute(OpClass.SCALAR, 80.0)  # 10 ns

    for _ in range(4):
        engine.process(run())
    engine.run()
    assert engine.now == pytest.approx(10.0)


def test_utilization_tracking():
    engine = Engine()
    cpu = ComputeDevice(cal.make_cpu("cpu0", slots=2), engine)

    def run():
        yield from cpu.execute(OpClass.SCALAR, 80.0)  # 10 ns

    engine.process(run())
    engine.run()
    engine._now = 20.0  # idle tail
    # Busy 1 slot of 2 for 10 of 20 ns -> 25%.
    assert cpu.utilization(until=20.0) == pytest.approx(0.25)


def _dashboard_rows(text: str, title: str) -> dict:
    """``{first cell: cells}`` of one rendered dashboard table."""
    lines = text.split(title, 1)[1].split("\n\n", 1)[0].splitlines()
    return {line.split()[0]: line.split() for line in lines[3:]}


def test_busy_slots_is_the_hubs_occupancy_series():
    session = connect("pooled-rack")
    cluster = session.cluster
    job = Job("fan")
    source = job.add_task(Task("src", work=WorkSpec(
        ops=1e5, output=RegionUsage(1 << 20))))
    for i in range(3):
        sink = job.add_task(Task(f"sink{i}", work=WorkSpec(
            ops=2e5 * (i + 1), input_usage=RegionUsage(0))))
        job.connect(source, sink)
    session.run(job)
    hub = cluster.obs.telemetry
    for name, device in cluster.compute.items():
        assert device.busy_slots is hub.get_series(f"device.occupancy/{name}")
    now = cluster.engine.now
    rows = _dashboard_rows(session.dashboard(), "Device utilization")
    busy = [d for d in cluster.compute.values() if d.busy_slots.windows()]
    assert busy and sorted(rows) == sorted(d.name for d in busy)
    for device in busy:
        # Columns: device, sparkline, mean, peak, history.
        mean, peak = rows[device.name][-3:-1]
        assert mean == f"{device.utilization(now) * device.slots:.2f}"
        assert peak == f"{device.busy_slots.maximum:g}"
