"""Kernel microbenchmarks: the hot paths of the runtime itself.

Unlike the artifact benches (which run a deterministic simulation once
and report simulated metrics), these measure real wall-clock throughput
of the library's computational kernels with proper pytest-benchmark
repetition: the event engine, the max–min flow solver, the first-fit
allocator, ownership transitions, Reed–Solomon coding, and HEFT
scheduling.
"""

import numpy as np
import pytest

from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.ft.erasure import ReedSolomon
from repro.hardware import Cluster
from repro.memory.allocator import AllocationError, FreeListAllocator
from repro.memory.ownership import OwnershipRecord
from repro.runtime import CostModel, HeftScheduler
from repro.sim import Engine, FlowNetwork, Link

KiB = 1024
MiB = 1024 * KiB


def test_engine_event_throughput(benchmark):
    """Process 10k timeout events through the kernel."""

    def run():
        engine = Engine()

        def ticker():
            for _ in range(10_000):
                yield engine.timeout(1.0)

        engine.process(ticker())
        engine.run()
        return engine.now

    result = benchmark(run)
    assert result == pytest.approx(10_000.0)


def test_flow_network_rebalance_throughput(benchmark):
    """100 staggered flows over a shared bottleneck: each arrival and
    departure triggers a max–min re-solve."""

    def run():
        engine = Engine()
        net = FlowNetwork(engine)
        shared = Link("shared", bandwidth=10.0, latency=5.0)

        def spawn():
            for i in range(100):
                leg = Link(f"leg{i % 7}", bandwidth=5.0, latency=1.0)
                net.transfer([leg, shared], nbytes=1000.0 + i)
                yield engine.timeout(3.0)

        engine.process(spawn())
        engine.run()
        return net.completed_transfers

    completed = benchmark(run)
    assert completed == 100


def test_allocator_throughput(benchmark):
    """Mixed alloc/free churn on one device allocator."""

    def run():
        allocator = FreeListAllocator(capacity=64 * MiB, granularity=64)
        live = []
        for i in range(2000):
            try:
                live.append(allocator.allocate(64 + (i * 977) % 8192))
            except AllocationError:
                pass
            if len(live) > 64:
                live.sort(key=lambda a: a.offset)
                allocator.free(live.pop(i % len(live)))
        for allocation in live:
            allocator.free(allocation)
        return allocator.alloc_count

    count = benchmark(run)
    assert count > 1900


def test_ownership_transition_throughput(benchmark):
    """Transfer chains: the per-edge cost of the ownership model."""

    def run():
        record = OwnershipRecord("t0")
        for i in range(10_000):
            record.transfer(f"t{i}", f"t{i + 1}")
        return record.epoch

    epoch = benchmark(run)
    assert epoch == 10_000


def test_reed_solomon_encode_bandwidth(benchmark):
    """RS(4+2) parity generation over 1 MiB of data."""
    rs = ReedSolomon(4, 2)
    data = np.random.default_rng(0).integers(
        0, 256, (4, 256 * KiB)).astype(np.uint8)

    parity = benchmark(rs.encode, data)
    assert parity.shape == (2, 256 * KiB)


def test_reed_solomon_decode_bandwidth(benchmark):
    """Worst-case decode: two data shards missing."""
    rs = ReedSolomon(4, 2)
    data = np.random.default_rng(1).integers(
        0, 256, (4, 256 * KiB)).astype(np.uint8)
    parity = rs.encode(data)
    shards = {2: data[2], 3: data[3], 4: parity[0], 5: parity[1]}

    recovered = benchmark(rs.decode, shards, 256 * KiB)
    assert np.array_equal(recovered, data)


def test_heft_scheduling_throughput(benchmark):
    """Schedule a 64-task layered DAG onto the pooled rack."""
    cluster = Cluster.preset("pooled-rack")
    costmodel = CostModel(cluster)

    def build():
        job = Job("wide")
        previous = []
        for layer in range(8):
            current = []
            for i in range(8):
                work = WorkSpec(ops=1e5 * (1 + i),
                                output=RegionUsage(1 * MiB),
                                input_usage=RegionUsage(0) if previous else None)
                current.append(job.add_task(Task(f"t{layer}-{i}", work=work)))
            for up in previous:
                for down in current:
                    if (up.id + down.id) % 3 == 0:
                        job.connect(up, down)
            # Guarantee input edges for every task in this layer.
            for down in current:
                if previous and not down.upstream():
                    job.connect(previous[0], down)
            previous = current
        return job

    job = build()

    assignment = benchmark(HeftScheduler().assign, job, cluster, costmodel)
    assert len(assignment) == 64


def test_address_translation_throughput(benchmark):
    """Page-table translation: the OS layer's hot path."""
    from repro.memory.addressing import VirtualAddressSpace
    from repro.memory.manager import MemoryManager
    from repro.memory.properties import MemoryProperties

    cluster = Cluster.preset("table1-host")
    manager = MemoryManager(cluster)
    vas = VirtualAddressSpace("bench")
    addresses = []
    for i in range(64):
        region = manager.allocate_on(
            "dram0", 64 * KiB, MemoryProperties(), owner="b")
        addresses.append(vas.map(region))

    def run():
        total = 0
        for base in addresses:
            for offset in (0, 4096, 40_000):
                total += vas.translate(base + offset).physical_offset
        return total

    assert benchmark(run) > 0


def test_coherence_model_throughput(benchmark):
    """Per-access coherence accounting on a heavily shared region."""
    from repro.memory.coherence import CoherenceModel
    from repro.memory.manager import MemoryManager
    from repro.memory.properties import MemoryProperties

    cluster = Cluster.preset("pooled-rack")
    manager = MemoryManager(cluster)
    model = CoherenceModel(cluster)
    region = manager.allocate_on(
        "dram-pool0", 64 * KiB, MemoryProperties(), owner="t0")
    region.ownership.share("t0", [f"t{i}" for i in range(1, 4)])
    observers = ["cpu1", "cpu2", "gpu1", "gpu2"]

    def run():
        total = 0.0
        for i in range(2000):
            observer = observers[i % 4]
            total += model.access_penalty(region, observer, is_write=(i % 3 == 0))
        return total

    assert benchmark(run) > 0


def test_zipf_sampling_throughput(benchmark):
    """Drawing 100k zipfian keys (the tiering benches' workload source)."""
    import numpy as np

    from repro.workloads import ZipfSampler

    sampler = ZipfSampler(100_000, skew=0.99)
    rng = np.random.default_rng(0)

    draws = benchmark(sampler.sample, rng, 100_000)
    assert len(draws) == 100_000


def test_end_to_end_job_rate(benchmark):
    """Whole-runtime throughput: one small job per call."""
    from repro.api import connect

    cluster = Cluster.preset("pooled-rack", seed=3)
    session = connect(cluster=cluster)
    rts = session.rts
    counter = [0]

    def run():
        job = Job(f"rate-{counter[0]}")
        counter[0] += 1
        a = job.add_task(Task("a", work=WorkSpec(
            ops=1e4, output=RegionUsage(1 * MiB))))
        b = job.add_task(Task("b", work=WorkSpec(
            ops=1e4, input_usage=RegionUsage(0))))
        job.connect(a, b)
        return session.run(job).ok

    assert benchmark(run)
    assert rts.memory.live_regions() == []
