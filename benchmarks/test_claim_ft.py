"""C4 — §3 Challenge 8: fault-tolerant far memory, replication vs
erasure coding (Carbink, OSDI '22).

Store the same object set under 3-way replication (RS(1+2): every
parity shard a plain copy), RS(4+2) erasure coding, and single-parity
striping (RS(4+1)) on an 8-node far-memory rack; crash a node; let the
orchestrator repair.  All three are one span store with different
(k, m), and every read decodes from the shards that survive.  Pass
criteria (Carbink's trade-off):

* erasure coding's memory overhead ≈ 1.5x vs replication's 3x,
* replication repairs with less traffic and faster,
* all schemes remain byte-exact after the crash,
* a second simultaneous crash is survived by RS(4+2) and 3-replication.
"""

import numpy as np
import pytest

from benchmarks.conftest import once, run_sim
from repro.ft import DataLoss, ErasureCodedStore, RecoveryOrchestrator
from repro.hardware import Cluster
from repro.memory.manager import MemoryManager
from repro.metrics import Table, format_bytes, format_ns

KiB = 1024
FARS = [f"far{i}" for i in range(8)]
N_OBJECTS = 16
OBJ_BYTES = 64 * KiB  # exactly one RS(4+2) span (4 x 16 KiB data shards)
#: scheme -> (devices, k, m, shard_size)
SCHEMES = {
    "3-way replication": (FARS, 1, 2, 64 * KiB),
    "RS(4+2) erasure coding": (FARS, 4, 2, 16 * KiB),
    "RS(4+1) parity striping": (FARS[:6], 4, 1, 16 * KiB),
}


def build_store(kind):
    cluster = Cluster.preset("far-memory-rack", n_nodes=8, seed=21)
    manager = MemoryManager(cluster)
    devices, k, m, shard_size = SCHEMES[kind]
    store = ErasureCodedStore(cluster, manager, devices, home="dram0",
                              k=k, m=m, shard_size=shard_size)
    orchestrator = RecoveryOrchestrator(cluster, [store],
                                        detection_delay_ns=10_000.0)
    return cluster, store, orchestrator


def fill(cluster, store):
    rng = np.random.default_rng(33)
    objects = {}
    for i in range(N_OBJECTS):
        data = rng.integers(0, 256, OBJ_BYTES).astype(np.uint8)
        run_sim(cluster, store.put(f"obj{i}", data))
        objects[f"obj{i}"] = data
    return objects


def verify(cluster, store, objects):
    return all(
        np.array_equal(run_sim(cluster, store.get(name)), data)
        for name, data in objects.items()
    )


def test_claim_ft_replication_vs_erasure(benchmark, report):
    schemes = list(SCHEMES)
    results = {}

    def experiment():
        for scheme in schemes:
            cluster, store, orchestrator = build_store(scheme)
            objects = fill(cluster, store)
            overhead = store.memory_overhead()
            write_traffic = store.bytes_written
            t_filled = cluster.engine.now

            cluster.crash_node("memnode0")
            cluster.engine.run()  # detection + repair
            repair_wall = cluster.engine.now - t_filled
            intact = verify(cluster, store, objects)
            results[scheme] = {
                "overhead": overhead,
                "write_traffic": write_traffic,
                "repair_traffic": store.repair_bytes,
                "repair_time": orchestrator.stats.total_repair_time_ns,
                "repair_wall": repair_wall,
                "intact": intact,
            }
        return results

    once(benchmark, experiment)

    table = Table(
        ["scheme", "memory overhead", "write traffic", "repair traffic",
         "repair time", "intact"],
        title="C4 (reproduced): fault-tolerant far memory after one node crash",
    )
    for scheme in schemes:
        r = results[scheme]
        table.add_row(
            scheme, f"{r['overhead']:.2f}x", format_bytes(r["write_traffic"]),
            format_bytes(r["repair_traffic"]), format_ns(r["repair_time"]),
            "yes" if r["intact"] else "NO",
        )
    report("claim_ft", table.render())

    repl = results["3-way replication"]
    ec = results["RS(4+2) erasure coding"]
    assert repl["intact"] and ec["intact"]
    assert results["RS(4+1) parity striping"]["intact"]
    # Carbink's headline: EC ~halves memory overhead...
    assert repl["overhead"] == pytest.approx(3.0, rel=0.05)
    assert ec["overhead"] == pytest.approx(1.5, rel=0.2)
    # ...at the price of reconstruction bandwidth.
    assert ec["repair_traffic"] > repl["repair_traffic"]
    assert ec["repair_time"] > repl["repair_time"]


def test_claim_ft_survives_m_failures_not_more(benchmark, report):
    def experiment():
        outcomes = {}
        for crashes in (1, 2, 3):
            cluster, store, _orch = build_store("RS(4+2) erasure coding")
            objects = fill(cluster, store)
            span = store.spans[0]
            for node_index in range(crashes):
                cluster.crash_node(
                    cluster.node_of(span.devices[node_index])
                )
            store.note_device_failures()
            try:
                ok = verify(cluster, store, objects)
                outcomes[crashes] = "intact" if ok else "corrupt"
            except DataLoss:
                outcomes[crashes] = "data loss"
        return outcomes

    outcomes = once(benchmark, experiment)
    table = Table(["simultaneous node crashes", "RS(4+2) outcome"],
                  title="C4 follow-on: durability boundary")
    for crashes, outcome in outcomes.items():
        table.add_row(crashes, outcome)
    report("claim_ft_boundary", table.render())

    assert outcomes[1] == "intact"
    assert outcomes[2] == "intact"
    assert outcomes[3] == "data loss"  # m=2 by construction
