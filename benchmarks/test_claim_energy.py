"""C11 — §1's sustainability motivation, quantified.

The paper opens with two energy-relevant facts: *moving data is the
dominating cost factor in data centers*, and overprovisioned per-node
memory burns resources around the clock (the carbon/cost talk it cites).
Two measurements on our substrate:

1. **Provisioning energy** — the standing DRAM power of per-node
   overprovisioning vs. a pool sized for the pooled peak (re-using the
   Figure 1 demand series).
2. **Movement energy** — the same workload run with the paper's
   zero-copy ownership handover vs. the traditional copy plane: copies
   are pure data movement, and the meter prices exactly how much energy
   the programming model saves.
"""

import numpy as np

from benchmarks.conftest import once
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.hardware import Cluster
from repro.metrics import Table, format_bytes
from repro.metrics.costs import required_provisioning
from repro.metrics.energy import STATIC_W_PER_GIB, EnergyMeter
from repro.hardware.spec import MemoryKind
from repro.api import connect
from repro.runtime.transfer import HandoverManager

MiB = 1024 * 1024
GiB = 1024 * MiB


def test_claim_energy_provisioning(benchmark, report):
    from benchmarks.test_fig1_pooling import make_demand_series

    def experiment():
        rng = np.random.default_rng(1234)
        series = make_demand_series(rng)
        comparison = required_provisioning(series, headroom=0.1)
        w_per_b = STATIC_W_PER_GIB[MemoryKind.DRAM] / GiB
        return {
            "static_w": comparison.static_bytes * w_per_b,
            "pooled_w": comparison.pooled_bytes * w_per_b,
            "savings": comparison.savings_fraction,
        }

    result = once(benchmark, experiment)
    table = Table(["provisioning", "standing DRAM power"],
                  title="C11 (reproduced): standing power of provisioned DRAM")
    table.add_row("per-node peaks (Fig. 1a)", f"{result['static_w']:.1f} W")
    table.add_row("pooled peak (Fig. 1b)", f"{result['pooled_w']:.1f} W")
    table.add_row("saved", f"{result['savings']:.1%}")
    report("claim_energy_provisioning", table.render())
    assert 0.15 <= result["savings"] <= 0.55


class _CopyAlways(HandoverManager):
    def can_hand_over(self, region, to_compute):
        return False


def test_claim_energy_zero_copy(benchmark, report):
    """Ownership handover avoids the movement energy of copies."""

    def run(force_copy: bool):
        cluster = Cluster.preset("pooled-rack", seed=71)
        session = connect(cluster=cluster)
        rts = session.rts
        if force_copy:
            rts.handover = _CopyAlways(
                cluster, rts.memory, rts.costmodel, rts.placement
            )
        meter = EnergyMeter(cluster)
        job = Job("energy")
        previous = None
        for stage in range(5):
            task = job.add_task(Task(f"s{stage}", work=WorkSpec(
                ops=1e4,
                input_usage=RegionUsage(0, touches=0.1) if previous else None,
                output=RegionUsage(64 * MiB) if stage < 4 else None,
            )))
            if previous is not None:
                job.connect(previous, task)
            previous = task
        stats = session.run(job)
        breakdown = meter.read()
        return {
            "moved": stats.bytes_copied,
            "memory_dynamic": breakdown.memory_dynamic,
            "fabric_dynamic": breakdown.fabric_dynamic,
        }

    def experiment():
        return {"zero-copy handover": run(False),
                "copy data plane": run(True)}

    results = once(benchmark, experiment)
    table = Table(
        ["data plane", "bytes copied", "memory energy", "fabric energy"],
        title="C11 follow-on: movement energy of a 5-stage pipeline",
    )
    for name, r in results.items():
        table.add_row(name, format_bytes(r["moved"]),
                      f"{r['memory_dynamic'] * 1e3:.3f} mJ",
                      f"{r['fabric_dynamic'] * 1e3:.3f} mJ")
    report("claim_energy_movement", table.render())

    move = results["zero-copy handover"]
    copy = results["copy data plane"]
    assert move["moved"] == 0
    assert copy["moved"] > 0
    assert copy["memory_dynamic"] > 1.5 * move["memory_dynamic"]
    assert copy["fabric_dynamic"] >= move["fabric_dynamic"]
