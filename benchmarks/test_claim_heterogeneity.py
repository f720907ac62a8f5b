"""C15 — the paper's thesis, swept: complexity grows with heterogeneity.

§2.2(2): explicit placement "increases complexity, especially as more
kinds of memory become available."  We build a family of clusters with
an increasingly heterogeneous memory landscape (DRAM only → +CXL-DRAM →
+PMem → +far memory) and run the same workload under the declarative
runtime and the topology-oblivious baseline.  Pass criteria:

* on the homogeneous cluster the two are close (there is nothing to
  get wrong), and
* the naive/declarative gap widens monotonically-ish as device kinds
  are added — placement knowledge matters more the more disaggregated
  the memory gets.
"""

import pytest

from benchmarks.conftest import once
from repro.api import Session
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.hardware import calibration as cal
from repro.hardware.cluster import Cluster
from repro.hardware.spec import GiB, LinkKind
from repro.memory.interfaces import AccessPattern
from repro.metrics import Table, format_ns
from repro.runtime import RackDriver, baselines

KiB = 1024
MiB = 1024 * KiB

TIER_STAGES = [
    ("DRAM only", []),
    ("+ CXL-DRAM", ["cxl"]),
    ("+ PMem", ["cxl", "pmem"]),
    ("+ far memory", ["cxl", "pmem", "far"]),
]


def build_cluster(extra_tiers, seed):
    cluster = Cluster(seed=seed)
    cluster.add_compute(cal.make_cpu("cpu0"), node="host")
    # Keep total capacity constant-ish: local DRAM shrinks as the pool
    # diversifies (the disaggregation story: less local, more pooled).
    dram_capacity = (4 - len(extra_tiers)) * 2 * GiB
    cluster.add_memory(cal.make_dram("dram0", capacity=dram_capacity),
                       node="host")
    cluster.connect("cpu0", "dram0", LinkKind.DDR)
    if "cxl" in extra_tiers:
        cluster.add_memory(cal.make_cxl_dram("cxl0", capacity=2 * GiB),
                           node="host")
        cluster.connect("cpu0", "cxl0", LinkKind.CXL)
    if "pmem" in extra_tiers:
        cluster.add_memory(cal.make_pmem("pmem0", capacity=2 * GiB),
                           node="host")
        cluster.connect("cpu0", "pmem0", LinkKind.DDR)
    if "far" in extra_tiers:
        cluster.add_memory(cal.make_far_memory("far0", capacity=2 * GiB),
                           node="memnode")
        cluster.connect("cpu0", "far0", LinkKind.NIC)
    return cluster


def workload():
    """A scratch-heavy two-stage job: placement of the hot state decides."""
    job = Job("thesis")
    a = job.add_task(Task("build", work=WorkSpec(
        ops=1e5,
        scratch=RegionUsage(64 * MiB, touches=2.0,
                            pattern=AccessPattern.RANDOM, access_size=256),
        output=RegionUsage(16 * MiB))))
    b = job.add_task(Task("probe", work=WorkSpec(
        ops=1e5, input_usage=RegionUsage(0),
        scratch=RegionUsage(64 * MiB, touches=2.0,
                            pattern=AccessPattern.RANDOM, access_size=256))))
    job.connect(a, b)
    return job


def test_claim_heterogeneity_sweep(benchmark, report):
    results = {}

    def experiment():
        for label, tiers in TIER_STAGES:
            row = {}
            for variant in ("declarative", "naive"):
                # Average the seeded-random baseline over several seeds so
                # the sweep reflects expectation, not one lucky draw.
                seeds = (1,) if variant == "declarative" else (1, 2, 3, 4, 5)
                makespans = []
                for seed in seeds:
                    cluster = build_cluster(tiers, seed=seed)
                    rts = baselines.REGISTRY[variant](cluster)
                    session = Session(rts, RackDriver(rts))
                    makespans.append(session.run(workload()).makespan)
                row[variant] = sum(makespans) / len(makespans)
            results[label] = row
        return results

    once(benchmark, experiment)

    table = Table(
        ["memory landscape", "declarative", "naive (mean of 5 seeds)",
         "naive / declarative"],
        title="C15 (thesis): the cost of placement-obliviousness vs "
              "memory heterogeneity",
    )
    gaps = []
    for label, _tiers in TIER_STAGES:
        row = results[label]
        gap = row["naive"] / row["declarative"]
        gaps.append(gap)
        table.add_row(label, format_ns(row["declarative"]),
                      format_ns(row["naive"]), f"{gap:.2f}x")
    report("claim_heterogeneity", table.render())

    # Homogeneous: nothing to get wrong.
    assert gaps[0] == pytest.approx(1.0, abs=0.05)
    # The gap grows as kinds of memory are added...
    assert gaps[1] > gaps[0]
    assert gaps[-1] > gaps[1]
    # ...and ends at an integer factor on the fully disaggregated box.
    assert gaps[-1] > 2.0
