"""T3 — reproduce Table 3: application classes on the Memory Regions.

Run one representative job per application class (DBMS, ML/AI, HPC,
Streaming) on the pooled rack and census which region types each class
actually allocated.  Pass criterion: every class populates the columns
Table 3 says it uses — private scratch for per-task state, global state
for coordination, global scratch where the class exchanges/caches data.
"""

from benchmarks.conftest import once
from repro.apps import (
    build_hospital_job,
    build_query_job,
    build_stencil_job,
    build_training_job,
    region_census,
)
from repro.hardware import Cluster
from repro.memory.regions import RegionType
from repro.metrics import Table, format_ns
from repro.api import connect

KiB = 1024
MiB = 1024 * KiB

APPS = {
    "DBMS": lambda: build_query_job(n_rows=200_000),
    "ML/AI": lambda: build_training_job(
        n_samples=20_000, model_bytes=8 * MiB, epochs=2),
    "HPC": lambda: build_stencil_job(
        n_workers=4, grid_bytes=16 * MiB, iterations=2),
    "Streaming": lambda: build_hospital_job(n_frames=32),
}

#: Table 3: which region columns each class is described as using.
PAPER_EXPECTATION = {
    "DBMS": {RegionType.PRIVATE_SCRATCH, RegionType.GLOBAL_STATE,
             RegionType.GLOBAL_SCRATCH},
    "ML/AI": {RegionType.PRIVATE_SCRATCH, RegionType.GLOBAL_STATE,
              RegionType.GLOBAL_SCRATCH},
    "HPC": {RegionType.PRIVATE_SCRATCH, RegionType.GLOBAL_STATE,
            RegionType.GLOBAL_SCRATCH},
    "Streaming": {RegionType.PRIVATE_SCRATCH, RegionType.GLOBAL_STATE},
}


def test_table3_application_mapping(benchmark, report):
    results = {}

    def experiment():
        for app_name, builder in APPS.items():
            cluster = Cluster.preset("pooled-rack",
                                     trace_categories={"memory"})
            session = connect(cluster=cluster)
            stats = session.run(builder())
            assert stats.ok, app_name
            results[app_name] = (region_census(cluster.trace), stats)
        return results

    once(benchmark, experiment)

    table = Table(
        ["", "Priv. Scratch", "Glob. State", "Glob. Scratch",
         "in/out edges", "makespan"],
        title="Table 3 (reproduced): region allocations per application class",
    )
    for app_name, (census, stats) in results.items():
        edges = census.get(RegionType.OUTPUT, 0) + census.get(RegionType.INPUT, 0)
        table.add_row(
            app_name,
            census.get(RegionType.PRIVATE_SCRATCH, 0),
            census.get(RegionType.GLOBAL_STATE, 0),
            census.get(RegionType.GLOBAL_SCRATCH, 0),
            edges,
            format_ns(stats.makespan),
        )
    report("table3_apps", table.render())

    for app_name, expected_types in PAPER_EXPECTATION.items():
        census, _stats = results[app_name]
        for region_type in expected_types:
            assert census.get(region_type, 0) >= 1, (app_name, region_type)

    # Every job ran leak-free (RTS duty 3: dealloc after last owner).
    for app_name, (_census, stats) in results.items():
        assert stats.regions_allocated > 0
