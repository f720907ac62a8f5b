"""Tests: the physical query engine returns real answers with real costs."""

import numpy as np
import pytest

from repro.apps.dbms import MiniDB
from repro.apps.dbms_exec import (
    Filter,
    GroupCount,
    HashJoin,
    PhysicalQueryEngine,
    Scan,
)
from repro.hardware import Cluster
from repro.api import connect
from repro.workloads import synthetic_table


@pytest.fixture
def engine():
    session = connect(cluster=Cluster.preset("pooled-rack", seed=61))
    physical = PhysicalQueryEngine(session)
    rng = np.random.default_rng(0)
    physical.register_table("orders", synthetic_table(rng, 20_000, key_cardinality=50))
    physical.register_table("customers", synthetic_table(rng, 500, key_cardinality=50))
    return physical


class TestCorrectness:
    def test_scan(self, engine):
        result, stats = engine.execute(Scan("orders"))
        assert stats.ok
        assert len(result) == 20_000

    def test_filter_matches_minidb(self, engine):
        plan = Filter(Scan("orders"), "c1", "<", 10)
        result, stats = engine.execute(plan)
        reference = MiniDB.filter(engine.db.scan("orders"), "c1", "<", 10)
        assert np.array_equal(result, reference)

    def test_group_count_matches_minidb(self, engine):
        plan = GroupCount(Filter(Scan("orders"), "c1", "<", 25), "c0")
        result, stats = engine.execute(plan)
        reference = MiniDB.group_count(
            MiniDB.filter(engine.db.scan("orders"), "c1", "<", 25), "c0"
        )
        assert result == reference

    def test_join_matches_minidb(self, engine):
        plan = HashJoin(
            Filter(Scan("orders"), "c1", "<", 5),
            Scan("customers"),
            on="c0",
        )
        result, stats = engine.execute(plan)
        filtered = MiniDB.filter(engine.db.scan("orders"), "c1", "<", 5)
        reference = MiniDB.hash_join(filtered, engine.db.scan("customers"), "c0")
        assert set(result) == set(reference)
        assert stats.ok

    def test_full_query_tree(self, engine):
        """join + group on top: a real multi-operator pipeline."""
        plan = GroupCount(
            Filter(Scan("orders"), "c2", ">=", 25),
            "c0",
        )
        result, stats = engine.execute(plan)
        assert sum(result.values()) == len(
            MiniDB.filter(engine.db.scan("orders"), "c2", ">=", 25)
        )
        assert len(stats.tasks) == 3


class TestPhysicalBehaviour:
    def test_no_leaks_after_queries(self, engine):
        for _ in range(3):
            engine.execute(Filter(Scan("orders"), "c1", "<", 10))
        assert engine.rts.memory.live_regions() == []

    def test_cost_scales_with_data_volume(self):
        """The same plan over 10x the rows takes materially longer
        simulated time — the physical half is not decorative."""
        times = {}
        for rows in (5_000, 50_000):
            session = connect(cluster=Cluster.preset("pooled-rack", seed=62))
            physical = PhysicalQueryEngine(session)
            rng = np.random.default_rng(1)
            physical.register_table(
                "t", synthetic_table(rng, rows, key_cardinality=64))
            _result, stats = physical.execute(
                GroupCount(Filter(Scan("t"), "c1", "<", 32), "c0"))
            times[rows] = stats.makespan
        # Fixed per-op latencies flatten the ratio below the ideal 10x.
        assert times[50_000] > times[5_000] * 2.5

    def test_selectivity_shrinks_downstream_cost(self):
        """A 1% filter makes the downstream group cheaper than a 90%
        filter — physical costs follow the *actual* intermediate sizes."""
        group_times = {}
        for threshold, tag in ((1, "selective"), (58, "permissive")):
            session = connect(cluster=Cluster.preset("pooled-rack", seed=63))
            physical = PhysicalQueryEngine(session)
            rng = np.random.default_rng(2)
            physical.register_table(
                "t", synthetic_table(rng, 50_000, key_cardinality=64))
            _result, stats = physical.execute(
                GroupCount(Filter(Scan("t"), "c1", "<", threshold), "c0"))
            group_task = next(n for n in stats.tasks if "group" in n)
            group_times[tag] = stats.tasks[group_task].duration
        assert group_times["selective"] < group_times["permissive"]

    def test_join_builds_on_smaller_side(self, engine):
        """The engine's hash table sizes off the build side; verify via
        the scratch region the join allocated."""
        cluster = engine.rts.cluster
        cluster.trace.enabled = None  # capture everything from here on
        plan = HashJoin(Scan("orders"), Scan("customers"), on="c0")
        _result, stats = engine.execute(plan)
        allocs = [e for e in cluster.trace.by_name("allocate")
                  if "join" in str(e.fields["region"])
                  and "scratch" in str(e.fields["region"])]
        assert allocs
        # customers (500 rows) is the build side; its table is ~20 KiB,
        # so the hash table must be far smaller than orders' ~800 KiB.
        assert all(e.fields["size"] < 200 * 1024 for e in allocs)

    def test_unknown_table_raises(self, engine):
        with pytest.raises(KeyError):
            engine.execute(Scan("ghost"))

    def test_duplicate_registration_rejected(self, engine):
        with pytest.raises(KeyError):
            engine.register_table(
                "orders", synthetic_table(np.random.default_rng(3), 10))
