"""Tests for the federated session (repro.federation.session).

``connect(racks=N)`` must behave like N copies of the single-rack
session behind one front door: tenants span racks, the drive ends
once every routed job has settled and every drain is done, and racks
join/drain elastically without job-level failures.
"""

import pytest

from repro.api import connect
from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.federation import FederatedSession, RackState

MiB = 1 << 20


def pipeline(name, ops=1e5, payload=2 * MiB):
    job = Job(name)
    a = job.add_task(Task("a", work=WorkSpec(
        ops=ops, output=RegionUsage(payload))))
    b = job.add_task(Task("b", work=WorkSpec(
        ops=ops, input_usage=RegionUsage(0))))
    job.connect(a, b)
    return job


class TestConnect:
    def test_connect_racks_returns_federated_session(self):
        fed = connect("pooled-rack", racks=2, seed=9)
        assert isinstance(fed, FederatedSession)
        assert [r.name for r in fed.racks] == ["rack0", "rack1"]
        # One engine, N clusters: every rack shares the clock.
        assert all(r.cluster.engine is fed.engine for r in fed.racks)
        clusters = {id(r.cluster) for r in fed.racks}
        assert len(clusters) == 2

    def test_racks_rejects_conflicting_arguments(self):
        from repro.hardware import Cluster

        with pytest.raises(ValueError):
            connect(racks=2, cluster=Cluster.preset("pooled-rack"))
        with pytest.raises(ValueError):
            from repro.runtime import TenantRegistry

            connect(racks=2, tenants=TenantRegistry())

    def test_single_job_runs_to_stats(self):
        fed = connect("pooled-rack", racks=2, seed=9)
        stats = fed.run(pipeline("solo"))
        assert stats.ok
        assert not fed.job_failures()

    def test_run_trace_accounts_every_arrival(self):
        fed = connect("pooled-rack", racks=3, seed=9, max_concurrent=4)
        fed.register_tenant("web", weight=2.0)
        arrivals = [
            (10_000.0 * i, f"j{i}", (lambda i=i: pipeline(f"j{i}")), "web")
            for i in range(9)
        ]
        handles = fed.run_trace(arrivals)
        assert len(handles) == 9
        assert all(h.accounted for h in handles)
        assert not fed.job_failures()
        # Round-robin default: the load spread over all three racks.
        spread = {h.rack for h in handles}
        assert spread == {"rack0", "rack1", "rack2"}


class TestTenancy:
    def test_tenants_span_all_racks(self):
        fed = connect("pooled-rack", racks=2, seed=9)
        fed.register_tenant("web", weight=3.0, priority="interactive",
                            slo_target_ns=1e6)
        for rack in fed.racks:
            assert "web" in rack.driver.tenants
            assert "tenant:web" in rack.obs.slo
        report = fed.tenant_report()
        assert set(report) == {"rack0", "rack1"}
        assert all("web" in per_rack for per_rack in report.values())

    def test_late_joining_rack_inherits_tenants(self):
        fed = connect("pooled-rack", racks=1, seed=9)
        fed.register_tenant("web", weight=2.0, slo_target_ns=1e6)
        newcomer = fed.add_rack()
        assert newcomer.name == "rack1"
        assert "web" in newcomer.driver.tenants
        assert "tenant:web" in newcomer.obs.slo


class TestElasticity:
    def test_add_rack_becomes_routable(self):
        fed = connect("pooled-rack", racks=1, seed=9)
        assert len(fed.registry.routable_racks()) == 1
        fed.add_rack()
        assert len(fed.registry.routable_racks()) == 2

    def test_drain_completes_under_load_without_failures(self):
        fed = connect("pooled-rack", racks=2, seed=9, max_concurrent=2)
        fed.register_tenant("web")
        drained = {}

        def chaos():
            yield fed.engine.timeout(20_000.0)
            done = fed.drain_rack("rack0")
            drained["at"] = yield done

        fed.engine.process(chaos(), name="chaos")
        arrivals = [
            (5_000.0 * i, f"j{i}", (lambda i=i: pipeline(f"j{i}", ops=3e5)),
             "web")
            for i in range(10)
        ]
        handles = fed.run_trace(arrivals)
        # The drain finished, the rack left the registry, and not one
        # job — including those already on rack0 — failed.
        assert drained["at"] == "rack0"
        assert "rack0" not in fed.registry
        assert all(h.accounted for h in handles)
        assert not fed.job_failures()
        assert fed.registry.stats.drains_completed == 1
        # The drained rack's nodes went through the graceful machinery.
        rack0 = next(r for r in fed._all_racks if r.name == "rack0")
        assert rack0.monitor.stats.drains_started >= 1

    def test_draining_rack_receives_no_new_routes(self):
        fed = connect("pooled-rack", racks=2, seed=9)
        fed.registry.begin_drain("rack0")
        assert fed.registry.state("rack0") is RackState.DRAINING
        for i in range(4):
            handle = fed.submit(pipeline(f"j{i}"))
            assert handle.rack == "rack1"
        fed.run()
        assert not fed.job_failures()


class TestReporting:
    def test_report_covers_router_registry_and_racks(self):
        fed = connect("pooled-rack", racks=2, seed=9)
        fed.run(pipeline("j"))
        report = fed.report()
        assert report["router"]["routed"] == 1
        assert report["registry"]["registered"] == 2
        assert set(report["racks"]) == {"rack0", "rack1"}
        total = sum(r["completed"] for r in report["racks"].values())
        assert total == 1

    def test_dashboard_renders_federation_sections(self):
        fed = connect("pooled-rack", racks=2, seed=9)
        fed.run(pipeline("j"))
        text = fed.dashboard()
        assert "Federation racks" in text
        assert "Federation routing decisions" in text
        assert "rack0" in text and "rack1" in text
