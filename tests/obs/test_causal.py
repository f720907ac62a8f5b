"""Causal DAG construction, critical-path attribution, stragglers, SLOs.

Unit tests build synthetic :class:`JobGraph` instances by hand so every
identity (edges point forward, buckets sum to makespan, paths validate)
is checked against known-good numbers; the integration tests run real
jobs through the RTS and assert the same identities hold on graphs the
runtime recorded.
"""

import json

import pytest

from repro.dataflow import Job, RegionUsage, Task, WorkSpec
from repro.hardware import Cluster
from repro.obs import Observability
from repro.obs.causal import (
    BUCKETS,
    CausalTracer,
    JobGraph,
    attribute_job,
    critical_path,
    detect_stragglers,
    quantile,
    validate_path,
)
from repro.obs.export import causal_flow_events, load_jsonl
from repro.obs.slo import SloPolicy
from repro.api import connect
from repro.sim.engine import Engine
from repro.sim.trace import TraceLog

KiB = 1024
MiB = 1024 * KiB


def simple_graph():
    """root -> compute [0,10] -> transfer [10,30] -> sink @30."""
    graph = JobGraph("j#1", "j", submitted_at=0.0)
    a = graph.add_node("compute_phase", "compute", 0.0, 10.0, task="t0")
    b = graph.add_node("handover", "transfer", 10.0, 30.0, task="t0",
                       parents=(a,))
    graph.finish(30.0, ok=True, parents=(b,))
    return graph, a, b


class TestJobGraph:
    def test_root_is_node_zero(self):
        graph = JobGraph("k", "job", submitted_at=5.0)
        assert graph.root == 0
        root = graph.nodes[0]
        assert root.kind == "submit"
        assert root.begin == root.end == 5.0

    def test_bare_parent_ids_get_seq_edges(self):
        graph = JobGraph("k", "j", 0.0)
        a = graph.add_node("x", "compute", 0.0, 1.0)
        b = graph.add_node("y", "compute", 1.0, 2.0, parents=(a,))
        assert graph.in_edges[b] == [(a, "seq")]

    def test_parentless_node_is_chained_to_root(self):
        graph = JobGraph("k", "j", 0.0)
        a = graph.add_node("x", "compute", 0.0, 1.0)
        assert graph.in_edges[a] == [(graph.root, "spawn")]

    def test_detached_node_gets_no_root_link(self):
        graph = JobGraph("k", "j", 0.0)
        a = graph.add_node("adm", "admission_backoff", 0.0, 1.0,
                           detached=True)
        assert a not in graph.in_edges

    def test_add_edge_rejects_backward_and_dangling(self):
        graph = JobGraph("k", "j", 0.0)
        a = graph.add_node("x", "compute", 0.0, 1.0)
        b = graph.add_node("y", "compute", 1.0, 2.0, parents=(a,))
        assert not graph.add_edge(b, a, "seq")      # backward
        assert not graph.add_edge(a, a, "seq")      # self
        assert not graph.add_edge(999, b, "seq")    # dangling src
        assert not graph.add_edge(None, b, "seq")   # dropped parent
        assert graph.in_edges[b] == [(a, "seq")]    # DAG untouched

    def test_dropped_parent_falls_back_to_root_spawn(self):
        # A parent dropped at the node cap comes back as None; the child
        # must still be reachable from the root.
        graph = JobGraph("k", "j", 0.0)
        child = graph.add_node("y", "compute", 1.0, 2.0, parents=(None,))
        assert graph.in_edges[child] == [(graph.root, "spawn")]

    def test_node_cap_drops_and_counts(self):
        graph = JobGraph("k", "j", 0.0, max_nodes=3)
        a = graph.add_node("x", "compute", 0.0, 1.0)
        b = graph.add_node("y", "compute", 1.0, 2.0, parents=(a,))
        assert graph.add_node("z", "compute", 2.0, 3.0, parents=(b,)) is None
        assert graph.dropped_nodes == 1
        # finish still lands (steals headroom) and the sum identity holds.
        graph.finish(5.0, ok=True, parents=(b,))
        att = attribute_job(graph)
        assert sum(att["buckets"].values()) == pytest.approx(att["makespan"])
        assert att["buckets"]["unattributed"] == pytest.approx(3.0)
        assert att["dropped_nodes"] == 1

    def test_finish_is_idempotent(self):
        graph, _a, b = simple_graph()
        first = graph.sink
        assert graph.finish(99.0, ok=False) == first
        assert graph.finished_at == 30.0
        assert graph.ok is True

    def test_makespan_requires_finish(self):
        graph = JobGraph("k", "j", 10.0)
        assert graph.makespan is None
        graph.finish(25.0, ok=True)
        assert graph.makespan == 15.0

    def test_dict_roundtrip_through_json(self):
        graph, _a, _b = simple_graph()
        graph.admission_wait_ns = 7.0
        graph.fields["est_makespan"] = 12.5
        data = json.loads(json.dumps(graph.to_dict()))
        clone = JobGraph.from_dict(data)
        assert clone.key == graph.key
        assert clone.job == graph.job
        assert clone.sink == graph.sink
        assert clone.admission_wait_ns == 7.0
        assert clone.fields["est_makespan"] == 12.5
        assert clone.edge_list() == graph.edge_list()
        assert attribute_job(clone)["buckets"] == attribute_job(graph)["buckets"]


class TestCriticalPath:
    def test_walks_root_to_sink(self):
        graph, a, b = simple_graph()
        path = critical_path(graph)
        assert path == [graph.root, a, b, graph.sink]
        assert validate_path(graph, path)

    def test_unfinished_graph_has_no_path(self):
        graph = JobGraph("k", "j", 0.0)
        graph.add_node("x", "compute", 0.0, 1.0)
        assert critical_path(graph) == []
        assert attribute_job(graph) is None

    def test_follows_the_latest_finishing_predecessor(self):
        # Fan-in: fast [0,5] and slow [0,20] both feed the sink; the
        # binding chain goes through the slow branch.
        graph = JobGraph("k", "j", 0.0)
        fast = graph.add_node("x", "compute", 0.0, 5.0, task="fast")
        slow = graph.add_node("x", "compute", 0.0, 20.0, task="slow")
        graph.finish(20.0, ok=True, parents=(fast, slow))
        path = critical_path(graph)
        assert slow in path and fast not in path

    def test_validate_rejects_fabricated_paths(self):
        graph, a, b = simple_graph()
        assert not validate_path(graph, [])
        assert not validate_path(graph, [graph.root, b, graph.sink])  # no edge
        assert not validate_path(graph, [a, b, graph.sink])  # wrong start


class TestAttribution:
    def test_buckets_sum_to_makespan(self):
        graph, _a, _b = simple_graph()
        att = attribute_job(graph)
        assert att["makespan"] == 30.0
        assert att["buckets"]["compute"] == 10.0
        assert att["buckets"]["transfer"] == 20.0
        assert sum(att["buckets"].values()) == pytest.approx(30.0)

    def test_gaps_become_unattributed(self):
        graph = JobGraph("k", "j", 0.0)
        a = graph.add_node("x", "compute", 5.0, 10.0)  # 5ns gap after root
        graph.finish(10.0, ok=True, parents=(a,))
        att = attribute_job(graph)
        assert att["buckets"]["unattributed"] == pytest.approx(5.0)
        assert att["buckets"]["compute"] == pytest.approx(5.0)

    def test_tail_gap_is_unattributed(self):
        graph = JobGraph("k", "j", 0.0)
        a = graph.add_node("x", "compute", 0.0, 4.0)
        graph.finish(10.0, ok=True, parents=(a,))  # 6ns unexplained tail
        att = attribute_job(graph)
        assert att["buckets"]["unattributed"] == pytest.approx(6.0)
        assert sum(att["buckets"].values()) == pytest.approx(10.0)

    def test_overlapped_step_contributes_nothing(self):
        # B is entirely inside A's interval: only the uncovered part of
        # the timeline may be charged, so B adds zero.
        graph = JobGraph("k", "j", 0.0)
        a = graph.add_node("x", "compute", 0.0, 10.0)
        b = graph.add_node("y", "transfer", 2.0, 8.0, parents=(a,))
        graph.finish(10.0, ok=True, parents=(b,))
        att = attribute_job(graph)
        assert att["buckets"]["transfer"] == 0.0
        assert att["buckets"]["compute"] == pytest.approx(10.0)

    def test_partial_overlap_charges_only_the_uncovered_part(self):
        graph = JobGraph("k", "j", 0.0)
        a = graph.add_node("x", "compute", 0.0, 10.0)
        b = graph.add_node("y", "transfer", 6.0, 18.0, parents=(a,))
        graph.finish(18.0, ok=True, parents=(b,))
        att = attribute_job(graph)
        assert att["buckets"]["compute"] == pytest.approx(10.0)
        assert att["buckets"]["transfer"] == pytest.approx(8.0)

    def test_unknown_bucket_degrades_to_unattributed(self):
        graph = JobGraph("k", "j", 0.0)
        a = graph.add_node("x", "not_a_bucket", 0.0, 10.0)
        graph.finish(10.0, ok=True, parents=(a,))
        att = attribute_job(graph)
        assert att["buckets"]["unattributed"] == pytest.approx(10.0)

    def test_per_task_contributions(self):
        graph, _a, _b = simple_graph()
        att = attribute_job(graph)
        assert att["per_task"]["t0"]["total"] == pytest.approx(30.0)
        assert att["per_task"]["t0"]["buckets"] == {
            "compute": 10.0, "transfer": 20.0,
        }

    def test_transfer_splits_across_bottleneck_links(self):
        graph = JobGraph("k", "j", 0.0)
        a = graph.add_node(
            "handover", "transfer", 0.0, 10.0, task="t0",
            copies=[
                {"src": "a", "dst": "b", "duration": 3.0, "link": "tor"},
                {"src": "a", "dst": "c", "duration": 1.0, "link": "pcie0"},
            ],
        )
        graph.finish(10.0, ok=True, parents=(a,))
        att = attribute_job(graph)
        assert att["link_share"]["tor"] == pytest.approx(7.5)
        assert att["link_share"]["pcie0"] == pytest.approx(2.5)

    def test_transfer_without_copies_uses_link_field(self):
        graph = JobGraph("k", "j", 0.0)
        a = graph.add_node("memory_phase", "transfer", 0.0, 4.0,
                           link="gddr1")
        graph.finish(4.0, ok=True, parents=(a,))
        att = attribute_job(graph)
        assert att["link_share"] == {"gddr1": 4.0}


class TestQuantileHelper:
    def test_empty_and_extremes(self):
        assert quantile([], 0.5) == 0.0
        assert quantile([3.0], 0.5) == 3.0
        assert quantile([1.0, 9.0], 0.0) == 1.0
        assert quantile([1.0, 9.0], 1.0) == 9.0

    def test_linear_interpolation(self):
        assert quantile([0.0, 10.0], 0.5) == pytest.approx(5.0)
        assert quantile([0.0, 10.0, 20.0, 30.0], 0.5) == pytest.approx(15.0)


def synthetic_attribution(key, task_ns, makespan):
    """An attribute_job-shaped dict with one compute bucket per task."""
    return {
        "job": "j", "key": key, "ok": True, "makespan": makespan,
        "buckets": {}, "path": [], "steps": [], "link_share": {},
        "per_task": {
            task: {"total": ns, "device": f"dev-{task}",
                   "buckets": {"compute": ns}}
            for task, ns in task_ns.items()
        },
    }


class TestStragglerDetection:
    def test_flags_the_robust_outlier(self):
        atts = [
            synthetic_attribution(f"j#{i}", {"map": 100.0 + i}, 1000.0)
            for i in range(5)
        ]
        atts.append(synthetic_attribution("j#5", {"map": 900.0}, 1000.0))
        flagged = detect_stragglers(atts)
        tasks = {(f["scope"], f["key"]) for f in flagged}
        assert ("task", "j#5") in tasks
        assert all(f["key"] == "j#5" for f in flagged)
        worst = flagged[0]
        assert worst["ns"] == 900.0
        assert worst["cohort_size"] == 6
        assert worst["cohort_median"] < 200.0

    def test_small_cohorts_are_skipped(self):
        atts = [
            synthetic_attribution(f"j#{i}", {"map": v}, 1000.0)
            for i, v in enumerate((100.0, 100.0, 900.0))
        ]
        assert detect_stragglers(atts, min_cohort=4) == []

    def test_low_share_outliers_are_not_flagged(self):
        # 9x the cohort median but only 0.9% of the makespan: noise.
        atts = [
            synthetic_attribution(f"j#{i}", {"map": 1.0}, 1000.0)
            for i in range(5)
        ]
        atts.append(synthetic_attribution("j#5", {"map": 9.0}, 1000.0))
        assert detect_stragglers(atts, min_share=0.05) == []


class TestCausalTracer:
    def make_obs(self, enabled=("causal",)):
        return Observability(trace=TraceLog(enabled=set(enabled)),
                             engine=Engine())

    def test_disabled_category_records_nothing(self):
        obs = self.make_obs(enabled=())
        assert obs.causal.job_begin("k", "j") is None
        obs.causal.note_fault("device_down", "gpu0", 5.0)
        assert obs.causal.last_fault("gpu0") is None

    def test_job_begin_uses_engine_clock_by_default(self):
        obs = self.make_obs()
        obs.engine._now = 42.0
        graph = obs.causal.job_begin("k", "j")
        assert graph.submitted_at == 42.0
        assert obs.causal.jobs["k"] is graph

    def test_oldest_jobs_evicted_at_cap(self):
        obs = self.make_obs()
        tracer = CausalTracer(obs, max_jobs=2)
        for i in range(4):
            tracer.job_begin(f"k{i}", "j")
        assert list(tracer.jobs) == ["k2", "k3"]
        assert tracer.dropped_jobs == 2

    def test_slot_release_context(self):
        obs = self.make_obs()
        tracer = obs.causal
        assert tracer.last_slot_release("gpu0") is None
        tracer.note_slot_release("gpu0", "k", 7, "j/t0")
        assert tracer.last_slot_release("gpu0") == ("k", 7, "j/t0")

    def test_last_fault_returns_most_recent_for_target(self):
        obs = self.make_obs()
        tracer = obs.causal
        tracer.note_fault("device_down", "gpu0", 1.0)
        tracer.note_fault("drain", "gpu1", 2.0)
        tracer.note_fault("repair_started", "gpu0", 3.0)
        assert tracer.last_fault("gpu0")["kind"] == "repair_started"
        assert tracer.last_fault("gpu1")["kind"] == "drain"
        assert tracer.last_fault("nope") is None

    def test_rejections_counted_even_when_disabled(self):
        obs = self.make_obs(enabled=())
        obs.causal.note_rejection("owner", "region", "capacity", 1.0)
        assert obs.causal.rejections == 1
        assert len(obs.causal.rejection_log) == 0
        on = self.make_obs()
        on.causal.note_rejection("owner", "region", "capacity", 1.0)
        assert len(on.causal.rejection_log) == 1

    def test_link_retry_annotates_both_graphs(self):
        obs = self.make_obs()
        first = obs.causal.job_begin("j#1", "j")
        second = obs.causal.job_begin("j#2", "j")
        obs.causal.link_retry("j#1", "j#2")
        assert second.fields["retry_of"] == "j#1"
        assert first.fields["retried_as"] == "j#2"


@pytest.fixture
def traced_run():
    """A real two-job run with causal tracing and an SLO policy on."""
    cluster = Cluster.preset("pooled-rack")
    cluster.obs.slo.set_policy("pipe", target_ns=1e9, objective=0.9)
    session = connect(cluster=cluster)
    for _ in range(2):
        job = Job("pipe")
        a = job.add_task(Task("produce", work=WorkSpec(
            ops=1e5, output=RegionUsage(2 * MiB))))
        b = job.add_task(Task("mid", work=WorkSpec(
            ops=5e4, input_usage=RegionUsage(0),
            output=RegionUsage(1 * MiB))))
        c = job.add_task(Task("sink", work=WorkSpec(
            ops=1e4, input_usage=RegionUsage(0))))
        job.connect(a, b)
        job.connect(b, c)
        stats = session.run(job)
        assert stats.ok
    return cluster


class TestRuntimeIntegration:
    def test_rts_records_a_valid_attributable_graph(self, traced_run):
        graphs = list(traced_run.obs.causal.jobs.values())
        assert len(graphs) == 2
        for graph in graphs:
            att = attribute_job(graph)
            assert att["ok"] is True
            assert validate_path(graph, att["path"])
            assert sum(att["buckets"].values()) == pytest.approx(
                att["makespan"], rel=1e-6
            )
            # A pipeline spends real time in at least compute + transfer.
            assert att["buckets"]["compute"] > 0.0
            assert att["buckets"]["transfer"] > 0.0
            assert set(att["per_task"]) <= {
                "pipe/produce", "pipe/mid", "pipe/sink",
            }

    def test_edges_point_forward_in_emission_order(self, traced_run):
        for graph in traced_run.obs.causal.jobs.values():
            for src, dst, _kind in graph.edge_list():
                assert src < dst

    def test_dashboard_renders_attribution_and_slo_sections(self, traced_run):
        text = traced_run.obs.dashboard()
        assert "Critical-path attribution" in text
        assert "SLO" in text
        assert "pipe" in text
        # The job filter keeps only matching attribution rows.
        filtered = traced_run.obs.dashboard(job="other")
        assert "pipe" not in filtered

    def test_slo_recorded_per_job_name(self, traced_run):
        snap = traced_run.obs.slo.snapshot()
        assert snap["pipe"]["total"] == 2
        assert snap["pipe"]["missed"] == 0
        assert snap["pipe"]["p50"] > 0.0

    def test_disabled_causal_run_records_no_graphs(self):
        cluster = Cluster.preset("pooled-rack")
        cluster.obs.enable("job", "task")  # causal off
        session = connect(cluster=cluster)
        job = Job("quiet")
        job.add_task(Task("t", work=WorkSpec(ops=1e4)))
        assert session.run(job).ok
        assert cluster.obs.causal.jobs == {}

    def test_jsonl_roundtrip_reattributes_identically(
        self, traced_run, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        traced_run.obs.export_jsonl(str(path))
        loaded = load_jsonl(str(path))
        assert len(loaded["causal"]["jobs"]) == 2
        assert loaded["slo"]["pipe"]["total"] == 2
        for key, live in traced_run.obs.causal.jobs.items():
            clone = JobGraph.from_dict(loaded["causal"]["jobs"][key])
            assert attribute_job(clone)["buckets"] == pytest.approx(
                attribute_job(live)["buckets"]
            )

    def test_perfetto_flow_events_pair_up(self, traced_run):
        events = causal_flow_events(traced_run.obs.causal.data())
        starts = {e["id"]: e for e in events if e["ph"] == "s"}
        finishes = {e["id"]: e for e in events if e["ph"] == "f"}
        assert starts and set(starts) == set(finishes)
        n_edges = sum(
            len(g.edge_list())
            for g in traced_run.obs.causal.jobs.values()
        )
        assert len(starts) == n_edges
        for fid, start in starts.items():
            assert finishes[fid]["ts"] >= start["ts"]  # arrows go forward
            assert finishes[fid]["bp"] == "e"

    def test_write_chrome_trace_includes_causal_rows(
        self, traced_run, tmp_path
    ):
        path = tmp_path / "trace.json"
        traced_run.obs.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        rows = [e["args"]["name"] for e in doc["traceEvents"]
                if e["ph"] == "M"]
        assert any(r.startswith("causal:pipe/") for r in rows)
        phs = {e["ph"] for e in doc["traceEvents"]}
        assert {"s", "f"} <= phs


class TestSloPolicy:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SloPolicy(target_ns=0.0)
        with pytest.raises(ValueError):
            SloPolicy(target_ns=1.0, objective=1.0)

    def test_budget_and_burn_accounting(self):
        obs = Observability()
        obs.slo.set_policy("train", target_ns=100.0, objective=0.9)
        for latency in (50.0, 80.0, 150.0, 60.0, 90.0, 70.0, 40.0, 30.0,
                        20.0, 10.0):
            obs.slo.record("train", latency)
        snap = obs.slo.snapshot()["train"]
        assert snap["total"] == 10
        assert snap["missed"] == 1  # only the 150ns job blew the target
        assert snap["miss_fraction"] == pytest.approx(0.1)
        # budget is 10%; misses arrive exactly at budget speed.
        assert snap["burn_rate"] == pytest.approx(1.0)
        assert snap["budget_remaining"] == pytest.approx(0.0)

    def test_failures_always_miss(self):
        obs = Observability()
        obs.slo.set_policy("train", target_ns=1e9, objective=0.5)
        obs.slo.record("train", 10.0, ok=False)
        snap = obs.slo.snapshot()["train"]
        assert snap["failures"] == 1
        assert snap["missed"] == 1

    def test_workloads_without_policy_only_track_percentiles(self):
        obs = Observability()
        obs.slo.record("adhoc", 10.0)
        snap = obs.slo.snapshot()["adhoc"]
        assert snap["p50"] == 10.0
        assert "burn_rate" not in snap
