"""Tests for jobs, tasks, DAG validation, and the decorator API."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import (
    Job,
    RegionUsage,
    Task,
    TaskProperties,
    ValidationError,
    WorkSpec,
    linear_job,
    task,
)
from repro.hardware.spec import ComputeKind, OpClass
from repro.memory.properties import LatencyClass


class TestGraphConstruction:
    def test_add_and_connect(self):
        job = Job("j")
        a = job.add_task(Task("a"))
        b = job.add_task(Task("b"))
        job.connect(a, b)
        assert b.upstream() == [a]
        assert a.downstream() == [b]
        assert a.qualified_name == "j/a"

    def test_duplicate_task_name_rejected(self):
        job = Job("j")
        job.add_task(Task("a"))
        with pytest.raises(ValidationError):
            job.add_task(Task("a"))

    def test_task_cannot_join_two_jobs(self):
        j1, j2 = Job("j1"), Job("j2")
        t = j1.add_task(Task("a"))
        with pytest.raises(ValidationError):
            j2.add_task(t)

    def test_connect_unknown_task_rejected(self):
        job = Job("j")
        job.add_task(Task("a"))
        with pytest.raises(ValidationError):
            job.connect("a", "ghost")

    def test_self_loop_rejected(self):
        job = Job("j")
        job.add_task(Task("a"))
        with pytest.raises(ValidationError):
            job.connect("a", "a")

    def test_cycle_detected_at_validation(self):
        job = Job("j")
        for n in ("a", "b", "c"):
            job.add_task(Task(n))
        job.connect("a", "b")
        job.connect("b", "c")
        job.connect("c", "a")
        with pytest.raises(ValidationError, match="cycle"):
            job.validate()

    def test_cycle_error_names_the_stuck_tasks(self):
        job = Job("j")
        for n in ("a", "b", "c", "after", "free"):
            job.add_task(Task(n))
        job.connect("a", "b")
        job.connect("b", "c")
        job.connect("c", "a")
        job.connect("c", "after")
        with pytest.raises(ValidationError) as info:
            job.validate()
        message = str(info.value)
        assert "cycle" in message
        assert "['a', 'b', 'c', 'after']" in message
        assert "free" not in message
        with pytest.raises(ValidationError, match="cycle"):
            job.topological_order()

    def test_repeated_connect_keeps_one_edge(self):
        job = Job("j")
        a = job.add_task(Task("a"))
        b = job.add_task(Task("b"))
        job.connect(a, b)
        job.connect("a", "b")
        assert job.edges() == [(a, b)]
        assert b.upstream() == [a]
        assert a.downstream() == [b]

    def test_diamond_order_follows_insertion_not_names(self):
        """edges() lists each task's downstream edges in task insertion
        order; topological_order() runs Kahn's algorithm generation by
        generation, each in insertion order."""
        job = Job("j")
        for n in ("d", "c", "a", "b"):
            job.add_task(Task(n))
        job.connect("c", "d")
        job.connect("a", "b")
        job.connect("b", "d")
        job.connect("a", "c")
        assert [(u.name, v.name) for u, v in job.edges()] == [
            ("c", "d"), ("a", "b"), ("a", "c"), ("b", "d"),
        ]
        assert [t.name for t in job.topological_order()] == ["a", "b", "c", "d"]
        assert [t.name for t in job.tasks["d"].upstream()] == ["c", "b"]

    def test_empty_job_invalid(self):
        with pytest.raises(ValidationError):
            Job("j").validate()

    def test_empty_names_rejected(self):
        with pytest.raises(ValidationError):
            Job("")
        with pytest.raises(ValidationError):
            Task("")

    def test_sources_sinks_topo_order(self):
        job = Job("j")
        for n in ("a", "b", "c", "d"):
            job.add_task(Task(n))
        job.connect("a", "b")
        job.connect("a", "c")
        job.connect("b", "d")
        job.connect("c", "d")
        assert [t.name for t in job.sources()] == ["a"]
        assert [t.name for t in job.sinks()] == ["d"]
        order = [t.name for t in job.topological_order()]
        assert order.index("a") < order.index("b") < order.index("d")

    def test_input_without_upstream_invalid(self):
        job = Job("j")
        job.add_task(Task("a", work=WorkSpec(input_usage=RegionUsage(0))))
        with pytest.raises(ValidationError, match="no upstream"):
            job.validate()

    def test_scratch_slot_must_be_published(self):
        job = Job("j")
        job.add_task(Task("a", work=WorkSpec(scratch_gets=("bloom",))))
        with pytest.raises(ValidationError, match="unpublished"):
            job.validate()

    def test_scratch_slot_single_publisher(self):
        job = Job("j")
        job.add_task(Task("a", work=WorkSpec(scratch_puts={"s": RegionUsage(64)})))
        job.add_task(Task("b", work=WorkSpec(scratch_puts={"s": RegionUsage(64)})))
        with pytest.raises(ValidationError, match="published by both"):
            job.validate()

    def test_global_scratch_slot_sizes_collected(self):
        job = Job("j")
        job.add_task(Task("a", work=WorkSpec(scratch_puts={"s": RegionUsage(128)})))
        assert job.global_scratch_slots() == {"s": 128}


class TestWorkSpec:
    def test_defaults(self):
        spec = WorkSpec()
        assert spec.ops == 0.0
        assert spec.output_size == 0
        assert spec.scratch_size == 0

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            WorkSpec(ops=-1)
        with pytest.raises(ValueError):
            RegionUsage(-1)
        with pytest.raises(ValueError):
            RegionUsage(10, touches=-1)
        with pytest.raises(ValueError):
            RegionUsage(10, access_size=0)

    def test_touched_bytes(self):
        assert RegionUsage(100, touches=2.5).touched_bytes == 250

    def test_scratch_gets_normalized_to_tuple(self):
        spec = WorkSpec(scratch_gets=["a", "b"])
        assert spec.scratch_gets == ("a", "b")


class TestProperties:
    def test_scratch_properties_inherit_latency(self):
        props = TaskProperties(mem_latency=LatencyClass.LOW, confidential=True)
        mem = props.scratch_properties()
        assert mem.latency is LatencyClass.LOW
        assert mem.confidential
        assert mem.sync

    def test_output_properties_persistence(self):
        props = TaskProperties(persistent=True)
        assert props.output_properties().persistent is True
        assert TaskProperties().output_properties().persistent is None

    def test_describe_matches_figure2_card(self):
        card = TaskProperties(
            compute=ComputeKind.GPU, confidential=True, mem_latency=LatencyClass.LOW
        ).describe()
        assert "compute=gpu" in card
        assert "confidential=true" in card
        assert "mem_latency=low" in card


class TestDecoratorApi:
    def test_decorator_registers_and_wires(self):
        job = Job("j")

        @task(job, work=WorkSpec(ops=10))
        def first(ctx):
            ...

        @task(job, after=first, work=WorkSpec(ops=10))
        def second(ctx):
            ...

        assert isinstance(first, Task)
        assert second.upstream() == [first]

    def test_trivial_body_means_default_behaviour(self):
        job = Job("j")

        @task(job)
        def declared_only(ctx):
            ...

        @task(job)
        def with_body(ctx):
            yield from ctx.sleep(1.0)

        assert declared_only.fn is None
        assert with_body.fn is not None

    def test_after_accepts_list_and_names(self):
        job = Job("j")

        @task(job)
        def a(ctx):
            ...

        @task(job)
        def b(ctx):
            ...

        @task(job, after=[a, "b"])
        def c(ctx):
            ...

        assert {t.name for t in c.upstream()} == {"a", "b"}

    def test_linear_job_builder(self):
        job = linear_job("lin", [
            ("s1", WorkSpec(ops=1, output=RegionUsage(64)), TaskProperties()),
            ("s2", WorkSpec(ops=1, input_usage=RegionUsage(0)), TaskProperties()),
        ])
        assert [t.name for t in job.topological_order()] == ["s1", "s2"]


@st.composite
def random_dag_edges(draw):
    n = draw(st.integers(2, 12))
    edges = []
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()):
                edges.append((i, j))
    return n, edges


class TestDagProperties:
    @settings(max_examples=100, deadline=None)
    @given(data=random_dag_edges())
    def test_forward_edges_always_validate_and_topo_sort(self, data):
        """Any graph with only forward edges is a DAG: validation passes
        and the topological order respects every edge."""
        n, edges = data
        job = Job("dag")
        for i in range(n):
            job.add_task(Task(f"t{i}"))
        for i, j in edges:
            job.connect(f"t{i}", f"t{j}")
        job.validate()
        order = {t.name: k for k, t in enumerate(job.topological_order())}
        for i, j in edges:
            assert order[f"t{i}"] < order[f"t{j}"]
