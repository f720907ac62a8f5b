"""A physical query engine on top of the runtime.

This is the 'database systems map nicely onto dataflow systems' claim
(§2.4) made executable end to end: a small relational algebra
(:class:`Scan`/:class:`Filter`/:class:`HashJoin`/:class:`GroupCount`)
is compiled into a dataflow job whose tasks

* **really execute** the operators on numpy tables (results are
  byte-exact against :class:`~repro.apps.dbms.MiniDB`), and
* **charge the simulator** for what they touch: inputs are read through
  the region interfaces at their true sizes, hash tables live in
  Private Scratch and are probed randomly, outputs are written at their
  true result sizes.

So the same query yields both an answer and a performance profile that
responds to placement, contention, and data volume.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.apps.dbms import MiniDB
from repro.dataflow.graph import Job, Task
from repro.dataflow.properties import TaskProperties
from repro.dataflow.workspec import RegionUsage, WorkSpec
from repro.hardware.spec import ComputeKind, OpClass
from repro.memory.interfaces import AccessPattern
from repro.memory.properties import LatencyClass
from repro.api import Session
from repro.runtime.rts import JobStats

KiB = 1024


# -- plan algebra -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Scan:
    table: str


@dataclasses.dataclass(frozen=True)
class Filter:
    child: "PlanNode"
    column: str
    op: str
    value: int


@dataclasses.dataclass(frozen=True)
class HashJoin:
    left: "PlanNode"
    right: "PlanNode"
    on: str


@dataclasses.dataclass(frozen=True)
class GroupCount:
    child: "PlanNode"
    column: str


PlanNode = typing.Union[Scan, Filter, HashJoin, GroupCount]


def _children(node: PlanNode) -> typing.Tuple[PlanNode, ...]:
    if isinstance(node, Scan):
        return ()
    if isinstance(node, Filter):
        return (node.child,)
    if isinstance(node, HashJoin):
        return (node.left, node.right)
    if isinstance(node, GroupCount):
        return (node.child,)
    raise TypeError(f"unknown plan node {node!r}")


def _label(node: PlanNode) -> str:
    if isinstance(node, Scan):
        return f"scan[{node.table}]"
    if isinstance(node, Filter):
        return f"filter[{node.column}{node.op}{node.value}]"
    if isinstance(node, HashJoin):
        return f"join[{node.on}]"
    if isinstance(node, GroupCount):
        return f"group[{node.column}]"
    raise TypeError(f"unknown plan node {node!r}")


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return max(64, value.nbytes)
    if isinstance(value, list):
        return max(64, 16 * len(value))
    if isinstance(value, dict):
        return max(64, 16 * len(value))
    return 64


# -- the engine --------------------------------------------------------------


class PhysicalQueryEngine:
    """Compiles plans to jobs and runs them through a Session."""

    def __init__(self, session: Session):
        if not isinstance(session, Session):
            raise TypeError(
                "PhysicalQueryEngine needs a Session from "
                f"repro.api.connect(...), got {type(session).__name__}"
            )
        self.session = session
        self.rts = session.rts
        self.db = MiniDB()
        self._query_counter = 0

    def register_table(self, name: str, table: np.ndarray) -> None:
        """Make a table scannable by compiled plans."""
        self.db.create_table(name, table)

    # -- compilation ---------------------------------------------------------

    def compile(self, plan: PlanNode) -> typing.Tuple[Job, dict]:
        """Build the dataflow job for ``plan``.

        Returns ``(job, results)`` where ``results`` will hold each
        operator's real output after the run (keyed by task name; the
        root is also under ``"__root__"``).
        """
        self._query_counter += 1
        job = Job(f"query-{self._query_counter}")
        results: typing.Dict[str, object] = {}
        counter = {"n": 0}

        def build(node: PlanNode) -> Task:
            counter["n"] += 1
            name = f"op{counter['n']}:{_label(node)}"
            child_tasks = [build(child) for child in _children(node)]
            task = job.add_task(self._make_task(node, name, results))
            for child in child_tasks:
                job.connect(child, task)
            return task

        root = build(plan)
        results["__root_task__"] = root.name
        job.validate()
        return job, results

    def execute(self, plan: PlanNode) -> typing.Tuple[object, JobStats]:
        """Compile, run, and return (real result, simulated stats)."""
        job, results = self.compile(plan)
        stats = self.session.run(job)
        if stats is None:
            raise RuntimeError(f"job {job.name!r} was shed by admission")
        return results["__root__"], stats

    # -- operator tasks ------------------------------------------------------

    def _make_task(
        self, node: PlanNode, name: str, results: typing.Dict[str, object]
    ) -> Task:
        engine = self
        child_names = []  # filled by closure via upstream() at run time

        def record(ctx, value):
            results[ctx.task.name] = value
            if ctx.task.name == results.get("__root_task__"):
                results["__root__"] = value

        def input_values(ctx):
            return [results[u.name] for u in ctx.task.upstream()]

        if isinstance(node, Scan):
            table = self.db.scan(node.table)

            def scan_fn(ctx):
                # Streaming the base table off its home into the output.
                yield from ctx.compute_ops(0.5 * len(table))
                out = ctx.output(size=_nbytes(table))
                yield from ctx.write(out)
                record(ctx, table)

            work = WorkSpec(
                op_class=OpClass.SCALAR, ops=0.5 * max(1, len(table)),
                output=RegionUsage(_nbytes(table)),
            )
            return Task(name, work=work, fn=scan_fn,
                        properties=TaskProperties(compute=ComputeKind.CPU))

        if isinstance(node, Filter):
            def filter_fn(ctx):
                (child_value,) = input_values(ctx)
                yield from ctx.read(ctx.input())
                yield from ctx.compute_ops(1.0 * max(1, len(child_value)))
                result = engine.db.filter(
                    child_value, node.column, node.op, node.value
                )
                out = ctx.output(size=_nbytes(result))
                yield from ctx.write(out)
                record(ctx, result)

            work = WorkSpec(
                op_class=OpClass.VECTOR, ops=1.0,
                input_usage=RegionUsage(0),
                output=RegionUsage(64),
            )
            return Task(name, work=work, fn=filter_fn,
                        properties=TaskProperties(compute=ComputeKind.CPU,
                                                  mem_latency=LatencyClass.LOW))

        if isinstance(node, HashJoin):
            def join_fn(ctx):
                left_value, right_value = input_values(ctx)
                for handle in ctx.inputs:
                    yield from ctx.read(handle)
                build_side = min(left_value, right_value, key=len)
                probe_side = max(right_value, left_value, key=len)
                # The hash table is operator state in Private Scratch,
                # built and probed with random accesses (Table 3).
                scratch = ctx.private_scratch(
                    size=max(64 * KiB, _nbytes(build_side) * 2)
                )
                yield from ctx.write(
                    scratch, nbytes=_nbytes(build_side),
                    pattern=AccessPattern.RANDOM, access_size=64,
                )
                yield from ctx.read(
                    scratch, nbytes=min(scratch.region.size,
                                        max(64, 64 * len(probe_side))),
                    pattern=AccessPattern.RANDOM, access_size=64,
                )
                yield from ctx.compute_ops(
                    3.0 * max(1, len(left_value) + len(right_value))
                )
                result = engine.db.hash_join(left_value, right_value, node.on)
                out = ctx.output(size=_nbytes(result))
                yield from ctx.write(out)
                record(ctx, result)

            work = WorkSpec(
                op_class=OpClass.SCALAR, ops=3.0,
                input_usage=RegionUsage(0),
                scratch=RegionUsage(64 * KiB, pattern=AccessPattern.RANDOM),
                output=RegionUsage(64),
            )
            return Task(name, work=work, fn=join_fn,
                        properties=TaskProperties(compute=ComputeKind.CPU,
                                                  mem_latency=LatencyClass.LOW))

        if isinstance(node, GroupCount):
            def group_fn(ctx):
                (child_value,) = input_values(ctx)
                yield from ctx.read(ctx.input())
                scratch = ctx.private_scratch(
                    size=max(64 * KiB, 64 * len(set(child_value[node.column])))
                )
                yield from ctx.write(
                    scratch, nbytes=min(scratch.region.size,
                                        max(64, 64 * len(child_value))),
                    pattern=AccessPattern.RANDOM, access_size=64,
                )
                yield from ctx.compute_ops(2.0 * max(1, len(child_value)))
                result = engine.db.group_count(child_value, node.column)
                out = ctx.output(size=_nbytes(result))
                yield from ctx.write(out)
                record(ctx, result)

            work = WorkSpec(
                op_class=OpClass.SCALAR, ops=2.0,
                input_usage=RegionUsage(0),
                scratch=RegionUsage(64 * KiB, pattern=AccessPattern.RANDOM),
                output=RegionUsage(64),
            )
            return Task(name, work=work, fn=group_fn,
                        properties=TaskProperties(compute=ComputeKind.CPU,
                                                  mem_latency=LatencyClass.LOW))

        raise TypeError(f"unknown plan node {node!r}")
