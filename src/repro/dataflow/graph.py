"""Jobs, tasks, and the dataflow DAG (paper §2.1).

A :class:`Job` is a directed acyclic graph of :class:`Task` objects.
Edges carry the dataflow: the upstream task's output region becomes the
downstream task's input region (by ownership transfer when physically
possible — Figure 4).  Validation catches cycles, unknown endpoints,
and property contradictions before anything is submitted to the
runtime.
"""

from __future__ import annotations

import typing
from itertools import count

from repro.dataflow.properties import TaskProperties
from repro.dataflow.workspec import WorkSpec


class ValidationError(Exception):
    """The job graph is malformed."""


class Task:
    """One computational unit in a job's DAG."""

    _ids = count()

    def __init__(
        self,
        name: str,
        work: typing.Optional[WorkSpec] = None,
        properties: typing.Optional[TaskProperties] = None,
        fn: typing.Optional[typing.Callable] = None,
    ):
        if not name:
            raise ValidationError("task name may not be empty")
        self.id = next(Task._ids)
        self.name = name
        self.work = work if work is not None else WorkSpec()
        self.properties = properties if properties is not None else TaskProperties()
        #: Optional user behaviour: a generator function ``fn(ctx)`` run
        #: inside the simulation with a TaskContext (see repro.runtime.rts).
        self.fn = fn
        self.job: typing.Optional["Job"] = None

    @property
    def qualified_name(self) -> str:
        return f"{self.job.name}/{self.name}" if self.job is not None else self.name

    def upstream(self) -> typing.List["Task"]:
        """Direct predecessors of this task in the job DAG."""
        if self.job is None:
            return []
        return [self.job.tasks[n] for n in self.job._pred[self.name]]

    def downstream(self) -> typing.List["Task"]:
        """Direct successors of this task in the job DAG."""
        if self.job is None:
            return []
        return [self.job.tasks[n] for n in self.job._succ[self.name]]

    def __repr__(self) -> str:
        return f"<Task {self.qualified_name}>"


class Job:
    """A dataflow job: a named DAG of tasks plus job-wide settings."""

    _ids = count()

    def __init__(
        self,
        name: str,
        global_state_size: int = 0,
        *,
        tenant: typing.Optional[str] = None,
        priority=None,
    ):
        if not name:
            raise ValidationError("job name may not be empty")
        if global_state_size < 0:
            raise ValidationError("global_state_size must be >= 0")
        self.id = next(Job._ids)
        self.name = name
        self.tasks: typing.Dict[str, Task] = {}
        #: task name -> downstream / upstream task names, in edge order.
        self._succ: typing.Dict[str, typing.List[str]] = {}
        self._pred: typing.Dict[str, typing.List[str]] = {}
        #: Size of the job's Global State region (Table 2); 0 = none.
        self.global_state_size = global_state_size
        #: Tenancy annotations (None = decided at submission: the
        #: submitting tenant's defaults).  The dataflow layer carries
        #: them opaquely; the runtime's tenancy module interprets them.
        self.tenant = tenant
        self.priority = priority
        #: Sizes of the job's Global Scratch slots, discovered from tasks.
        self.submitted = False

    # -- construction -----------------------------------------------------

    def add_task(self, task: Task) -> Task:
        """Attach a task to this job (names must be unique)."""
        if task.name in self.tasks:
            raise ValidationError(f"duplicate task name {task.name!r} in job {self.name!r}")
        if task.job is not None:
            raise ValidationError(f"task {task.name!r} already belongs to {task.job.name!r}")
        task.job = self
        self.tasks[task.name] = task
        self._succ[task.name] = []
        self._pred[task.name] = []
        return task

    def connect(self, upstream: typing.Union[str, Task], downstream: typing.Union[str, Task]) -> None:
        """Add a dataflow edge: upstream's output feeds downstream's input.

        Connecting the same pair twice keeps one edge."""
        up = upstream.name if isinstance(upstream, Task) else upstream
        down = downstream.name if isinstance(downstream, Task) else downstream
        for name in (up, down):
            if name not in self.tasks:
                raise ValidationError(f"unknown task {name!r} in job {self.name!r}")
        if up == down:
            raise ValidationError(f"self-loop on task {up!r}")
        if down not in self._succ[up]:
            self._succ[up].append(down)
            self._pred[down].append(up)

    # -- queries -----------------------------------------------------------

    def sources(self) -> typing.List[Task]:
        """Tasks with no upstream edges."""
        return [self.tasks[n] for n, preds in self._pred.items() if not preds]

    def sinks(self) -> typing.List[Task]:
        """Tasks with no downstream edges."""
        return [self.tasks[n] for n, succs in self._succ.items() if not succs]

    def topological_order(self) -> typing.List[Task]:
        """Tasks in a dependency-respecting order (raises on cycles)."""
        order = self._kahn()
        if len(order) < len(self.tasks):
            raise ValidationError(f"job {self.name!r} contains a cycle")
        return [self.tasks[n] for n in order]

    def _kahn(self) -> typing.List[str]:
        """Kahn's algorithm by generations: the sources in insertion
        order, then each task as its last upstream is ordered.  Tasks on
        or downstream of a cycle are left out."""
        indegree = {n: len(preds) for n, preds in self._pred.items()}
        order = [n for n, d in indegree.items() if d == 0]
        for node in order:  # grows while iterated: one generation after another
            for child in self._succ[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    order.append(child)
        return order

    def edges(self) -> typing.List[typing.Tuple[Task, Task]]:
        """All dataflow edges as (upstream task, downstream task) pairs."""
        return [(self.tasks[u], self.tasks[v])
                for u, succs in self._succ.items() for v in succs]

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ValidationError` on structural problems."""
        if not self.tasks:
            raise ValidationError(f"job {self.name!r} has no tasks")
        ordered = set(self._kahn())
        if len(ordered) < len(self.tasks):
            stuck = [n for n in self.tasks if n not in ordered]
            raise ValidationError(
                f"job {self.name!r} contains a cycle: tasks {stuck} "
                f"can never become ready"
            )

        # Global-scratch slots must be published before consumption and
        # published exactly once.
        publishers: typing.Dict[str, str] = {}
        for task in self.tasks.values():
            for slot in task.work.scratch_puts:
                if slot in publishers:
                    raise ValidationError(
                        f"global scratch slot {slot!r} published by both "
                        f"{publishers[slot]!r} and {task.name!r}"
                    )
                publishers[slot] = task.name
        for task in self.tasks.values():
            for slot in task.work.scratch_gets:
                if slot not in publishers:
                    raise ValidationError(
                        f"task {task.name!r} reads unpublished global scratch "
                        f"slot {slot!r}"
                    )

        # A task expecting input must have at least one upstream edge.
        for task in self.tasks.values():
            if task.work.input_usage is not None and not self._pred[task.name]:
                raise ValidationError(
                    f"task {task.name!r} declares input usage but has no upstream"
                )

    def global_scratch_slots(self) -> typing.Dict[str, int]:
        """slot name -> size, gathered from all publishing tasks."""
        slots: typing.Dict[str, int] = {}
        for task in self.tasks.values():
            for slot, usage in task.work.scratch_puts.items():
                slots[slot] = usage.size
        return slots

    def __repr__(self) -> str:
        return f"<Job {self.name!r}: {len(self.tasks)} tasks, {len(self.edges())} edges>"
