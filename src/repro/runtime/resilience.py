"""Job-level fault tolerance: retries + checkpoint-pruned re-execution.

Paper §3, Challenge 8(3): node faults are routine, and *"if not handled
properly, failures may lead to data loss and force applications to stop
and restart"*.  This module implements the application-facing half of
the answer (the memory-level half — replication/erasure coding — lives
in :mod:`repro.ft`):

* :class:`ResilientRuntime` re-executes a failed job up to
  ``max_attempts`` times, releasing all of the failed attempt's regions
  first;
* tasks whose property card says ``persistent=True`` act as
  **checkpoints**: their outputs were written to durable media, so a
  retry *prunes* the DAG — each completed checkpoint task is replaced
  by a cheap ``restore`` source re-reading the persisted bytes, and
  every ancestor that only fed checkpointed paths is dropped (lineage
  truncation, the Spark/Ray recovery model generalized to regions).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.dataflow.graph import Job, Task
from repro.dataflow.properties import TaskProperties
from repro.dataflow.workspec import RegionUsage, WorkSpec
from repro.hardware.spec import OpClass
from repro.runtime.rts import JobStats, RuntimeSystem


class JobAbandoned(Exception):
    """The job kept failing past the retry budget."""

    def __init__(self, job_name: str, attempts: int, last_error: BaseException):
        super().__init__(
            f"job {job_name!r} failed {attempts} times; last error: {last_error!r}"
        )
        self.attempts = attempts
        self.last_error = last_error


@dataclasses.dataclass
class ResilienceStats:
    attempts: int = 0
    failures: int = 0
    wasted_time_ns: float = 0.0  # simulated time spent in failed attempts
    tasks_skipped_by_checkpoints: int = 0
    checkpoints_used: int = 0


class ResilientRuntime:
    """Retrying, checkpoint-aware wrapper around a :class:`RuntimeSystem`."""

    def __init__(self, rts: RuntimeSystem, max_attempts: int = 3):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.rts = rts
        self.max_attempts = max_attempts
        self.stats = ResilienceStats()

    def run_job(
        self, job_factory: typing.Callable[[], Job]
    ) -> JobStats:
        """Run ``job_factory()`` to success, retrying on failure.

        The factory is called once per attempt (jobs are single-use).
        Completed ``persistent=True`` tasks of a failed attempt are
        carried into the next attempt as checkpoints.
        """
        checkpoints: typing.Dict[str, int] = {}  # task name -> output size
        last_error: typing.Optional[BaseException] = None
        job_name: typing.Optional[str] = None
        prev_key: typing.Optional[str] = None

        for _attempt in range(self.max_attempts):
            self.stats.attempts += 1
            job = job_factory()
            job_name = job.name
            if checkpoints:
                job, skipped = prune_with_checkpoints(job, checkpoints)
                self.stats.tasks_skipped_by_checkpoints += skipped
                self.stats.checkpoints_used += sum(
                    1 for name in checkpoints if name in job.tasks
                )
            started = self.rts.cluster.engine.now
            execution = self.rts._submit(job)
            if prev_key is not None:
                # Chain whole-job re-executions in the causal record.
                self.rts.cluster.obs.causal.link_retry(
                    prev_key, execution.job_owner
                )
            prev_key = execution.job_owner
            try:
                stats = self.rts.cluster.engine.run(until=execution.done)
            except BaseException as exc:  # noqa: BLE001 - any task failure
                last_error = exc
                self.stats.failures += 1
                self.stats.wasted_time_ns += self.rts.cluster.engine.now - started
                self.rts.cluster.engine.run()  # drain stragglers
                execution.abort()
                checkpoints.update(self._harvest_checkpoints(job, execution))
                continue
            return stats

        raise JobAbandoned(job_name, self.stats.attempts, last_error)

    @staticmethod
    def _harvest_checkpoints(job: Job, execution) -> typing.Dict[str, int]:
        """Tasks that finished AND persisted their output before the crash."""
        harvested = {}
        for name, task_stats in execution.stats.tasks.items():
            task = job.tasks.get(name)
            if task is None or not task.properties.persistent:
                continue
            if task.work.output is None:
                continue
            if (
                task_stats.started_at is not None
                and task_stats.finished_at is not None
                and task_stats.finished_at >= task_stats.started_at
            ):
                # finished_at is set on both success and failure; a task
                # that persisted counts only if it reached its epilogue,
                # which _run_task records by triggering its done event.
                if execution.task_succeeded(name):
                    harvested[name] = task.work.output.size
        return harvested


def prune_with_checkpoints(
    job: Job, checkpoints: typing.Mapping[str, int]
) -> typing.Tuple[Job, int]:
    """Rebuild ``job`` with completed checkpoints as restore-sources.

    Returns ``(pruned_job, n_tasks_skipped)``.  A task is skipped when
    it cannot reach any sink without passing through a completed
    checkpoint — its work is already durably captured downstream of it.
    """
    present = {name for name in checkpoints if name in job.tasks}
    if not present:
        return job, 0

    # Walk upstream from the sinks without expanding checkpointed tasks;
    # whatever the walk never reaches fed only checkpointed paths and is
    # dead lineage.
    alive: set = set()
    stack = [task.name for task in job.sinks()]
    while stack:
        name = stack.pop()
        if name not in alive:
            alive.add(name)
            if name not in present:
                stack.extend(up.name for up in job.tasks[name].upstream())

    pruned = Job(job.name, global_state_size=job.global_state_size)
    for name in job.tasks:
        if name not in alive:
            continue
        original = job.tasks[name]
        if name in present:
            pruned.add_task(_restore_task(original, checkpoints[name]))
        else:
            clone = Task(
                original.name, work=original.work,
                properties=original.properties, fn=original.fn,
            )
            pruned.add_task(clone)
    # A live, non-checkpointed task's upstream is live too; the in-edges
    # of checkpointed tasks stay cut.
    for up, down in job.edges():
        if down.name in alive and down.name not in present:
            pruned.connect(up.name, down.name)
    pruned.validate()
    return pruned, len(job.tasks) - len(pruned.tasks)


def _restore_task(original: Task, output_size: int) -> Task:
    """A source task that re-reads a checkpoint instead of recomputing.

    Cost model: stage the persisted bytes through scratch (one read of
    the checkpoint) and republish the output region — no recomputation.
    """
    work = WorkSpec(
        op_class=OpClass.SCALAR,
        ops=output_size / 4096.0,  # metadata walking, not recompute
        scratch=RegionUsage(max(output_size, 64), touches=1.0),
        output=RegionUsage(output_size),
        scratch_puts=original.work.scratch_puts,
    )
    properties = TaskProperties(
        compute=original.properties.compute,
        confidential=original.properties.confidential,
        persistent=True,  # the restored output remains durable
        mem_latency=original.properties.mem_latency,
    )
    return Task(original.name, work=work, properties=properties)
