"""A physical HPC solver on top of the runtime.

The HPC analogue of :mod:`repro.apps.dbms_exec` / :mod:`~repro.apps.ml_exec`
(§2.4, Table 3 row 3): a 2-D Jacobi heat solver *really* iterates to a
measurable residual on numpy grids, partitioned across worker tasks that

* keep their partition + halo in Private Scratch (node-local working
  memory),
* exchange halo rows with neighbours through their task outputs
  (ownership handover), and
* publish per-iteration residuals into Global State, where the
  convergence check reads them (the BSP barrier).

One run returns the converged field and the placement-sensitive cost of
computing it.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.dataflow.graph import Job, Task
from repro.dataflow.properties import TaskProperties
from repro.dataflow.workspec import RegionUsage, WorkSpec
from repro.hardware.spec import ComputeKind, OpClass
from repro.memory.interfaces import AccessPattern
from repro.memory.properties import LatencyClass
from repro.api import Session
from repro.runtime.rts import JobStats

KiB = 1024


@dataclasses.dataclass
class SolveResult:
    field: np.ndarray
    residuals: typing.List[float]
    iterations: int
    converged: bool
    stats: JobStats


def jacobi_step(grid: np.ndarray) -> np.ndarray:
    """One Jacobi relaxation step with fixed (Dirichlet) boundaries."""
    new = grid.copy()
    new[1:-1, 1:-1] = 0.25 * (
        grid[:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, :-2] + grid[1:-1, 2:]
    )
    return new


class JacobiSolver:
    """Distributed Jacobi relaxation as a dataflow job."""

    def __init__(
        self,
        session: Session,
        n_workers: int = 4,
        iterations: int = 10,
        tolerance: float = 1e-4,
    ):
        if n_workers < 1 or iterations < 1 or tolerance <= 0:
            raise ValueError("invalid solver parameters")
        if not isinstance(session, Session):
            raise TypeError(
                "JacobiSolver needs a Session from repro.api.connect(...), "
                f"got {type(session).__name__}"
            )
        self.session = session
        self.rts = session.rts
        self.n_workers = n_workers
        self.iterations = iterations
        self.tolerance = tolerance

    def solve(self, grid: np.ndarray) -> SolveResult:
        """Run the distributed relaxation; returns field + residuals + stats."""
        grid = np.asarray(grid, dtype=np.float64)
        if grid.ndim != 2 or min(grid.shape) < 3:
            raise ValueError(f"need a 2-D grid of at least 3x3, got {grid.shape}")
        state = {"grid": grid.copy(), "residuals": [], "converged": False}
        rows_per_worker = max(1, (grid.shape[0] - 2) // self.n_workers)
        partition_bytes = max(
            64 * KiB, (rows_per_worker + 2) * grid.shape[1] * 8
        )
        solver = self

        job = Job("jacobi", global_state_size=64 * KiB)

        def scatter_fn(ctx):
            yield from ctx.compute_ops(grid.size / 8)
            out = ctx.output(size=max(64, grid.nbytes))
            yield from ctx.write(out)

        previous = job.add_task(Task(
            "scatter",
            work=WorkSpec(op_class=OpClass.SCALAR, ops=grid.size / 8,
                          output=RegionUsage(max(64, grid.nbytes))),
            fn=scatter_fn,
            properties=TaskProperties(compute=ComputeKind.CPU),
        ))

        def make_worker_fn(iteration: int, start_row: int, end_row: int):
            def worker_fn(ctx):
                yield from ctx.read(ctx.input(), nbytes=partition_bytes)
                scratch = ctx.private_scratch(size=partition_bytes)
                # Halo + interior sweep: 4 flops per interior point.
                current = state["grid"]
                rows = slice(max(1, start_row), min(current.shape[0] - 1, end_row))
                new = current.copy()
                new[rows, 1:-1] = 0.25 * (
                    current[rows.start - 1: rows.stop - 1, 1:-1]
                    + current[rows.start + 1: rows.stop + 1, 1:-1]
                    + current[rows, :-2]
                    + current[rows, 2:]
                )
                state.setdefault(f"partial{iteration}", []).append((rows, new[rows]))
                yield from ctx.write(scratch, nbytes=partition_bytes,
                                     pattern=AccessPattern.SEQUENTIAL)
                yield from ctx.compute_ops(
                    4.0 * (rows.stop - rows.start) * current.shape[1])
                out = ctx.output(size=partition_bytes)
                yield from ctx.write(out)

            return worker_fn

        def make_barrier_fn(iteration: int):
            def barrier_fn(ctx):
                for handle in ctx.inputs:
                    yield from ctx.read(handle)
                merged = state["grid"].copy()
                for rows, values in state.pop(f"partial{iteration}", []):
                    merged[rows] = values
                residual = float(np.max(np.abs(merged - state["grid"])))
                state["grid"] = merged
                state["residuals"].append(residual)
                if residual < solver.tolerance:
                    state["converged"] = True
                # The convergence decision lives in Global State.
                gstate = ctx.global_state()
                yield from ctx.write(gstate, nbytes=4 * KiB,
                                     pattern=AccessPattern.RANDOM)
                out = ctx.output(size=max(64, grid.nbytes))
                yield from ctx.write(out)

            return barrier_fn

        interior = grid.shape[0] - 2
        for iteration in range(self.iterations):
            workers = []
            for w in range(self.n_workers):
                start = 1 + w * rows_per_worker
                end = grid.shape[0] - 1 if w == self.n_workers - 1 else (
                    start + rows_per_worker
                )
                if start >= grid.shape[0] - 1:
                    break
                worker = job.add_task(Task(
                    f"it{iteration}-w{w}",
                    work=WorkSpec(
                        op_class=OpClass.VECTOR,
                        ops=4.0 * max(1, end - start) * grid.shape[1],
                        input_usage=RegionUsage(0, touches=0.25),
                        scratch=RegionUsage(partition_bytes, touches=2.0),
                        output=RegionUsage(partition_bytes),
                    ),
                    fn=make_worker_fn(iteration, start, end),
                    properties=TaskProperties(compute=ComputeKind.CPU,
                                              mem_latency=LatencyClass.LOW),
                ))
                job.connect(previous, worker)
                workers.append(worker)
            barrier = job.add_task(Task(
                f"barrier{iteration}",
                work=WorkSpec(
                    op_class=OpClass.SCALAR, ops=interior * grid.shape[1],
                    input_usage=RegionUsage(0),
                    state_usage=RegionUsage(4 * KiB,
                                            pattern=AccessPattern.RANDOM),
                    output=RegionUsage(max(64, grid.nbytes)),
                ),
                fn=make_barrier_fn(iteration),
                properties=TaskProperties(compute=ComputeKind.CPU),
            ))
            for worker in workers:
                job.connect(worker, barrier)
            previous = barrier

        job.validate()
        stats = self.session.run(job)
        if stats is None:
            raise RuntimeError(f"job {job.name!r} was shed by admission")
        return SolveResult(
            field=state["grid"],
            residuals=state["residuals"],
            iterations=len(state["residuals"]),
            converged=state["converged"],
            stats=stats,
        )


def make_heat_problem(n: int = 32, hot_edge: float = 100.0) -> np.ndarray:
    """A square plate, one hot boundary, interior initially cold."""
    if n < 3:
        raise ValueError("grid must be at least 3x3")
    grid = np.zeros((n, n))
    grid[0, :] = hot_edge
    return grid
