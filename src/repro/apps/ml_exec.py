"""A physical ML trainer on top of the runtime.

The AI/ML analogue of :mod:`repro.apps.dbms_exec` (§2.4): a linear
model is *really* trained — numpy mini-batch SGD with a measurable loss
curve — while every stage charges the simulator for what it touches:

* ``ingest`` materializes the dataset as a task output,
* ``transform`` standardizes features once and publishes the result to
  a Global Scratch cache (the Cachew pattern),
* each ``epoch`` task consumes the cache, streams mini-batches, keeps
  weights/optimizer state in Private Scratch, and hands the weights to
  the next epoch by ownership transfer,
* ``evaluate`` reports the final loss.

So one run yields both a converged model and a placement-sensitive
performance profile.
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
class TrainingResult:
    weights: np.ndarray
    bias: float
    loss_per_epoch: typing.List[float]
    final_loss: float
    stats: JobStats


def _mse(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float) -> float:
    residual = X @ w + b - y
    return float(np.mean(residual ** 2))


class LinearTrainer:
    """Mini-batch SGD linear regression, executed as a dataflow job."""

    def __init__(
        self,
        session: Session,
        epochs: int = 5,
        batch_size: int = 256,
        learning_rate: float = 0.05,
        accelerator: ComputeKind = ComputeKind.GPU,
    ):
        if epochs < 1 or batch_size < 1 or learning_rate <= 0:
            raise ValueError("invalid training hyperparameters")
        if not isinstance(session, Session):
            raise TypeError(
                "LinearTrainer needs a Session from repro.api.connect(...), "
                f"got {type(session).__name__}"
            )
        self.session = session
        self.rts = session.rts
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.accelerator = accelerator

    def fit(self, X: np.ndarray, y: np.ndarray) -> TrainingResult:
        """Train on (X, y); returns the model and the run's stats."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
            raise ValueError(
                f"need X (n, d) and y (n,), got {X.shape} and {y.shape}"
            )
        n_samples, n_features = X.shape
        raw_bytes = max(64, X.nbytes + y.nbytes)
        state: dict = {}
        loss_per_epoch: typing.List[float] = []

        job = Job("linear-training", global_state_size=64 * KiB)

        def ingest_fn(ctx):
            yield from ctx.compute_ops(0.1 * n_samples)
            out = ctx.output(size=raw_bytes)
            yield from ctx.write(out)

        ingest = job.add_task(Task(
            "ingest",
            work=WorkSpec(op_class=OpClass.SCALAR, ops=0.1 * n_samples,
                          output=RegionUsage(raw_bytes)),
            fn=ingest_fn,
            properties=TaskProperties(compute=ComputeKind.CPU),
        ))

        def transform_fn(ctx):
            yield from ctx.read(ctx.input())
            yield from ctx.compute_ops(4.0 * X.size)
            mean = X.mean(axis=0)
            scale = X.std(axis=0)
            scale[scale == 0] = 1.0
            state["X"] = (X - mean) / scale
            state["y"] = y
            cache = ctx.publish("dataset-cache", size=raw_bytes)
            yield from ctx.write(cache)
            out = ctx.output(size=4 * KiB)  # manifest
            yield from ctx.write(out)

        transform = job.add_task(Task(
            "transform",
            work=WorkSpec(op_class=OpClass.VECTOR, ops=4.0 * X.size,
                          input_usage=RegionUsage(0),
                          scratch_puts={"dataset-cache": RegionUsage(raw_bytes)},
                          output=RegionUsage(4 * KiB)),
            fn=transform_fn,
            properties=TaskProperties(compute=ComputeKind.CPU,
                                      mem_latency=LatencyClass.LOW),
        ))
        job.connect(ingest, transform)

        weight_bytes = max(64, 8 * (n_features + 1))
        trainer = self

        def make_epoch_fn(epoch_index: int):
            def epoch_fn(ctx):
                cache = yield from ctx.consume("dataset-cache")
                yield from ctx.read(cache)
                # Weights + optimizer state live in Private Scratch.
                scratch = ctx.private_scratch(
                    size=max(64 * KiB, 4 * weight_bytes)
                )
                Xs, ys = state["X"], state["y"]
                w = state.get("w", np.zeros(n_features))
                b = state.get("b", 0.0)
                rng = np.random.default_rng(epoch_index)
                order = rng.permutation(len(Xs))
                n_batches = 0
                for start in range(0, len(Xs), trainer.batch_size):
                    batch = order[start:start + trainer.batch_size]
                    Xb, yb = Xs[batch], ys[batch]
                    residual = Xb @ w + b - yb
                    w = w - trainer.learning_rate * (Xb.T @ residual) / len(batch)
                    b = b - trainer.learning_rate * float(np.mean(residual))
                    n_batches += 1
                # Charge: weight reads/writes per batch + the flops.
                yield from ctx.write(
                    scratch, nbytes=min(scratch.region.size,
                                        2 * weight_bytes * n_batches),
                    pattern=AccessPattern.RANDOM, access_size=256,
                )
                yield from ctx.compute_ops(4.0 * Xs.size)
                state["w"], state["b"] = w, b
                loss_per_epoch.append(_mse(Xs, ys, w, b))
                out = ctx.output(size=weight_bytes)
                yield from ctx.write(out)

            return epoch_fn

        previous = transform
        for epoch in range(self.epochs):
            epoch_task = job.add_task(Task(
                f"epoch{epoch}",
                work=WorkSpec(op_class=OpClass.MATMUL, ops=4.0 * X.size,
                              input_usage=RegionUsage(0),
                              scratch=RegionUsage(64 * KiB,
                                                  pattern=AccessPattern.RANDOM),
                              scratch_gets=("dataset-cache",),
                              output=RegionUsage(weight_bytes)),
                fn=make_epoch_fn(epoch),
                properties=TaskProperties(compute=self.accelerator,
                                          mem_latency=LatencyClass.LOW),
            ))
            job.connect(previous, epoch_task)
            previous = epoch_task

        def evaluate_fn(ctx):
            yield from ctx.read(ctx.input())
            yield from ctx.compute_ops(2.0 * X.size)
            state["final_loss"] = _mse(state["X"], state["y"],
                                       state["w"], state["b"])

        evaluate = job.add_task(Task(
            "evaluate",
            work=WorkSpec(op_class=OpClass.VECTOR, ops=2.0 * X.size,
                          input_usage=RegionUsage(0)),
            fn=evaluate_fn,
            properties=TaskProperties(compute=ComputeKind.CPU),
        ))
        job.connect(previous, evaluate)
        job.validate()

        stats = self.session.run(job)
        if stats is None:
            raise RuntimeError(f"job {job.name!r} was shed by admission")
        return TrainingResult(
            weights=state["w"], bias=state["b"],
            loss_per_epoch=loss_per_epoch,
            final_loss=state["final_loss"],
            stats=stats,
        )


def make_regression_data(
    rng: np.random.Generator, n_samples: int = 2000, n_features: int = 8,
    noise: float = 0.1,
) -> typing.Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synthetic linear data; returns (X, y, true_weights)."""
    X = rng.standard_normal((n_samples, n_features))
    true_w = rng.uniform(-2.0, 2.0, n_features)
    y = X @ true_w + noise * rng.standard_normal(n_samples)
    return X, y, true_w
