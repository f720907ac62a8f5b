"""Cost-model calibration from observed executions.

The paper points at LingoDB (§3): *"it is feasible to provide the
compiler with various statistics to make cost-based transformations and
data and task placement decisions"*.  Our analytic cost model is exact
for uncontended runs by construction (it shares ``access_plan`` with
the simulator), but it cannot see **contention** — concurrent jobs
sharing links and device ports.  :class:`CalibratedCostModel` closes
that loop: it compares its own predictions against profiled phase
durations and maintains per-``(device, op-class)`` and
per-``(observer, backing-device)`` correction factors (EWMA), so a
runtime that keeps observing its own workload predicts that workload's
contention-inflated costs increasingly well.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.dataflow.graph import Task
from repro.dataflow.workspec import RegionUsage
from repro.hardware.devices import MemoryDevice
from repro.memory.interfaces import AccessMode, AccessPattern
from repro.metrics.profiler import Profile
from repro.runtime.costmodel import CostModel
from repro.runtime.rts import JobStats


@dataclasses.dataclass
class ObservationStats:
    samples: int = 0
    #: mean absolute percentage error of raw vs. corrected predictions,
    #: recomputed over everything observed so far.
    raw_error_sum: float = 0.0
    corrected_error_sum: float = 0.0

    @property
    def raw_mape(self) -> float:
        return self.raw_error_sum / self.samples if self.samples else 0.0

    @property
    def corrected_mape(self) -> float:
        return self.corrected_error_sum / self.samples if self.samples else 0.0


class CalibratedCostModel(CostModel):
    """A cost model that learns correction factors from profiles."""

    _corrects = True

    def __init__(self, cluster, alpha: float = 0.3):
        super().__init__(cluster)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        #: ('compute', device, op) or ('memory', observer, backing,
        #: pattern) -> factor.  The pattern is part of the key because
        #: contention hits bandwidth-bound (sequential) phases, while
        #: latency-bound (random) phases barely notice it.
        self._corrections: typing.Dict[tuple, float] = {}
        self.stats = ObservationStats()

    # -- corrected estimates -----------------------------------------------

    def _factor(self, key: tuple) -> float:
        return self._corrections.get(key, 1.0)

    def compute_time(self, task: Task, compute_name: str) -> float:
        """Raw compute estimate scaled by any learned correction."""
        raw = super().compute_time(task, compute_name)
        if raw in (0.0, float("inf")):
            return raw
        return raw * self._factor(("compute", compute_name, task.work.op_class))

    def access_time(
        self,
        observer: str,
        device: MemoryDevice,
        usage: RegionUsage,
        is_write: bool = False,
        mode: typing.Optional[AccessMode] = None,
    ) -> float:
        """Raw access estimate scaled by the learned contention factor."""
        raw = super().access_time(observer, device, usage, is_write, mode)
        if raw in (0.0, float("inf")):
            return raw
        key = ("memory", observer, device.name, usage.pattern.value)
        return raw * self._factor(key)

    # -- learning --------------------------------------------------------

    def observe(self, profile: Profile, stats: JobStats) -> int:
        """Fold one profiled run into the correction factors.

        Returns the number of phase observations consumed.
        """
        consumed = 0
        for phase in profile.phases:
            if phase.duration <= 0:
                continue
            task_name = phase.task
            if task_name not in stats.assignment:
                continue
            compute_name = stats.assignment[task_name]
            if phase.kind in ("read", "write"):
                # Compute phases are exact by construction (simulator and
                # model share the same throughput tables); only memory
                # phases carry contention to learn from.
                backing = phase.backing
                device = self.cluster.memory.get(backing)
                if device is None or phase.nbytes <= 0:
                    continue
                usage = RegionUsage(
                    size=int(phase.nbytes),
                    pattern=(AccessPattern(phase.pattern) if phase.pattern
                             else AccessPattern.SEQUENTIAL),
                    access_size=phase.access_size,
                )
                raw_predicted = CostModel.access_time(
                    self, compute_name, device, usage,
                    is_write=(phase.kind == "write"),
                )
                if raw_predicted in (0.0, float("inf")):
                    continue
                key = ("memory", compute_name, backing, usage.pattern.value)
                self._learn(key, phase.duration / raw_predicted,
                            raw_predicted=raw_predicted,
                            observed=phase.duration)
                consumed += 1
        return consumed

    def _learn(self, key: tuple, ratio: float, raw_predicted: float,
               observed: float) -> None:
        corrected_predicted = raw_predicted * self._factor(key)
        self.stats.samples += 1
        self.stats.raw_error_sum += abs(raw_predicted - observed) / observed
        self.stats.corrected_error_sum += (
            abs(corrected_predicted - observed) / observed
        )
        previous = self._corrections.get(key, 1.0)
        self._corrections[key] = (1 - self.alpha) * previous + self.alpha * ratio

    def corrections(self) -> typing.Dict[tuple, float]:
        """A copy of the learned correction-factor table."""
        return dict(self._corrections)
