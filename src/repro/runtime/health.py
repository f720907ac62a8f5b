"""Device health tracking and in-flight recovery policy.

Paper §3, Challenge 8: the RTS must survive network errors, corrupted
memory, and planned/unplanned node faults *without* forcing
applications to stop and restart.  This module is the control plane of
that promise:

* :class:`HealthMonitor` subscribes to the cluster's
  :class:`~repro.sim.faults.FaultInjector` and tracks per-device health
  (:class:`HealthState`: UP / SUSPECT / DOWN / DRAINING) with a
  configurable *detection delay* — the simulated gap between a fault
  occurring and the control plane acting on it.  Placement and
  scheduling consult it to exclude unhealthy devices, and repeat
  offenders are blacklisted.
* On confirmed device death the monitor interrupts the task processes
  registered against that device (:meth:`HealthMonitor.watch`), which
  is what lets :class:`~repro.runtime.rts._JobExecution` retry just the
  affected tasks instead of failing the job.
* A planned ``NODE_RESTART`` becomes a *graceful drain*: the node is
  marked DRAINING (no new placements or schedules), running tasks
  finish, live volatile bytes drain away, and only then does the node
  power-cycle (``NODE_REBOOT``).
* :class:`RecoveryPolicy` is the knob set for the data plane: how many
  task attempts, what backoff, and which exception types count as
  *recoverable* infrastructure failures (vs. application bugs, which
  must keep failing the job).
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import typing

from repro.sim.events import Interrupt, Process
from repro.sim.faults import FaultEvent, FaultKind

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hardware.cluster import Cluster


class HealthState(enum.Enum):
    """Control-plane view of one device."""

    UP = "up"
    DEGRADED = "degraded"  # fail-slow suspected from latency evidence
    SUSPECT = "suspect"  # fault reported, detection delay running
    DOWN = "down"  # confirmed dead; tasks interrupted
    DRAINING = "draining"  # planned restart; finishing in-flight work


#: FaultKinds the HealthMonitor deliberately does *not* subscribe to.
#: The exhaustiveness matrix test asserts every FaultKind is either
#: handled or listed here, so a new kind can't silently no-op.
MONITOR_UNHANDLED_KINDS = frozenset({
    FaultKind.NODE_RESTART,  # the cluster's graceful-drain path owns it
    FaultKind.MEMORY_CORRUPTION,  # surfaces as RegionLostError at access
    FaultKind.POWER_OUTAGE,  # cluster clears volatile devices directly
    # Gray failures are detected from *observed timings only* — the
    # monitor never peeks at the injector for these (no cheating).
    FaultKind.LINK_DEGRADED,
    FaultKind.LINK_RESTORED,
    FaultKind.DEVICE_SLOW,
    FaultKind.DEVICE_RESTORED,
})


def _median(ascending: typing.Sequence[float]) -> float:
    """Median of a pre-sorted sequence (0.0 when empty)."""
    n = len(ascending)
    if not n:
        return 0.0
    mid = n // 2
    if n % 2:
        return ascending[mid]
    return 0.5 * (ascending[mid - 1] + ascending[mid])


class DeviceDown(Exception):
    """Delivered (as an :class:`~repro.sim.events.Interrupt` cause) to
    task processes running on a device the monitor confirmed dead."""

    def __init__(self, device: str):
        super().__init__(f"device {device} is down")
        self.device = device


class DeviceDegraded(Exception):
    """Raised by a running task when latency evidence flags its own
    compute device fail-slow mid-phase.

    A gray fault never kills the task, so this is self-inflicted: the
    task aborts its attempt voluntarily and the recovery machinery
    re-places it onto a healthy device — paid for from the job's retry
    budget like any other retry."""

    def __init__(self, device: str):
        super().__init__(f"device {device} is observed fail-slow")
        self.device = device


@dataclasses.dataclass
class HealthStats:
    transitions: int = 0
    crashes_detected: int = 0
    tasks_interrupted: int = 0
    drains_started: int = 0
    drains_completed: int = 0
    drain_time_ns: float = 0.0
    blacklisted: int = 0
    degraded_detected: int = 0
    degradations_cleared: int = 0


@dataclasses.dataclass(frozen=True)
class DegradationPolicy:
    """Evidence thresholds for the fail-slow (gray-failure) detector.

    A target (device or fabric link) is marked DEGRADED only when its
    rolling median observed/expected latency ratio exceeds
    ``degrade_ratio`` *and* it is a robust outlier among its peers
    (median + ``mad_k`` scaled-MAD over peer scores — the same test
    ``obs.causal.detect_stragglers`` applies to tasks).  Hysteresis:
    the mark clears once the rolling median falls to ``clear_ratio``.

    **Probation.**  A flagged target that schedulers and placement
    avoid stops producing evidence, so hysteresis alone would pin it
    DEGRADED forever.  After ``probation_ns`` without fresh slow
    evidence the mark auto-clears (circuit-breaker half-open): the
    target is optimistically re-admitted, and if it is still slow the
    very next observations re-flag it.
    """

    #: Rolling samples kept per target.
    window: int = 32
    #: Minimum samples before a target may be judged either way.
    min_samples: int = 4
    #: Absolute observed/expected median ratio that flags a target.
    degrade_ratio: float = 2.5
    #: Hysteresis: a flagged target clears below this ratio.
    clear_ratio: float = 1.5
    #: Peer-relative gate: score must exceed peer median + mad_k·σ_MAD.
    mad_k: float = 3.0
    #: With fewer judged peers than this, the absolute threshold governs alone.
    min_peers: int = 4
    #: Optimistic re-admit: clear a mark this long (ns) after the last
    #: supporting slow evidence.  ``None`` disables probation.
    probation_ns: typing.Optional[float] = 2_000_000.0


class LatencyScorecard:
    """Rolling observed/expected latency ratios, one window per target.

    Pure evidence store: it is fed by the data plane (transfer and
    compute completions) and never consults the fault injector.
    """

    def __init__(self, window: int = 32):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self._samples: typing.Dict[str, typing.Deque[float]] = {}

    def observe(self, name: str, observed_ns: float, expected_ns: float) -> None:
        """Record one observed-vs-expected duration for ``name``."""
        if expected_ns <= 0.0 or observed_ns < 0.0:
            return
        window = self._samples.get(name)
        if window is None:
            window = self._samples[name] = collections.deque(maxlen=self.window)
        window.append(observed_ns / expected_ns)

    def samples(self, name: str) -> int:
        """How many latency ratios are currently windowed for ``name``."""
        return len(self._samples.get(name, ()))

    def score(self, name: str) -> typing.Optional[float]:
        """Rolling median ratio for ``name`` (None without evidence)."""
        window = self._samples.get(name)
        if not window:
            return None
        return _median(sorted(window))

    def ratio_quantile(self, name: str, q: float) -> typing.Optional[float]:
        """Linear-interpolation quantile of ``name``'s ratio window."""
        window = self._samples.get(name)
        if not window:
            return None
        ordered = sorted(window)
        if q <= 0.0:
            return ordered[0]
        if q >= 1.0:
            return ordered[-1]
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        frac = pos - lo
        if lo + 1 >= len(ordered):
            return ordered[-1]
        return ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac

    def scores(self) -> typing.Dict[str, float]:
        """Rolling median per target with at least one sample."""
        return {
            name: _median(sorted(window))
            for name, window in self._samples.items()
            if window
        }


class RetryBudget:
    """A token bucket bounding one job's retry volume.

    Every retry spends one token; an empty bucket (or a passed
    ``deadline_ns``) makes further failures non-recoverable, so a
    degradation storm cannot amplify into an unbounded retry storm.
    """

    def __init__(
        self,
        capacity: float,
        refill_per_ns: float = 0.0,
        deadline_ns: typing.Optional[float] = None,
    ):
        if capacity < 0:
            raise ValueError(f"budget capacity must be >= 0, got {capacity}")
        if refill_per_ns < 0:
            raise ValueError(f"refill rate must be >= 0, got {refill_per_ns}")
        self.capacity = float(capacity)
        self.refill_per_ns = float(refill_per_ns)
        self.deadline_ns = deadline_ns
        self.tokens = float(capacity)
        self.spent = 0
        self.denied = 0
        self._last_refill = 0.0

    def try_spend(self, now: float, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens at simulated time ``now`` if possible."""
        if self.refill_per_ns > 0.0 and now > self._last_refill:
            self.tokens = min(
                self.capacity,
                self.tokens + (now - self._last_refill) * self.refill_per_ns,
            )
        self._last_refill = now
        if self.deadline_ns is not None and now >= self.deadline_ns:
            self.denied += 1
            return False
        if self.tokens + 1e-9 >= cost:
            self.tokens -= cost
            self.spent += 1
            return True
        self.denied += 1
        return False

    def can_spend(self, now: float, cost: float = 1.0) -> bool:
        """Whether :meth:`try_spend` would succeed — without spending.

        Used by voluntary fail-slow aborts to check that recovery could
        actually pay for the retry; a peek never counts as a denial.
        """
        if self.refill_per_ns > 0.0 and now > self._last_refill:
            self.tokens = min(
                self.capacity,
                self.tokens + (now - self._last_refill) * self.refill_per_ns,
            )
            self._last_refill = now
        if self.deadline_ns is not None and now >= self.deadline_ns:
            return False
        return self.tokens + 1e-9 >= cost


@dataclasses.dataclass(frozen=True)
class RecoveryPolicy:
    """Task-level recovery knobs consumed by the runtime."""

    #: Total tries per task (first run included).
    max_task_attempts: int = 3
    backoff_base_ns: float = 10_000.0
    backoff_factor: float = 2.0
    max_backoff_ns: float = 1e6
    #: Reroute/retry budget for each data transfer.
    transfer_retries: int = 2
    #: Optional per-transfer deadline before cancel + retry.
    transfer_timeout_ns: typing.Optional[float] = None
    #: Decorrelate retry wake-ups: co-failed tasks in one storm must not
    #: all collide on the same backoff tick.
    jitter: bool = True
    #: Per-job retry token budget (None = unlimited, the legacy shape).
    retry_budget_tokens: typing.Optional[float] = None
    #: Tokens regained per simulated ns (0 = a fixed, non-refilling pot).
    retry_budget_refill_per_ns: float = 0.0
    #: Absolute per-job deadline after which no retry is attempted.
    retry_deadline_ns: typing.Optional[float] = None

    def backoff_ns(self, attempt: int) -> float:
        """Deterministic exponential backoff (the legacy schedule)."""
        delay = self.backoff_base_ns * self.backoff_factor ** max(0, attempt - 1)
        return min(delay, self.max_backoff_ns)

    def jittered_backoff_ns(self, attempt: int, rng, prev_ns: float = 0.0) -> float:
        """Decorrelated-jitter backoff: ``min(cap, U(base, 3·prev))``.

        ``prev_ns`` is the delay the previous attempt slept (0 on the
        first retry).  With :attr:`jitter` off this degrades to the
        deterministic schedule, so callers can thread one code path.
        """
        if not self.jitter:
            return self.backoff_ns(attempt)
        base = self.backoff_base_ns
        high = max(base, 3.0 * (prev_ns if prev_ns > 0.0 else base))
        return min(self.max_backoff_ns, float(rng.uniform(base, high)))

    def make_retry_budget(self) -> typing.Optional[RetryBudget]:
        """A fresh per-job :class:`RetryBudget` (None when unlimited)."""
        if self.retry_budget_tokens is None:
            return None
        return RetryBudget(
            self.retry_budget_tokens,
            refill_per_ns=self.retry_budget_refill_per_ns,
            deadline_ns=self.retry_deadline_ns,
        )

    def recoverable(self, exc: BaseException) -> bool:
        """Infrastructure failures are retried; application errors are not."""
        from repro.hardware.interconnect import NoRouteError
        from repro.memory.manager import PlacementError
        from repro.memory.region import RegionLostError
        from repro.sim.flows import LinkDown, TransferTimeout

        if isinstance(exc, Interrupt):
            return isinstance(exc.cause, DeviceDown)
        return isinstance(
            exc,
            (DeviceDown, DeviceDegraded, LinkDown, TransferTimeout,
             RegionLostError, PlacementError, NoRouteError),
        )


class HealthMonitor:
    """Tracks device/link health for one cluster and owns drains.

    Attaching a monitor sets ``cluster.health_monitor``, which switches
    placement, scheduling, and ``NODE_RESTART`` handling to
    health-aware behaviour.  Detection is not instantaneous: a crash
    marks members SUSPECT immediately (the control plane stops using
    them) but running tasks are only interrupted once the failure is
    *confirmed* after ``detection_delay_ns``.
    """

    def __init__(
        self,
        cluster: "Cluster",
        detection_delay_ns: float = 10_000.0,
        blacklist_after: int = 3,
        drain_poll_ns: float = 10_000.0,
        max_drain_ns: typing.Optional[float] = None,
        degradation: typing.Optional[DegradationPolicy] = None,
    ):
        self.cluster = cluster
        self.engine = cluster.engine
        self.obs = cluster.obs
        self.detection_delay_ns = float(detection_delay_ns)
        self.blacklist_after = int(blacklist_after)
        self.drain_poll_ns = float(drain_poll_ns)
        self.max_drain_ns = max_drain_ns
        #: Fail-slow detector config (None = detection off, legacy shape).
        self.degradation = degradation
        self.scorecard = LatencyScorecard(
            degradation.window if degradation is not None else 32
        )
        self._links_degraded: typing.Set[str] = set()
        #: Last engine time each flagged target produced slow evidence;
        #: drives the probation (optimistic re-admit) timer.
        self._flagged_at: typing.Dict[str, float] = {}
        self.stats = HealthStats()
        #: Monotonic generation counter: bumped on every state
        #: transition and blacklist addition, so epoch-keyed caches
        #: (placement's satisfaction index) can validate with one
        #: integer compare instead of subscribing to callbacks.
        self.epoch = 0
        self._state: typing.Dict[str, HealthState] = {
            name: HealthState.UP
            for name in list(cluster.memory) + list(cluster.compute)
        }
        self._since: typing.Dict[str, float] = {}
        self._failures: typing.Dict[str, int] = {}
        self._blacklist: typing.Set[str] = set()
        self._links_down: typing.Set[str] = set()
        #: device -> task processes to interrupt on confirmed death
        self._watched: typing.Dict[str, typing.Set[Process]] = {}
        self._callbacks: typing.List[typing.Callable[[], None]] = []
        cluster.health_monitor = self
        # Continuous telemetry: per-window degradation-detection rate
        # and the currently-degraded level, folded on every poll.
        telem = self.obs.telemetry
        telem.watch(
            "health.degraded_events",
            lambda: self.obs.counter("health.degraded_events").value,
            kind="rate",
        )
        telem.watch(
            "health.degraded_now",
            lambda: float(len(self.degraded_devices())
                          + len(self.degraded_links())),
            kind="level",
        )
        cluster.faults.on(FaultKind.NODE_CRASH, self._on_node_crash)
        cluster.faults.on(FaultKind.NODE_REBOOT, self._on_node_reboot)
        cluster.faults.on(FaultKind.LINK_DOWN, self._on_link_down)
        cluster.faults.on(FaultKind.LINK_UP, self._on_link_up)

    # -- queries (placement / scheduling consult these) -------------------

    def state(self, device_name: str) -> HealthState:
        """Current health state of one device (unknown names are UP)."""
        return self._state.get(device_name, HealthState.UP)

    def can_use(self, device_name: str) -> bool:
        """May new work (placements, tasks) target this device?

        DEGRADED devices stay usable — capacity is reduced, not gone —
        but placement and scheduling order them last (see
        ``PlacementPolicy``/``Scheduler``), so they only take work when
        nothing healthy satisfies the request.
        """
        return (
            self._state.get(device_name, HealthState.UP)
            in (HealthState.UP, HealthState.DEGRADED)
            and device_name not in self._blacklist
        )

    def is_degraded(self, device_name: str) -> bool:
        """Whether evidence currently marks this device fail-slow."""
        self._probation_sweep()
        return self._state.get(device_name) is HealthState.DEGRADED

    def degraded_devices(self) -> typing.List[str]:
        """Names of devices currently marked DEGRADED."""
        self._probation_sweep()
        return [
            n for n, s in self._state.items() if s is HealthState.DEGRADED
        ]

    def link_degraded(self, link_name: str) -> bool:
        """Whether evidence currently marks this fabric link fail-slow."""
        self._probation_sweep()
        return link_name in self._links_degraded

    def degraded_links(self) -> typing.FrozenSet[str]:
        """Names of fabric links currently marked fail-slow."""
        self._probation_sweep()
        return frozenset(self._links_degraded)

    def _probation_sweep(self) -> None:
        """Optimistically re-admit targets whose last supporting slow
        evidence is older than the policy's probation window.

        Flagged targets are avoided, avoided targets produce no new
        evidence, and no evidence means hysteresis can never clear
        them — probation breaks that deadlock the way a half-open
        circuit breaker does."""
        policy = self.degradation
        if policy is None or policy.probation_ns is None:
            return
        if not self._flagged_at:
            return
        deadline = self.engine.now - policy.probation_ns
        for name, last in list(self._flagged_at.items()):
            if last > deadline:
                continue
            if name in self._links_degraded:
                self._clear_degraded(name, False, self.scorecard.score(name))
            elif self._state.get(name) is HealthState.DEGRADED:
                self._clear_degraded(name, True, self.scorecard.score(name))
            else:
                self._flagged_at.pop(name, None)

    def settled_epoch(self) -> int:
        """:attr:`epoch` once every target whose probation expired is
        re-admitted.  Probation is time-driven and runs lazily on reads,
        so a cache keyed on the epoch must settle it before comparing."""
        self._probation_sweep()
        return self.epoch

    def is_blacklisted(self, device_name: str) -> bool:
        """Whether repeated failures have excluded this device for good."""
        return device_name in self._blacklist

    @property
    def blacklist(self) -> typing.FrozenSet[str]:
        return frozenset(self._blacklist)

    def link_up(self, link_name: str) -> bool:
        """Whether a fabric link is currently believed healthy."""
        return link_name not in self._links_down

    def up_devices(self) -> typing.List[str]:
        """Names of all devices new work may currently target."""
        return [n for n in self._state if self.can_use(n)]

    def on_change(self, callback: typing.Callable[[], None]) -> None:
        """Run ``callback`` after every health transition (e.g. a
        federation drain waiting for its nodes to leave DRAINING)."""
        self._callbacks.append(callback)

    # -- task watching ------------------------------------------------------

    def watch(self, device_name: str, process: Process) -> None:
        """Interrupt ``process`` with :class:`DeviceDown` if the device
        is later confirmed dead (pairs with :meth:`unwatch`)."""
        self._watched.setdefault(device_name, set()).add(process)

    def unwatch(self, device_name: str, process: Process) -> None:
        """Stop watching ``process`` (its attempt on the device ended)."""
        watched = self._watched.get(device_name)
        if watched is None:
            return
        watched.discard(process)
        if not watched:
            # Drop the empty set: over a long soak every device that ever
            # ran a task would otherwise keep a dead entry forever.
            del self._watched[device_name]

    # -- gray-failure evidence (fed by the data plane, never the injector) --

    def observe_latency(
        self, target: str, observed_ns: float, expected_ns: float
    ) -> None:
        """Feed one observed-vs-expected duration for a device or link.

        ``expected_ns`` must be the *nominal* (spec-sheet) estimate;
        the ratio between the two is the only signal the fail-slow
        detector ever sees.  A no-op unless a :class:`DegradationPolicy`
        was configured.
        """
        if self.degradation is None:
            return
        self.scorecard.observe(target, observed_ns, expected_ns)
        self._evaluate_degradation(target)

    def observe_transfer(
        self,
        links: typing.Iterable,
        observed_ns: float,
        expected_ns: float,
    ) -> None:
        """Feed one transfer's duration as evidence against its route.

        Every link on the route is charged the same observed/expected
        ratio; the peer-relative outlier gate is what keeps healthy
        links that merely *shared* a slow route from being flagged.
        Device ports (``<device>.port``) are charged to the owning
        device, so a throttled memory device shows up as device-level
        degradation rather than an anonymous link.
        """
        if self.degradation is None:
            return
        seen = set()
        for link in links:
            name = getattr(link, "name", link)
            if name.endswith(".port"):
                owner = name[: -len(".port")]
                if owner in self._state:
                    name = owner
            if name in seen:
                continue
            seen.add(name)
            self.scorecard.observe(name, observed_ns, expected_ns)
            self._evaluate_degradation(name)

    def latency_ratio_quantile(
        self, target: str, q: float
    ) -> typing.Optional[float]:
        """Quantile of a target's observed/expected ratio window.

        Hedging uses the p99 of the *source device's* ratios to size its
        hedge delay.  None without evidence (or with detection off).
        """
        if self.degradation is None:
            return None
        return self.scorecard.ratio_quantile(target, q)

    def _evaluate_degradation(self, name: str) -> None:
        policy = self.degradation
        if self.scorecard.samples(name) < policy.min_samples:
            return
        score = self.scorecard.score(name)
        is_device = name in self._state
        if is_device:
            flagged = self._state[name] is HealthState.DEGRADED
        else:
            flagged = name in self._links_degraded
        if not flagged:
            if score < policy.degrade_ratio:
                return
            if not self._peer_outlier(name, score, is_device):
                return
            self._mark_degraded(name, is_device, score)
        elif score <= policy.clear_ratio:
            self._clear_degraded(name, is_device, score)
        elif score >= policy.degrade_ratio and name in self._flagged_at:
            # Fresh supporting evidence keeps the flag out of probation.
            self._flagged_at[name] = self.engine.now

    def _peer_outlier(self, name: str, score: float, is_device: bool) -> bool:
        """Robust outlier test against same-category peers (median+MAD)."""
        policy = self.degradation
        peers = sorted(
            peer_score
            for peer, peer_score in self.scorecard.scores().items()
            if peer != name
            and (peer in self._state) == is_device
            and self.scorecard.samples(peer) >= policy.min_samples
        )
        if len(peers) < policy.min_peers:
            return True  # too few peers: the absolute threshold governs
        median = _median(peers)
        mad = _median(sorted(abs(p - median) for p in peers))
        return score >= median + policy.mad_k * 1.4826 * max(mad, 1e-9)

    def _mark_degraded(self, name: str, is_device: bool, score: float) -> None:
        if is_device:
            if self._state[name] is not HealthState.UP:
                return  # SUSPECT/DOWN/DRAINING outrank a slowness flag
        self.stats.degraded_detected += 1
        self._flagged_at[name] = self.engine.now
        self.obs.counter("health.degraded_events").inc()
        self.obs.event(
            "health", "degraded", target=name, score=score,
            target_kind="device" if is_device else "link",
        )
        self.obs.causal.note_fault("degraded", name, self.engine.now)
        if is_device:
            self._set_state(name, HealthState.DEGRADED)
        else:
            self._links_degraded.add(name)
            self.epoch += 1
            for callback in self._callbacks:
                callback()

    def _clear_degraded(self, name: str, is_device: bool, score: float) -> None:
        if is_device and self._state[name] is not HealthState.DEGRADED:
            return
        self._flagged_at.pop(name, None)
        self.stats.degradations_cleared += 1
        self.obs.event(
            "health", "degradation_cleared", target=name, score=score,
            target_kind="device" if is_device else "link",
        )
        if is_device:
            self._set_state(name, HealthState.UP)
        else:
            self._links_degraded.discard(name)
            self.epoch += 1
            for callback in self._callbacks:
                callback()

    # -- transitions -------------------------------------------------------

    def _set_state(self, name: str, new: HealthState) -> None:
        if name not in self._state or self._state[name] is new:
            return
        self._state[name] = new
        self._since[name] = self.engine.now
        self.epoch += 1
        self.stats.transitions += 1
        self.obs.counter(f"health.to_{new.value}").inc()
        self.obs.event("health", "transition", device=name, state=new.value)
        self.obs.telemetry.record_level(
            "health.up_devices", self.engine.now, len(self.up_devices())
        )
        for callback in self._callbacks:
            callback()

    def _members(self, node: str) -> typing.List[str]:
        return [
            name for name in self.cluster.nodes.get(node, set())
            if name in self._state  # skips switch vertices
        ]

    def _device_failed(self, name: str) -> bool:
        return self.cluster.device(name).failed

    # -- fault handlers ----------------------------------------------------

    def _on_node_crash(self, fault: FaultEvent) -> None:
        members = self._members(fault.target)
        if not members:
            return
        self.stats.crashes_detected += 1
        for name in members:
            self._set_state(name, HealthState.SUSPECT)
        if self.detection_delay_ns <= 0:
            self._confirm(members)
        else:
            self.engine.process(
                self._confirm_after_delay(members),
                name=f"health:{fault.target}#detect",
            )

    def _confirm_after_delay(self, members: typing.List[str]):
        yield self.engine.timeout(self.detection_delay_ns)
        self._confirm(members)

    def _confirm(self, members: typing.List[str]) -> None:
        for name in members:
            if not self._device_failed(name):
                continue  # repaired inside the detection window
            # Strikes (and blacklisting) only accrue on *confirmed*
            # death: a device repaired inside the detection window was
            # a transient blip and must not inch toward the blacklist.
            self._failures[name] = self._failures.get(name, 0) + 1
            if (
                self._failures[name] >= self.blacklist_after
                and name not in self._blacklist
            ):
                self._blacklist.add(name)
                self.epoch += 1  # can_use changed even if state didn't
                self.stats.blacklisted += 1
                self.obs.event("health", "blacklist", device=name,
                               failures=self._failures[name])
            self._set_state(name, HealthState.DOWN)
            self.obs.causal.note_fault(
                "device_down", name, self.engine.now,
                interrupted=len(self._watched.get(name, ())),
            )
            for process in list(self._watched.get(name, ())):
                if process.is_alive:
                    process.interrupt(DeviceDown(name))
                    self.stats.tasks_interrupted += 1
            self._watched.pop(name, None)

    def _on_node_reboot(self, fault: FaultEvent) -> None:
        # Runs after the cluster recovered the devices: back in service
        # (a blacklisted device stays excluded via can_use).
        for name in self._members(fault.target):
            if not self._device_failed(name):
                self._set_state(name, HealthState.UP)

    def _on_link_down(self, fault: FaultEvent) -> None:
        self._links_down.add(fault.target)
        self.obs.event("health", "link_down", link=fault.target)
        for callback in self._callbacks:
            callback()

    def _on_link_up(self, fault: FaultEvent) -> None:
        self._links_down.discard(fault.target)
        self.obs.event("health", "link_up", link=fault.target)
        for callback in self._callbacks:
            callback()

    # -- graceful drain ----------------------------------------------------

    def begin_drain(self, node: str) -> bool:
        """Start draining a healthy node ahead of a planned restart.

        Returns ``False`` when there is nothing to drain (unknown node,
        or a member already failed — that is the *repair* path, handled
        by an immediate reboot).  Otherwise marks every member DRAINING
        and spawns the drain process, which injects ``NODE_REBOOT`` once
        the node is idle.
        """
        members = self._members(node)
        if not members or any(self._device_failed(m) for m in members):
            return False
        self.stats.drains_started += 1
        for name in members:
            self._set_state(name, HealthState.DRAINING)
            self.obs.causal.note_fault("drain", name, self.engine.now)
        self.engine.process(self._drain(node, members), name=f"health:{node}#drain")
        return True

    def _drain(self, node: str, members: typing.List[str]):
        span = self.obs.begin_span("health", "drain", node=node)
        started = self.engine.now
        forced = False
        while True:
            if any(self._device_failed(m) for m in members):
                # Crashed mid-drain; the crash path owns recovery now.
                if span:
                    span.set(aborted=True)
                span.close()
                return
            if self._node_idle(members):
                break
            if (
                self.max_drain_ns is not None
                and self.engine.now - started >= self.max_drain_ns
            ):
                forced = True
                break
            yield self.engine.timeout(self.drain_poll_ns)
        duration = self.engine.now - started
        self.stats.drains_completed += 1
        self.stats.drain_time_ns += duration
        self.obs.counter("health.drains").inc()
        if span:
            span.set(duration=duration, forced=forced)
        span.close()
        self.cluster.faults.inject_now(FaultKind.NODE_REBOOT, node)

    def _node_idle(self, members: typing.List[str]) -> bool:
        for name in members:
            if name in self.cluster.compute:
                if self.cluster.compute[name].slots_in_use > 0:
                    return False
            elif name in self.cluster.memory:
                device = self.cluster.memory[name]
                # Volatile bytes still live on the node would be lost by
                # the reboot; wait for their owners to let go.
                if not device.spec.persistent and device.used > 0:
                    return False
        return True


__all__ = [
    "DegradationPolicy",
    "DeviceDown",
    "HealthMonitor",
    "HealthState",
    "HealthStats",
    "LatencyScorecard",
    "MONITOR_UNHANDLED_KINDS",
    "RecoveryPolicy",
    "RetryBudget",
]
