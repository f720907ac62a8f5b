"""The cost model: topology- and access-path-aware estimates.

The paper (§3, Challenges 1–3) requires the RTS to "schedule and map
tasks to different types of devices using cost models that consider
topology and access paths".  This module derives everything from the
cluster's topology plus the *same* access-plan arithmetic the simulator
executes (:class:`~repro.memory.interfaces.AccessPath`), so the
optimizer's estimates and the simulated outcomes agree structurally
(they still diverge under contention, which only the simulation sees).

Every job is scheduled and placed through these estimates, so one
estimate must stay cheap.  What an access costs depends on the size
only through :meth:`AccessPath.plan`; everything else — the offered
bandwidth, the sync flag, the round trip and the granularity — is a
constant per (observer, device, direction), cached next to the offers
and dropped with them when the fabric's topology epoch moves.  There is
no per-usage memo: the caches are bounded by the device inventory, not
by the number of distinct sizes ever asked about.

A scheduler prices one task on every candidate device at once
(:meth:`CostModel.task_estimates`) and placement one usage on every
(observer, device) pair (:meth:`CostModel.access_times`); each term is
the same one step a single estimate takes.
"""

from __future__ import annotations

import math
import typing

from repro.dataflow.graph import Task
from repro.dataflow.workspec import RegionUsage
from repro.hardware.cluster import Cluster
from repro.hardware.devices import MemoryDevice
from repro.hardware.interconnect import NoRouteError
from repro.hardware.spec import Attachment
from repro.memory.interfaces import AccessMode, AccessPath, AccessPattern
from repro.memory.properties import (
    BandwidthClass,
    LatencyClass,
    OfferedProperties,
)

#: Bookkeeping cost of an ownership transfer (metadata update, no copy).
OWNERSHIP_TRANSFER_NS = 100.0


class _Rates(dict):
    """Compute device name -> ops/ns of one op class (None when the
    device cannot run it), filled in on first use."""

    def __init__(self, compute: dict, op):
        super().__init__()
        self.compute = compute
        self.op = op

    def __missing__(self, name: str) -> typing.Optional[float]:
        rate = self[name] = self.compute[name].spec.throughput.get(self.op)
        return rate


class _RoleLookup:
    """``roles[compute_name]`` for :meth:`CostModel.task_time_estimate`:
    the four role devices from its ``memory_for``, asked in role order."""

    __slots__ = ("memory_for",)

    def __init__(self, memory_for):
        self.memory_for = memory_for

    def __getitem__(self, _compute_name: str) -> tuple:
        memory_for = self.memory_for
        return (memory_for("input"), memory_for("scratch"),
                memory_for("state"), memory_for("output"))


class CostModel:
    """Answers 'what would it cost' questions for placement/scheduling."""

    #: Whether batch estimate terms are scaled by :meth:`_factor` (a
    #: model that learns corrections sets it; the analytic one does not).
    _corrects = False

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        #: op class -> its :class:`_Rates` (bounded by the inventory).
        self._rates: typing.Dict[typing.Any, _Rates] = {}
        self._offer_cache: dict = {}
        #: (observer, device name, is_write) -> (offered bytes/ns, the
        #: default mode the offered sync flag implies, AccessPath or None
        #: when unreachable).
        self._path_cache: dict = {}
        self._scratch_cache: dict = {}
        self._mean_bandwidth: typing.Optional[float] = None
        self._seen_epoch = 0
        self._check_epoch()

    def _check_epoch(self) -> None:
        """Self-invalidate when the fabric changed under us.

        Link failures *and* restores bump ``FlowNetwork.topology_epoch``,
        and a node crash or reboot fails or bounces its links, so neither
        cached NoRouteError offers nor device ``failed`` flags outlive it.
        """
        flownet = getattr(self.cluster, "flownet", None)
        epoch = flownet.topology_epoch if flownet is not None else 0
        if epoch != self._seen_epoch:
            self._seen_epoch = epoch
            self.invalidate()

    # -- offered properties (Figure 3: device value depends on observer) --

    def offered(self, observer: str, device: MemoryDevice) -> OfferedProperties:
        """What ``device`` offers as seen from compute device ``observer``."""
        self._check_epoch()
        key = (observer, device.name)
        cached = self._offer_cache.get(key)
        if cached is not None:
            return cached
        topo = self.cluster.topology
        try:
            path_latency = topo.path_latency(observer, device.name)
            path_bandwidth = topo.path_bandwidth(observer, device.name)
        except NoRouteError:
            offer = OfferedProperties(
                latency=LatencyClass.ANY, bandwidth=BandwidthClass.ANY,
                persistent=device.spec.persistent, coherent=False, sync=False,
                isolated=False, rtt_ns=float("inf"), bytes_per_ns=0.0,
            )
            self._offer_cache[key] = offer
            return offer
        rtt = 2.0 * path_latency + device.spec.latency
        bandwidth = min(path_bandwidth, device.spec.bandwidth)
        offer = OfferedProperties(
            latency=LatencyClass.classify(rtt),
            bandwidth=BandwidthClass.classify(bandwidth),
            persistent=device.spec.persistent,
            coherent=device.spec.coherent and topo.coherent(observer, device.name),
            sync=device.spec.supports_sync and topo.addressable(observer, device.name),
            isolated=device.spec.attachment is not Attachment.NIC,
            rtt_ns=rtt,
            bytes_per_ns=bandwidth,
        )
        self._offer_cache[key] = offer
        return offer

    def invalidate(self) -> None:
        """Drop cached offers (topology or device state changed)."""
        self._offer_cache.clear()
        self._path_cache.clear()
        self._scratch_cache.clear()
        self._mean_bandwidth = None

    # -- access costs --------------------------------------------------------

    def access_time(
        self,
        observer: str,
        device: MemoryDevice,
        usage: RegionUsage,
        is_write: bool = False,
        mode: typing.Optional[AccessMode] = None,
    ) -> float:
        """Uncontended estimate for one region usage (ns)."""
        nbytes = usage.touched_bytes
        if nbytes == 0:
            return 0.0
        self._check_epoch()
        return self._access_step(observer, device, nbytes, usage.pattern,
                                 usage.access_size, is_write, mode)

    def access_times(
        self,
        pairs: typing.Sequence[typing.Tuple[str, MemoryDevice]],
        usage: RegionUsage,
        is_write: bool = False,
    ) -> typing.List[float]:
        """:meth:`access_time` of one usage for each (observer, device)
        pair, in order: one step per pair, with the usage read once."""
        nbytes = usage.touched_bytes
        if nbytes == 0:
            return [0.0] * len(pairs)
        self._check_epoch()
        step = self._access_step
        pattern = usage.pattern
        access_size = usage.access_size
        terms = [
            step(observer, device, nbytes, pattern, access_size, is_write,
                 None)
            for observer, device in pairs
        ]
        if self._corrects:
            terms = [
                self._corrected(term, ("memory", observer, device.spec.name,
                                       pattern.value))
                for term, (observer, device) in zip(terms, pairs)
            ]
        return terms

    def _access_step(
        self,
        observer: str,
        device: MemoryDevice,
        nbytes: int,
        pattern: AccessPattern,
        access_size: int,
        is_write: bool,
        mode: typing.Optional[AccessMode],
    ) -> float:
        """The one step every access estimate takes: the cached
        size-independent constants, then the data plane's plan for
        ``nbytes`` (> 0) and its lower bound."""
        constants = self._path_cache.get((observer, device.spec.name, is_write))
        if constants is None:
            constants = self._path_constants(observer, device, is_write)
        bytes_per_ns, default_mode, path = constants
        if path is None:
            return math.inf
        plan = path.plan(nbytes, pattern, mode or default_mode, access_size)
        return plan.lower_bound_ns(bytes_per_ns)

    def _path_constants(
        self, observer: str, device: MemoryDevice, is_write: bool
    ) -> tuple:
        """The size-independent part of :meth:`access_time`, cached."""
        offer = self.offered(observer, device)
        path = None
        if offer.bytes_per_ns != 0.0:
            path = AccessPath.between(
                device,
                self.cluster.topology.path_latency(observer, device.name),
                is_write,
            )
        default_mode = AccessMode.SYNC if offer.sync else AccessMode.ASYNC
        constants = (offer.bytes_per_ns, default_mode, path)
        self._path_cache[(observer, device.name, is_write)] = constants
        return constants

    def transfer_time(self, src: MemoryDevice, dst: MemoryDevice, nbytes: int) -> float:
        """Uncontended estimate for a device-to-device copy (ns)."""
        if nbytes == 0:
            return 0.0
        if src.name == dst.name:
            return 2.0 * nbytes / src.spec.bandwidth
        topo = self.cluster.topology
        try:
            latency = topo.path_latency(src.name, dst.name)
            bandwidth = min(
                topo.path_bandwidth(src.name, dst.name),
                src.spec.bandwidth,
                dst.spec.bandwidth,
            )
        except NoRouteError:
            return float("inf")
        return latency + nbytes / bandwidth

    # -- task costs -----------------------------------------------------------

    def _rates_for(self, op) -> "_Rates":
        """ops/ns of ``op`` per compute device, so an estimate hashes
        its op class once, not once per device."""
        rates = self._rates.get(op)
        if rates is None:
            rates = self._rates[op] = _Rates(self.cluster.compute, op)
        return rates

    def compute_time(self, task: Task, compute_name: str) -> float:
        """Pure compute time of ``task`` on a compute device (ns).

        Deliberately the *nominal* (spec-sheet) time: a fail-slow device
        must not leak its physical slowdown into estimates — the control
        plane only learns about gray failures through the health
        monitor's evidence-based DEGRADED state.
        """
        work = task.work
        if work.ops == 0:
            return 0.0
        rate = self._rates_for(work.op_class)[compute_name]
        if rate is None:
            return math.inf
        return work.ops / rate

    def _factor(self, key: tuple) -> float:
        """Correction for the estimate term ``key`` names:
        ``("compute", device, op class)`` or ``("memory", observer,
        device, pattern value)``.  The analytic model applies none."""
        return 1.0

    def _corrected(self, term: float, key: tuple) -> float:
        if term == 0.0 or term == math.inf:
            return term
        return term * self._factor(key)

    def task_estimates(
        self,
        task: Task,
        computes: typing.Sequence[str],
        roles: typing.Mapping[str, tuple],
        input_bytes: int = 0,
    ) -> typing.List[float]:
        """Estimated execution time of ``task`` on each compute device
        in ``computes`` (ns), in order.

        ``roles[name]`` is the (input, scratch, state, output) backing
        device tuple — planned or hypothetical, None for an absent
        role — and is looked up only for devices that can run the task.
        Memory phases are modeled as sequential with compute, matching
        the simulator's default task behaviour.  The work's usages and
        the op class's throughput are read once per call; each term is
        the same step, added in the same order, as a one-device
        estimate.
        """
        self._check_epoch()
        work = task.work
        ops = work.ops
        op = work.op_class
        corrects = self._corrects
        if ops == 0:
            totals = [0.0] * len(computes)
        else:
            rates = self._rates_for(op)
            totals = []
            for name in computes:
                rate = rates[name]
                total = math.inf if rate is None else ops / rate
                if corrects:
                    total = self._corrected(total, ("compute", name, op))
                totals.append(total)

        # (role slot, bytes touched, pattern, access size, is_write) of
        # every phase that moves bytes, in the order they are added.
        phases = []
        usage = work.input_usage
        if usage is not None and input_bytes:
            nbytes = int(input_bytes * usage.touches)
            if nbytes:
                phases.append((0, nbytes, usage.pattern, usage.access_size,
                               False))
        for slot, usage, is_write in ((1, work.scratch, False),
                                      (2, work.state_usage, True),
                                      (3, work.output, True)):
            if usage is not None:
                nbytes = usage.touched_bytes
                if nbytes:
                    phases.append((slot, nbytes, usage.pattern,
                                   usage.access_size, is_write))
        if not phases:
            return totals
        step = self._access_step
        for i, name in enumerate(computes):
            total = totals[i]
            if total == math.inf:
                continue
            devices = roles[name]
            for slot, nbytes, pattern, access_size, is_write in phases:
                device = devices[slot]
                if device is None:
                    continue
                term = step(name, device, nbytes, pattern, access_size,
                            is_write, None)
                if corrects:
                    term = self._corrected(
                        term, ("memory", name, device.spec.name,
                               pattern.value))
                total += term
            totals[i] = total
        return totals

    def task_time_estimate(
        self,
        task: Task,
        compute_name: str,
        memory_for: typing.Callable[[str], typing.Optional[MemoryDevice]],
        input_bytes: int = 0,
    ) -> float:
        """Estimated execution time of ``task`` on ``compute_name``.

        ``memory_for(role)`` maps the roles 'input'/'scratch'/'output'/
        'state' to the (planned or hypothetical) backing device, or None
        when that role is absent.  One device's
        :meth:`task_estimates`.
        """
        return self.task_estimates(
            task, (compute_name,), _RoleLookup(memory_for), input_bytes
        )[0]

    def best_scratch_device(self, observer: str) -> typing.Optional[MemoryDevice]:
        """The lowest-RTT live device an observer can sync-address.

        A planning helper (hypothetical scratch placement for scheduling
        before real placement happens).
        """
        self._check_epoch()
        if observer in self._scratch_cache:
            return self._scratch_cache[observer]
        best = None
        best_rtt = float("inf")
        for device in self.cluster.memory_devices():
            offer = self.offered(observer, device)
            if not offer.sync:
                continue
            if offer.rtt_ns < best_rtt:
                best, best_rtt = device, offer.rtt_ns
        self._scratch_cache[observer] = best
        return best

    def mean_memory_bandwidth(self) -> float:
        """The mean bandwidth of the live memory devices (bytes/ns): a
        placement-independent figure for ranking tasks before any
        memory is chosen."""
        self._check_epoch()
        if self._mean_bandwidth is None:
            bandwidths = [d.spec.bandwidth for d in self.cluster.memory_devices()]
            self._mean_bandwidth = sum(bandwidths) / max(1, len(bandwidths))
        return self._mean_bandwidth
