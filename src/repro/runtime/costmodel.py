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
"""

from __future__ import annotations

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


class _InputTouch(typing.NamedTuple):
    """What :meth:`CostModel.access_time` reads of a usage, for an input
    whose size is only known from the upstream tasks' outputs."""

    touched_bytes: int
    pattern: AccessPattern
    access_size: int


class CostModel:
    """Answers 'what would it cost' questions for placement/scheduling."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
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
        so cached NoRouteError offers can't outlive the outage that
        produced them even if no explicit ``invalidate()`` caller fires.
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
        constants = self._path_cache.get((observer, device.name, is_write))
        if constants is None:
            constants = self._path_constants(observer, device, is_write)
        bytes_per_ns, default_mode, path = constants
        if path is None:
            return float("inf")
        plan = path.plan(nbytes, usage.pattern, mode or default_mode,
                         usage.access_size)
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

    def compute_time(self, task: Task, compute_name: str) -> float:
        """Pure compute time of ``task`` on a compute device (ns).

        Deliberately the *nominal* (spec-sheet) time: a fail-slow device
        must not leak its physical slowdown into estimates — the control
        plane only learns about gray failures through the health
        monitor's evidence-based DEGRADED state.
        """
        device = self.cluster.compute[compute_name]
        work = task.work
        if work.ops == 0:
            return 0.0
        if not device.supports(work.op_class):
            return float("inf")
        return device.nominal_compute_time(work.op_class, work.ops)

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
        when that role is absent.  Memory phases are modeled as
        sequential with compute, matching the simulator's default task
        behaviour.
        """
        work = task.work
        total = self.compute_time(task, compute_name)
        if total == float("inf"):
            return total

        input_device = memory_for("input")
        if work.input_usage is not None and input_device is not None and input_bytes:
            usage = work.input_usage
            total += self.access_time(compute_name, input_device, _InputTouch(
                int(input_bytes * usage.touches), usage.pattern,
                usage.access_size,
            ))

        scratch_device = memory_for("scratch")
        if work.scratch is not None and scratch_device is not None:
            total += self.access_time(compute_name, scratch_device, work.scratch)

        state_device = memory_for("state")
        if work.state_usage is not None and state_device is not None:
            total += self.access_time(
                compute_name, state_device, work.state_usage, is_write=True
            )

        output_device = memory_for("output")
        if work.output is not None and output_device is not None:
            total += self.access_time(
                compute_name, output_device, work.output, is_write=True
            )
        return total

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
