"""The federation's front door: route each job to a rack.

Modeled on the router tier of production LLM serving stacks (a thin
process in front of N engine replicas, split into service discovery +
routing logic + overload detection).  Here the replicas are whole
racks: the :class:`Router` asks the :class:`~repro.federation.registry.
RackRegistry` for routable racks, lets a pluggable policy pick one,
and consults the :class:`~repro.federation.overload.OverloadDetector`
to spill or shed before the rack's own admission queues ever see the
job.

Policies (``repro.api.connect(racks=N, routing=...)``):

``round_robin``
    Cycle through routable racks in name order.  The baseline.
``least_loaded``
    Pick the rack with the lowest :meth:`Rack.load_score` — current
    load blended with the heartbeat-sampled sliding-window mean.
``affinity``
    Route a session's jobs to the rack already holding its pinned
    dataset, falling back to least-loaded (and sticking there) when no
    replica exists.  Cross-rack placement pays an explicit simulated
    fetch: ``interrack_latency_ns + bytes / interrack_bandwidth`` on
    the shared clock, after which the destination rack holds a replica
    (fetch-once, then local).
``prefix_affinity``
    Affinity over hierarchical session keys (``"/"``-separated block
    paths, as the LLM app's prompt prefixes).  A key with no replica
    of its own routes to the rack holding its *longest resident
    ancestor* — the rack whose KV prefix cache covers the most of the
    prompt — before falling back to the sticky least-loaded choice.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.federation.overload import OverloadDetector
from repro.federation.rack import Rack
from repro.federation.registry import RackRegistry, RackState


@dataclasses.dataclass
class RoutedJob:
    """The federation-level handle for one submitted job."""

    name: str
    session: typing.Optional[str] = None
    #: Destination rack name (None when shed at the front door).
    rack: typing.Optional[str] = None
    #: Shed by the federation: every routable rack was overloaded (or
    #: none existed).  Distinct from rack-level admission shedding.
    shed: bool = False
    #: The policy's first choice was overloaded; we went elsewhere.
    spilled: bool = False
    #: Bytes pulled across the inter-rack fabric before submission.
    fetched_bytes: float = 0.0
    #: The rack-level admission handle.  Filled at route time for local
    #: jobs, after the simulated fetch for cross-rack ones.
    admitted: typing.Any = dataclasses.field(default=None, repr=False)
    #: Engine event that fires on a front-door shed, or when the job
    #: settles on its rack (after any cross-rack fetch).
    settled: typing.Any = dataclasses.field(default=None, repr=False)

    @property
    def accounted(self) -> bool:
        """Terminal at the routing layer: shed, or handed to a rack."""
        return self.shed or self.admitted is not None


class RoundRobinPolicy:
    """Cycle through routable racks in name order."""

    name = "round_robin"

    def __init__(self):
        self._turn = 0

    def choose(
        self,
        candidates: typing.List[Rack],
        now: float,
        session: typing.Optional[str],
        resident: typing.Set[str],
    ) -> Rack:
        """The next rack in rotation."""
        rack = candidates[self._turn % len(candidates)]
        self._turn += 1
        return rack


class LeastLoadedPolicy:
    """Pick the rack with the lowest recent-window load score."""

    name = "least_loaded"

    def choose(
        self,
        candidates: typing.List[Rack],
        now: float,
        session: typing.Optional[str],
        resident: typing.Set[str],
    ) -> Rack:
        """The candidate with the lowest (load score, name) key."""
        return min(candidates, key=lambda r: (r.load_score(now), r.name))


class AffinityPolicy:
    """Follow the data: route a session to the rack holding its bytes.

    ``resident`` is the set of rack names currently holding the
    session's pinned dataset (maintained by the router's catalog).  A
    session with no replica anywhere picks the least-loaded rack and
    sticks to it, so its *next* job finds the replica the first fetch
    created.
    """

    name = "affinity"

    def __init__(self):
        self._fallback = LeastLoadedPolicy()
        #: Sticky choice for sessions with no pinned dataset at all.
        self._pins: typing.Dict[str, str] = {}

    def choose(
        self,
        candidates: typing.List[Rack],
        now: float,
        session: typing.Optional[str],
        resident: typing.Set[str],
    ) -> Rack:
        """A rack holding the session's data, else a sticky fallback."""
        by_name = {rack.name: rack for rack in candidates}
        if resident:
            local = sorted(name for name in resident if name in by_name)
            if local:
                # Several replicas: least-loaded among them.
                if len(local) > 1:
                    return min(
                        (by_name[name] for name in local),
                        key=lambda r: (r.load_score(now), r.name),
                    )
                return by_name[local[0]]
        if session is not None:
            pinned = self._pins.get(session)
            if pinned in by_name:
                return by_name[pinned]
        rack = self._fallback.choose(candidates, now, session, resident)
        if session is not None:
            self._pins[session] = rack.name
        return rack


class PrefixAffinityPolicy(AffinityPolicy):
    """Affinity over hierarchical keys: longest resident ancestor wins.

    Session keys are ``"/"``-separated paths (the LLM app submits each
    request under its prompt's block path).  When no rack holds the
    exact key, the policy consults the router's dataset catalog for the
    key's ancestors — longest first — and routes to a rack holding one:
    that rack's prefix cache covers the most of the prompt, so decode
    reuses the most KV state.  With no resident ancestor either, the
    sticky least-loaded fallback of :class:`AffinityPolicy` applies.
    """

    name = "prefix_affinity"

    def __init__(self):
        super().__init__()
        self._router = None

    def bind_router(self, router: "Router") -> None:
        """Give the policy catalog access (called by the router)."""
        self._router = router

    def choose(
        self,
        candidates: typing.List[Rack],
        now: float,
        session: typing.Optional[str],
        resident: typing.Set[str],
    ) -> Rack:
        """A rack holding the longest resident prefix of ``session``."""
        if (
            not resident and session is not None
            and self._router is not None and "/" in session
        ):
            parts = session.split("/")
            for depth in range(len(parts) - 1, 0, -1):
                holders = self._router.resident_racks("/".join(parts[:depth]))
                if holders:
                    resident = holders
                    break
        return super().choose(candidates, now, session, resident)


POLICIES: typing.Dict[str, typing.Callable[[], object]] = {
    "round_robin": RoundRobinPolicy,
    "least_loaded": LeastLoadedPolicy,
    "affinity": AffinityPolicy,
    "prefix_affinity": PrefixAffinityPolicy,
}


@dataclasses.dataclass
class RouterStats:
    routed: int = 0
    spills: int = 0
    sheds: int = 0
    cross_rack_fetches: int = 0
    cross_rack_bytes: float = 0.0
    #: Routings where a DEGRADED rack was routable but an UP rack won.
    degraded_avoided: int = 0


class Router:
    """Routes jobs onto racks through a policy + overload detector."""

    def __init__(
        self,
        registry: RackRegistry,
        obs,
        policy: typing.Union[str, object] = "round_robin",
        overload: typing.Optional[OverloadDetector] = None,
        interrack_bandwidth: float = 5.0,
        interrack_latency_ns: float = 2_000.0,
    ):
        if isinstance(policy, str):
            try:
                policy = POLICIES[policy]()
            except KeyError:
                raise ValueError(
                    f"unknown routing policy {policy!r}; "
                    f"pick one of {sorted(POLICIES)}"
                ) from None
        if interrack_bandwidth <= 0:
            raise ValueError(
                f"inter-rack bandwidth must be positive, got "
                f"{interrack_bandwidth}"
            )
        if interrack_latency_ns < 0:
            raise ValueError(
                f"inter-rack latency must be >= 0, got {interrack_latency_ns}"
            )
        self.registry = registry
        self.engine = registry.engine
        self.obs = obs
        self.policy = policy
        self.overload = overload if overload is not None else OverloadDetector()
        #: Inter-rack fabric model: bytes per ns, plus a flat latency.
        self.interrack_bandwidth = float(interrack_bandwidth)
        self.interrack_latency_ns = float(interrack_latency_ns)
        self.stats = RouterStats()
        self.jobs: typing.List[RoutedJob] = []
        #: dataset key -> rack names holding a replica
        self._residency: typing.Dict[str, typing.Set[str]] = {}
        #: dataset key -> replica size in bytes
        self._dataset_bytes: typing.Dict[str, float] = {}
        bind = getattr(self.policy, "bind_router", None)
        if bind is not None:
            bind(self)

    # -- dataset catalog ---------------------------------------------------

    def pin_dataset(self, key: str, rack_name: str, nbytes: float) -> None:
        """Declare that ``key``'s hot data lives on ``rack_name``.

        Affinity routing sends the session's jobs there; any other rack
        must first fetch ``nbytes`` across the inter-rack fabric.
        """
        if nbytes < 0:
            raise ValueError(f"dataset size must be >= 0, got {nbytes}")
        if rack_name not in self.registry:
            raise KeyError(f"unknown rack {rack_name!r}")
        self._residency.setdefault(key, set()).add(rack_name)
        self._dataset_bytes[key] = float(nbytes)

    def resident_racks(self, key: typing.Optional[str]) -> typing.Set[str]:
        """Rack names currently holding a replica of ``key``'s data."""
        if key is None:
            return set()
        return set(self._residency.get(key, ()))

    # -- routing -----------------------------------------------------------

    def route(
        self,
        name: str,
        source,
        *,
        tenant: typing.Optional[str] = None,
        priority=None,
        cost: float = 1.0,
        session: typing.Optional[str] = None,
    ) -> RoutedJob:
        """Pick a rack for one job and submit it there.

        Returns the federation handle immediately; for a cross-rack
        placement the rack-level submission happens after the simulated
        dataset fetch, so ``routed.admitted`` fills in later on the
        shared clock.
        """
        routed = RoutedJob(name=name, session=session)
        self.jobs.append(routed)
        candidates = self.registry.routable_racks()
        if not candidates:
            return self._shed(routed, reason="no_routable_rack")
        # Racks the registry derives as DEGRADED (fail-slow members)
        # stay routable, but only as a last resort: spill around them
        # while any fully-UP rack can take the job.
        fresh = [
            r for r in candidates
            if self.registry.state(r.name) is RackState.UP
        ]
        if fresh and len(fresh) < len(candidates):
            candidates = fresh
            self.stats.degraded_avoided += 1
            self.obs.counter("fed.degraded_avoided").inc()
        now = self.engine.now
        resident = self.resident_racks(session)
        rack = self.policy.choose(candidates, now, session, resident)
        if self.overload.is_overloaded(rack):
            relief = [
                r for r in candidates
                if r is not rack and not self.overload.is_overloaded(r)
            ]
            if not relief:
                return self._shed(routed, reason="all_overloaded")
            spill_to = min(relief, key=lambda r: (r.load_score(now), r.name))
            routed.spilled = True
            self.stats.spills += 1
            self.obs.counter("fed.spills").inc()
            self.obs.event(
                "federation", "spill", job=name, wanted=rack.name,
                got=spill_to.name, reason=self.overload.reason(rack),
            )
            rack = spill_to
        routed.rack = rack.name
        self.stats.routed += 1
        self.obs.counter("fed.routed").inc()
        self.obs.counter(f"fed.routed/{rack.name}").inc()
        need = self._fetch_bytes(session, rack.name)
        if need > 0:
            self._start_fetch(routed, rack, source, tenant, priority, cost,
                              session, need)
        else:
            routed.admitted = rack.driver.submit_job(
                name, source, tenant=tenant, priority=priority, cost=cost,
            )
            routed.settled = routed.admitted.settled
        return routed

    def _shed(self, routed: RoutedJob, reason: str) -> RoutedJob:
        routed.shed = True
        routed.settled = self.engine.timeout(0)
        self.stats.sheds += 1
        self.obs.counter("fed.sheds").inc()
        self.obs.event("federation", "shed", job=routed.name, reason=reason)
        return routed

    def _fetch_bytes(
        self, session: typing.Optional[str], rack_name: str
    ) -> float:
        """Bytes the destination rack must pull before it can start."""
        if session is None or session not in self._residency:
            return 0.0
        if rack_name in self._residency[session]:
            return 0.0
        return self._dataset_bytes.get(session, 0.0)

    def _start_fetch(
        self, routed: RoutedJob, rack: Rack, source, tenant, priority,
        cost: float, session: str, nbytes: float,
    ) -> None:
        self.stats.cross_rack_fetches += 1
        self.stats.cross_rack_bytes += nbytes
        self.obs.counter("fed.cross_rack_fetches").inc()
        self.obs.counter("fed.cross_rack_bytes").inc(nbytes)
        delay = (
            self.interrack_latency_ns + nbytes / self.interrack_bandwidth
        )
        self.obs.event(
            "federation", "cross_rack_fetch", job=routed.name,
            session=session, rack=rack.name, bytes=nbytes, delay=delay,
        )

        def fetch():
            yield self.engine.timeout(delay)
            # Fetch-once: the destination now holds a replica, so this
            # session's next jobs routed here start immediately.
            self._residency[session].add(rack.name)
            routed.fetched_bytes = nbytes
            routed.admitted = rack.driver.submit_job(
                routed.name, source, tenant=tenant, priority=priority,
                cost=cost,
            )
            yield routed.admitted.settled

        routed.settled = self.engine.process(
            fetch(), name=f"federation:fetch:{routed.name}")


__all__ = [
    "AffinityPolicy",
    "LeastLoadedPolicy",
    "POLICIES",
    "PrefixAffinityPolicy",
    "RoundRobinPolicy",
    "RoutedJob",
    "Router",
    "RouterStats",
]
