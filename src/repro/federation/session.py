"""Build and drive a federation: one engine, N racks, one front door.

:func:`federate` stands up N independent rack stacks — each with its
own cluster, runtime system, QoS admission driver, and health monitor —
on **one shared simulation clock**, registers them with a
:class:`~repro.federation.registry.RackRegistry`, and fronts them with
a :class:`~repro.federation.router.Router`.  The returned
:class:`FederatedSession` mirrors the single-rack
:class:`repro.api.Session` API (``register_tenant`` / ``submit`` /
``run`` / ``run_trace`` / ``dashboard``) so code written against one
rack scales to N by changing the connect call::

    import repro.api as api

    fed = api.connect("pooled-rack", racks=3, routing="affinity")
    fed.register_tenant("web", weight=2.0)
    fed.pin_dataset("user-7", "rack0", nbytes=64 * 2**20)
    handle = fed.submit(job, tenant="web", session="user-7")
    fed.run()

Elasticity: :meth:`FederatedSession.add_rack` joins a new rack mid-run
(existing tenants are replayed onto it); :meth:`FederatedSession.
drain_rack` removes one *without job-level failures* — routing stops
immediately, in-flight work (including cross-rack fetches already
destined there) completes, then each node goes through the health
monitor's graceful DRAINING machinery before the rack leaves the
registry.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.federation.overload import OverloadDetector
from repro.federation.rack import Rack
from repro.federation.registry import RackRegistry
from repro.federation.router import RoutedJob, Router
from repro.hardware.cluster import Cluster
from repro.obs import Observability
from repro.runtime.admission import RackDriver
from repro.runtime.health import HealthMonitor, HealthState
from repro.runtime.rts import JobStats, RuntimeSystem
from repro.runtime.tenancy import PriorityClass, TenantQuota
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.trace import TraceLog

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataflow.graph import Job


def federate(
    racks: int = 2,
    cluster_preset: str = "pooled-rack",
    *,
    seed: int = 0,
    routing: typing.Union[str, object] = "round_robin",
    scheduler=None,
    placement=None,
    recovery=None,
    heartbeat_ns: float = 50_000.0,
    degraded_below: float = 0.7,
    down_below: float = 0.3,
    queue_watermark: int = 8,
    burn_watermark: float = 2.0,
    interrack_bandwidth: float = 5.0,
    interrack_latency_ns: float = 2_000.0,
    detection_delay_ns: float = 10_000.0,
    window_ns: float = 500_000.0,
    **rack_options,
) -> "FederatedSession":
    """Stand up ``racks`` rack stacks on one clock behind a router.

    Rack ``i`` is ``cluster_preset`` seeded with ``seed + i`` and named
    ``rack<i>``.  ``scheduler``/``placement``/``recovery`` forward to
    every rack's :class:`~repro.runtime.rts.RuntimeSystem`; leftover
    keyword arguments forward to each rack's
    :class:`~repro.runtime.admission.RackDriver` (``max_concurrent``,
    ``policy``, ...).
    """
    if racks < 1:
        raise ValueError(f"need at least one rack, got {racks}")
    engine = Engine()
    obs = Observability(trace=TraceLog(), engine=engine)
    registry = RackRegistry(
        engine, obs, heartbeat_ns=heartbeat_ns,
        degraded_below=degraded_below, down_below=down_below,
    )
    router = Router(
        registry, obs, policy=routing,
        overload=OverloadDetector(
            queue_watermark=queue_watermark, burn_watermark=burn_watermark,
        ),
        interrack_bandwidth=interrack_bandwidth,
        interrack_latency_ns=interrack_latency_ns,
    )

    def rack_factory(name: str, rack_seed: int) -> Rack:
        cluster = Cluster.preset(cluster_preset, seed=rack_seed, engine=engine)
        monitor = HealthMonitor(
            cluster, detection_delay_ns=detection_delay_ns,
        )
        rts = RuntimeSystem(
            cluster, scheduler=scheduler, placement=placement,
            recovery=recovery,
        )
        driver = RackDriver(rts, **rack_options)
        return Rack(name, cluster, rts, driver, monitor, window_ns=window_ns)

    session = FederatedSession(engine, registry, router, obs, rack_factory)
    for i in range(racks):
        session.add_rack(name=f"rack{i}", seed=seed + i)
    return session


class FederatedSession:
    """N connected racks behind one router, driven on one clock."""

    def __init__(
        self,
        engine: Engine,
        registry: RackRegistry,
        router: Router,
        obs: Observability,
        rack_factory: typing.Callable[[str, int], Rack],
    ):
        self.engine = engine
        self.registry = registry
        self.router = router
        self.obs = obs
        self._rack_factory = rack_factory
        #: Tenant registrations to replay onto racks that join later.
        self._tenant_specs: typing.Dict[str, dict] = {}
        #: Every rack ever built — deregistered racks keep simulating
        #: (their reboots, repairs) and still report.
        self._all_racks: typing.List[Rack] = []
        #: ``done`` events of every drain begun.
        self._drains: typing.List[Event] = []
        self._next_seed = 0
        #: True once :meth:`close` has finalized the run.
        self.closed = False

    # -- membership --------------------------------------------------------

    @property
    def racks(self) -> typing.List[Rack]:
        """Currently registered racks, in name order."""
        return self.registry.racks()

    def rack(self, name: str) -> Rack:
        """One registered rack by name."""
        return self.registry.get(name)

    def add_rack(
        self, name: typing.Optional[str] = None,
        seed: typing.Optional[int] = None,
    ) -> Rack:
        """Build and join one more rack (elastic scale-out).

        Already-registered tenants (and their SLO policies) are
        replayed onto the newcomer so routing there is transparent.
        """
        if name is None:
            name = f"rack{len(self._all_racks)}"
        if seed is None:
            seed = self._next_seed
        self._next_seed = max(self._next_seed, seed + 1)
        rack = self._rack_factory(name, seed)
        for tenant_name, spec in self._tenant_specs.items():
            self._register_tenant_on(rack, tenant_name, spec)
        self.registry.register(rack)
        self._all_racks.append(rack)
        return rack

    def drain_rack(self, name: str):
        """Elastically remove a rack with zero job-level failures.

        Routing to the rack stops immediately (it turns DRAINING in the
        registry); queued and running jobs — including cross-rack
        fetches already destined there — finish normally; then every
        node goes through the health monitor's graceful drain
        (``NODE_REBOOT`` once idle) and the rack leaves the registry.

        Returns an :class:`~repro.sim.events.Event` that succeeds with
        the rack name once the drain completes; drive the clock (e.g.
        the surrounding ``run_trace``) to make progress.
        """
        rack = self.registry.get(name)
        self.registry.begin_drain(name)
        done = self.engine.event()
        self._drains.append(done)
        devices = list(rack.cluster.memory) + list(rack.cluster.compute)
        rebooted = self.engine.event()

        def on_change():
            if not rebooted.triggered and not any(
                rack.monitor.state(d) is HealthState.DRAINING
                for d in devices
            ):
                rebooted.succeed()

        def drain():
            # Phase 1: let routed work land and finish.  Covers jobs in
            # the rack's admission queues, running jobs, and fetches in
            # flight toward this rack (routing here has stopped).
            yield self.engine.all_of([
                job.settled for job in self.router.jobs if job.rack == name
            ])
            # Phase 2: gracefully power-cycle each node through the
            # health monitor (reboots fire once nodes are idle).
            for node in sorted(rack.cluster.nodes):
                rack.monitor.begin_drain(node)
            rack.monitor.on_change(on_change)
            on_change()  # begin_drain skips nodes with a failed member
            yield rebooted
            # Phase 3: forget the rack.
            self.registry.deregister(name)
            self.registry.stats.drains_completed += 1
            self.obs.event("federation", "drain_complete", rack=name)
            done.succeed(name)

        self.engine.process(drain(), name=f"federation:drain:{name}")
        return done

    # -- tenancy -----------------------------------------------------------

    def register_tenant(
        self,
        name: str,
        *,
        weight: float = 1.0,
        priority: typing.Union[PriorityClass, str, int] = PriorityClass.BATCH,
        quota: typing.Optional[TenantQuota] = None,
        slo_target_ns: typing.Optional[float] = None,
        slo_objective: float = 0.99,
    ) -> None:
        """Register a tenant on every rack (current and future)."""
        spec = dict(
            weight=weight, priority=priority, quota=quota,
            slo_target_ns=slo_target_ns, slo_objective=slo_objective,
        )
        self._tenant_specs[name] = spec
        for rack in self._all_racks:
            self._register_tenant_on(rack, name, spec)

    @staticmethod
    def _register_tenant_on(rack: Rack, name: str, spec: dict) -> None:
        rack.driver.tenants.register(
            name, weight=spec["weight"], priority=spec["priority"],
            quota=spec["quota"],
        )
        if spec["slo_target_ns"] is not None:
            rack.obs.slo.set_policy(
                f"tenant:{name}", spec["slo_target_ns"],
                objective=spec["slo_objective"],
            )
            # Per-rack burn-rate rule: the alert names which rack is
            # burning this tenant's budget, not just that someone is.
            from repro.obs.telemetry import BurnRateRule

            window = rack.obs.telemetry.window_ns
            rack.obs.telemetry.alerts.add_rule(BurnRateRule(
                f"tenant:{name}", fast_ns=5 * window, slow_ns=30 * window,
                scope=f"rack {rack.name}",
            ))

    # -- data placement ----------------------------------------------------

    def pin_dataset(self, key: str, rack_name: str, nbytes: float) -> None:
        """Declare ``key``'s hot data resident on ``rack_name`` (the
        affinity policy routes ``session=key`` jobs there)."""
        self.router.pin_dataset(key, rack_name, nbytes)

    # -- submission / execution --------------------------------------------

    def submit(
        self,
        job: "Job",
        *,
        tenant: typing.Optional[str] = None,
        priority: typing.Union[PriorityClass, str, int, None] = None,
        cost: float = 1.0,
        session: typing.Optional[str] = None,
    ) -> RoutedJob:
        """Route one job through the federation front door.

        ``session`` is the affinity key: jobs sharing it share a pinned
        dataset and (under the affinity policy) a preferred rack.
        """
        return self.router.route(
            job.name, job, tenant=tenant, priority=priority, cost=cost,
            session=session,
        )

    def submit_app(
        self,
        app: str,
        spec: typing.Optional[typing.Mapping[str, object]] = None,
        *,
        tenant: typing.Optional[str] = None,
        priority: typing.Union[PriorityClass, str, int, None] = None,
        cost: float = 1.0,
        session: typing.Optional[str] = None,
        **spec_kwargs,
    ) -> RoutedJob:
        """Route one app-class job by name (the federated twin of
        :meth:`repro.api.Session.submit_app`).

        ``app`` names a class from :data:`repro.apps.APP_BUILDERS`;
        ``spec``/keyword arguments forward to its builder; ``session``
        is the affinity key as in :meth:`submit`.
        """
        from repro.apps import build_app_job

        merged = dict(spec or {})
        merged.update(spec_kwargs)
        job = build_app_job(app, **merged)
        return self.submit(
            job, tenant=tenant, priority=priority, cost=cost,
            session=session,
        )

    def run(
        self,
        *jobs: "Job",
        tenant: typing.Optional[str] = None,
        priority: typing.Union[PriorityClass, str, int, None] = None,
        session: typing.Optional[str] = None,
    ):
        """Submit ``jobs`` (if any) and drive the federation to
        quiescence.

        Returns one :class:`~repro.runtime.rts.JobStats` for a single
        job, a list for several (``None`` for shed jobs), or the
        federation report when called with no arguments (drain mode).
        """
        handles = [
            self.submit(job, tenant=tenant, priority=priority,
                        session=session)
            for job in jobs
        ]
        self._drive()
        if not jobs:
            return self.report()
        results = [self._result(handle) for handle in handles]
        return results[0] if len(jobs) == 1 else results

    def run_trace(self, arrivals) -> typing.List[RoutedJob]:
        """Run ``(time, name, job_factory[, tenant[, priority
        [, session]]])`` arrivals through the router to completion.

        Returns the federation-level handles in arrival order.
        """
        ordered = sorted(arrivals, key=lambda a: a[0])
        handles: typing.List[RoutedJob] = []

        def arrival_process():
            for arrival in ordered:
                time, name, factory = arrival[0], arrival[1], arrival[2]
                tenant = arrival[3] if len(arrival) > 3 else None
                priority = arrival[4] if len(arrival) > 4 else None
                session = arrival[5] if len(arrival) > 5 else None
                if time > self.engine.now:
                    yield self.engine.timeout(time - self.engine.now)
                handles.append(self.router.route(
                    name, factory, tenant=tenant, priority=priority,
                    session=session,
                ))

        self._drive(self.engine.process(
            arrival_process(), name="federation:arrivals"
        ))
        return handles

    def result(self, handle: RoutedJob) -> typing.Optional[JobStats]:
        """Finished stats for a ``submit``/``submit_app`` handle.

        ``None`` for a job shed at the front door or by its rack;
        raises the job's error if it failed on-rack.
        """
        return self._result(handle)

    def _result(self, handle: RoutedJob) -> typing.Optional[JobStats]:
        """Finished stats for a routed job (None if shed anywhere)."""
        if handle.shed:
            return None
        admitted = handle.admitted
        if admitted is None:
            raise RuntimeError(
                f"job {handle.name!r} never landed on rack "
                f"{handle.rack!r}; was the clock driven to quiescence?"
            )
        if admitted.shed:
            return None
        execution = admitted.execution
        if execution is None:
            raise RuntimeError(
                f"job {handle.name!r} was never admitted on rack "
                f"{handle.rack!r} (queued behind a quota?)"
            )
        if execution.stats.error is not None:
            raise execution.stats.error
        return execution.stats

    # -- the drive loop ----------------------------------------------------

    def _drive(self, arrivals: typing.Optional[Event] = None) -> None:
        """Advance the shared clock until the federation is quiescent.

        The registry heartbeat runs forever, so ``engine.run()`` alone
        would never return.  Instead one ``engine.run`` lasts until
        ``arrivals`` (if given) has ended, every routed job has settled
        and every drain is done; then the heartbeat is killed and the
        remaining schedule (node reboots, repairs) drains."""
        def quiesce():
            if arrivals is not None:
                yield arrivals
            pending = True
            while pending:  # jobs routed or drains begun meanwhile
                pending = [job.settled for job in self.router.jobs
                           if not job.settled.processed]
                pending += [done for done in self._drains if not done.processed]
                yield self.engine.all_of(pending)

        self.registry.start_heartbeat()
        self.engine.run(
            until=self.engine.process(quiesce(), name="federation:drive"))
        self.registry.stop_heartbeat()
        self.engine.run()

    # -- reporting ---------------------------------------------------------

    @property
    def jobs(self) -> typing.List[RoutedJob]:
        """Every job routed so far, in submission order."""
        return self.router.jobs

    def job_failures(self) -> typing.List[RoutedJob]:
        """Routed jobs that did not complete successfully: shed at the
        front door, shed by a rack, or failed during execution."""
        failures = []
        for job in self.router.jobs:
            if job.shed:
                failures.append(job)
                continue
            admitted = job.admitted
            if admitted is None or admitted.shed or not admitted.completed:
                failures.append(job)
        return failures

    def report(self) -> dict:
        """Federation-level accounting: router + per-rack summaries."""
        racks = {}
        for rack in self._all_racks:
            stats = rack.driver.stats
            racks[rack.name] = {
                "registered": rack.name in self.registry,
                "state": (
                    self.registry.state(rack.name).value
                    if rack.name in self.registry else "removed"
                ),
                "jobs": len(stats.jobs),
                "completed": stats.completed,
                "shed": stats.shed,
                "mean_queue_wait": stats.mean_queue_wait,
                "health": rack.health_fraction(),
            }
        return {
            "router": dataclasses.asdict(self.router.stats),
            "registry": dataclasses.asdict(self.registry.stats),
            "racks": racks,
        }

    def tenant_report(self) -> typing.Dict[str, typing.Dict[str, dict]]:
        """Per-rack tenant accounting (rack name -> tenant report)."""
        return {
            rack.name: rack.driver.tenant_report()
            for rack in self._all_racks
        }

    def dashboard(self) -> str:
        """The federation's text dashboard (routing + per-rack gauges),
        rendered from the live state."""
        return self.obs.dashboard()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Finalize the run on every rack and the federation hub.

        Each rack's telemetry hub takes its final poll and closes its
        open alert spans, then the federation-level hub does the same.
        Nothing is rendered or serialised here: read the end-of-run
        report with :meth:`dashboard`.  Idempotent.
        """
        if self.closed:
            return
        for rack in self._all_racks:
            rack.obs.telemetry.finalize(self.engine.now)
        self.obs.telemetry.finalize(self.engine.now)
        self.closed = True

    def __enter__(self) -> "FederatedSession":
        """``with api.connect(..., racks=N) as fed:`` support."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the session when the ``with`` block ends."""
        self.close()


__all__ = ["FederatedSession", "federate"]
