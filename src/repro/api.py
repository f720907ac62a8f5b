"""The one front door: ``connect()`` a rack, ``submit``/``run`` jobs.

:func:`connect` builds the whole stack — cluster preset, runtime
system, QoS admission — and returns a :class:`Session` whose
``submit``/``run`` are the supported way in.  Everything lands in the
admission layer, so weighted-fair queueing, quotas, priority classes,
and preemption apply uniformly::

    import repro.api as api

    session = api.connect("pooled-rack", seed=7)
    session.register_tenant("web", weight=3.0, priority="interactive",
                            slo_target_ns=2e6)
    session.register_tenant("batch", weight=1.0, priority="best_effort")

    handle = session.submit(job, tenant="web")     # queue it
    stats = session.run()                          # drive to completion
    print(session.dashboard())

There is no other way in: the runtime system and the app drivers
(``LinearTrainer``, ``JacobiSolver``, ``PhysicalQueryEngine``,
``StreamExecutor``, ``LLMEngine``) take a :class:`Session`, never a
bare :class:`~repro.runtime.rts.RuntimeSystem`.  A runtime built by
hand (extra options, a baseline stack) is fronted by
``Session(rts, RackDriver(rts, ...))``.
"""

from __future__ import annotations

import difflib
import inspect
import typing

from repro.dataflow.graph import Job
from repro.federation.session import FederatedSession
from repro.hardware.cluster import Cluster
from repro.runtime.admission import AdmittedJob, RackDriver, RackStats
from repro.runtime.rts import JobStats, RuntimeSystem
from repro.runtime.tenancy import (
    PriorityClass,
    Tenant,
    TenantQuota,
    TenantRegistry,
)


def connect(
    cluster_preset: str = "pooled-rack",
    *,
    seed: int = 0,
    racks: typing.Optional[int] = None,
    routing: typing.Union[str, object] = "round_robin",
    cluster: typing.Optional[Cluster] = None,
    scheduler=None,
    placement=None,
    recovery=None,
    tenants: typing.Optional[TenantRegistry] = None,
    **rack_options,
) -> "Session":
    """Build a cluster, runtime, and QoS admission layer; return the
    Session that fronts them.

    ``cluster_preset``/``seed`` pick the simulated rack (pass an
    explicit ``cluster`` to override); ``scheduler``/``placement``/
    ``recovery`` forward to :class:`~repro.runtime.rts.RuntimeSystem`;
    everything else (``max_concurrent``, ``policy``,
    ``enable_preemption``, ...) forwards to
    :class:`~repro.runtime.admission.RackDriver`.

    Pass ``racks=N`` to stand up a *federation* instead: N rack stacks
    (each ``cluster_preset``, seeded ``seed .. seed+N-1``) on one
    simulated clock behind a router, returned as a
    :class:`~repro.federation.session.FederatedSession` whose
    ``submit``/``run`` go through the routing policy named by
    ``routing`` (``round_robin``, ``least_loaded``, ``affinity``, or
    ``prefix_affinity``).

    Both session kinds are context managers: ``with api.connect(...)
    as s:`` finalizes telemetry and renders the final dashboard on
    exit.  Unknown keyword options raise ``TypeError`` naming the
    nearest valid one.
    """
    _check_rack_options(rack_options, federated=racks is not None)
    if racks is not None:
        if cluster is not None:
            raise ValueError("racks=N builds its own clusters; drop cluster=")
        if tenants is not None:
            raise ValueError(
                "racks=N keeps per-rack tenant registries; use "
                "FederatedSession.register_tenant instead of tenants="
            )
        from repro.federation.session import federate

        return federate(
            racks, cluster_preset, seed=seed, routing=routing,
            scheduler=scheduler, placement=placement, recovery=recovery,
            **rack_options,
        )
    if cluster is None:
        cluster = Cluster.preset(cluster_preset, seed=seed)
    rts = RuntimeSystem(
        cluster, scheduler=scheduler, placement=placement, recovery=recovery,
    )
    driver = RackDriver(rts, tenants=tenants, **rack_options)
    return Session(rts, driver)


def _valid_rack_options(federated: bool) -> typing.FrozenSet[str]:
    """The option vocabulary ``connect(**rack_options)`` accepts."""
    params = inspect.signature(RackDriver.__init__).parameters
    valid = {n for n in params if n not in ("self", "rts")}
    if federated:
        from repro.federation.session import federate

        fed = inspect.signature(federate).parameters
        valid |= {
            n for n, p in fed.items()
            if p.kind is inspect.Parameter.KEYWORD_ONLY
        }
        valid -= {"tenants"}  # per-rack registries in a federation
    return frozenset(valid)


def _check_rack_options(options: typing.Mapping[str, object],
                        federated: bool) -> None:
    """Reject unknown ``connect`` options, naming the nearest valid one."""
    valid = _valid_rack_options(federated)
    for name in options:
        if name in valid:
            continue
        close = difflib.get_close_matches(name, sorted(valid), n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise TypeError(
            f"connect() got an unexpected keyword argument {name!r}{hint} "
            f"(valid options: {', '.join(sorted(valid))})"
        )


class Session:
    """A connected rack: tenants, submission, execution, reporting."""

    def __init__(self, rts: RuntimeSystem, driver: RackDriver):
        self.rts = rts
        self.driver = driver
        #: True once :meth:`close` has finalized the run.
        self.closed = False

    # -- plumbing accessors ----------------------------------------------

    @property
    def cluster(self) -> Cluster:
        """The simulated rack this session runs on."""
        return self.rts.cluster

    @property
    def obs(self):
        """The run's cross-layer observability hub."""
        return self.rts.cluster.obs

    @property
    def tenants(self) -> TenantRegistry:
        """The tenant registry the admission layer schedules over."""
        return self.driver.tenants

    @property
    def stats(self) -> RackStats:
        """Admission-level statistics for everything submitted so far."""
        return self.driver.stats

    # -- tenancy ----------------------------------------------------------

    def register_tenant(
        self,
        name: str,
        *,
        weight: float = 1.0,
        priority: typing.Union[PriorityClass, str, int] = PriorityClass.BATCH,
        quota: typing.Optional[TenantQuota] = None,
        slo_target_ns: typing.Optional[float] = None,
        slo_objective: float = 0.99,
    ) -> Tenant:
        """Register a tenant; optionally attach an end-to-end SLO.

        The SLO is tracked on workload ``tenant:<name>`` (arrival ->
        finish latency recorded by the admission layer) and funds the
        tenant's quota burst credits: remaining error budget scales
        ``quota.burst_ns``.  A default multi-window burn-rate alert
        rule is installed alongside the policy, so sustained breaches
        open ``alert`` spans during the run (see
        :mod:`repro.obs.telemetry`).
        """
        tenant = self.tenants.register(
            name, weight=weight, priority=priority, quota=quota,
        )
        if slo_target_ns is not None:
            self.obs.slo.set_policy(
                f"tenant:{name}", slo_target_ns, objective=slo_objective,
            )
            from repro.obs.telemetry import BurnRateRule

            window = self.obs.telemetry.window_ns
            self.obs.telemetry.alerts.add_rule(BurnRateRule(
                f"tenant:{name}", fast_ns=5 * window, slow_ns=30 * window,
                scope=f"tenant {name}",
            ))
        return tenant

    # -- submission / execution -------------------------------------------

    def submit(
        self,
        job: Job,
        *,
        tenant: typing.Optional[str] = None,
        priority: typing.Union[PriorityClass, str, int, None] = None,
        cost: float = 1.0,
    ) -> AdmittedJob:
        """Queue one job through QoS admission; returns its handle.

        Tenant/priority resolution: explicit argument, else the job's
        own annotation (``Job(tenant=...)``, ``linear_job(tenant=...)``,
        ``@task(..., tenant=...)``), else the default tenant and its
        class.  The handle's ``stats`` fills in once the job finishes
        (drive the clock with :meth:`run`).
        """
        return self.driver.submit_job(
            job.name, job, tenant=tenant, priority=priority, cost=cost,
        )

    def submit_app(
        self,
        app: str,
        spec: typing.Optional[typing.Mapping[str, object]] = None,
        *,
        tenant: typing.Optional[str] = None,
        priority: typing.Union[PriorityClass, str, int, None] = None,
        cost: float = 1.0,
        **spec_kwargs,
    ) -> AdmittedJob:
        """Queue one app-class job by name through QoS admission.

        ``app`` names a class from :data:`repro.apps.APP_BUILDERS`
        (``census``, ``dbms``, ``hpc``, ``llm``, ``ml``,
        ``streaming``); ``spec`` (a mapping) and/or keyword arguments
        forward to its builder.  This is the typed front door: every
        app class enters through the same admission/tenancy path,
        instead of each driver submitting ad hoc.
        """
        from repro.apps import build_app_job

        merged = dict(spec or {})
        merged.update(spec_kwargs)
        job = build_app_job(app, **merged)
        return self.submit(job, tenant=tenant, priority=priority, cost=cost)

    def run(
        self,
        *jobs: Job,
        tenant: typing.Optional[str] = None,
        priority: typing.Union[PriorityClass, str, int, None] = None,
    ):
        """Submit ``jobs`` (if any) and run the simulation to the end.

        Returns the single :class:`~repro.runtime.rts.JobStats` for one
        job, a list for several, or the session's
        :class:`~repro.runtime.admission.RackStats` when called with no
        arguments (drain mode).  A failed job raises its error; a shed
        job returns ``None`` stats.
        """
        handles = [
            self.submit(job, tenant=tenant, priority=priority)
            for job in jobs
        ]
        self.rts.cluster.engine.run()
        if not jobs:
            return self.driver.stats
        results: typing.List[typing.Optional[JobStats]] = []
        for handle in handles:
            stats = self._result(handle)
            results.append(stats)
        return results[0] if len(jobs) == 1 else results

    def result(self, handle: AdmittedJob) -> typing.Optional[JobStats]:
        """Finished stats for a ``submit``/``submit_app`` handle.

        ``None`` for a shed job; raises the job's error if it failed;
        raises ``RuntimeError`` if the clock was never driven far
        enough for the job to be admitted.
        """
        return self._result(handle)

    def _result(self, handle: AdmittedJob) -> typing.Optional[JobStats]:
        """Finished stats for a handle; raises the job's error."""
        if handle.shed:
            return None
        execution = handle.execution
        if execution is None:
            raise RuntimeError(
                f"job {handle.name!r} was never admitted (queued behind a "
                f"quota?); check session.stats and tenant quotas"
            )
        if execution.stats.error is not None:
            raise execution.stats.error
        return execution.stats

    def run_trace(self, arrivals) -> RackStats:
        """Run ``(time, name, job_factory[, tenant[, priority]])``
        arrivals to completion; returns the rack statistics."""
        return self.driver._run_trace(arrivals)

    # -- reporting --------------------------------------------------------

    def tenant_report(self) -> typing.Dict[str, dict]:
        """Per-tenant admission/fairness/preemption accounting."""
        return self.driver.tenant_report()

    def dashboard(self, job: typing.Optional[str] = None) -> str:
        """The run's text dashboard (jobs, attribution, SLOs, tenants),
        rendered from the live state; after :meth:`close` that is the
        finalized run."""
        return self.obs.dashboard(job)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Finalize the run's telemetry.

        The telemetry hub takes its final poll and still-open alert
        spans are closed (an unresolved breach stays visible in the
        data).  Nothing is rendered or serialised here: read the
        end-of-run report with :meth:`dashboard`.  Idempotent.
        """
        if self.closed:
            return
        self.obs.telemetry.finalize(self.rts.cluster.engine.now)
        self.closed = True

    def __enter__(self) -> "Session":
        """``with api.connect(...) as session:`` support."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the session when the ``with`` block ends."""
        self.close()


__all__ = [
    "AdmittedJob",
    "FederatedSession",
    "PriorityClass",
    "Session",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "connect",
]
