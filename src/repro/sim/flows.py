"""Max–min fair flow-level network model.

Data movement across the disaggregated fabric is modeled at *flow* level:
a transfer is a flow over a route (a sequence of :class:`Link` objects),
and all concurrent flows share link bandwidth according to **max–min
fairness** (progressive water-filling).  Whenever a flow starts or
finishes, rates are re-solved (unless a departure provably changes
none) and in-flight completion times updated.
This captures the contention effects that make data placement matter,
at a tiny fraction of the cost of packet-level simulation (a design
choice recorded in DESIGN.md §5).

Scaling (DESIGN.md §5, "simulator performance model"): the solver is
*incremental*.  Persistent link→flow and event→flow indexes make
``fail_link``/``cancel``/``link_load`` proportional to the flows
actually involved; each arrival/departure re-solves only the connected
component of the flow–link sharing graph it touches (max–min fair rates
decompose exactly across components); per-flow progress is settled
lazily — a flow's ``remaining`` is only updated when *its* rate changes
— and completions come from a heap with generation-based lazy
invalidation instead of a rearm-everything timer.  The retained
reference solver (:func:`waterfill` over the full flow set, enabled
with ``FlowNetwork(..., incremental=False)``) is differentially tested
against the incremental path in ``tests/sim/test_flows_differential.py``:
same scenario, byte-identical rates and traces.

Two further levers attack the dense-contention regime, and a third keeps
the sparse one cheap (DESIGN.md §5.2):

* **Vectorized waterfill** — mutable per-flow solver state (rate,
  settlement stamp, remaining bytes, generation, bottleneck) lives in
  slot-indexed ``array('d')``/``array('q')`` columns on the network,
  not in Python attributes, and each link keeps a sorted int64 array
  of its flows' slots.  Slots are assigned monotonically (compacted
  when mostly dead), so ascending slot order *is* ascending flow-id
  order and a component's canonical flow ordering falls out of a C
  merge of the per-link slot arrays.  Components of at least
  :data:`_VECTOR_MIN_FLOWS` flows then solve entirely inside numpy —
  zero-copy views over the state columns, the freeze loop as
  vectorized capacity/active-count updates — with no per-flow Python
  work at all.  Both solver cores perform the *identical* IEEE-754
  operations — shares are ``cap / count``; a freeze round subtracts
  ``share * k_frozen`` from each link once and clamps at zero; byte
  counters accumulate per link in ascending flow-id order — so scalar
  and vector paths are bit-identical by construction, not by accident.
  (Flows whose route repeats a link credit bytes per occurrence; while
  any such degenerate flow is live the network stays on the scalar
  core so the occurrence-order additions stay exact.)

* **Batched rebalances** — re-solve requests arriving at one simulated
  timestamp (a burst of same-tick arrivals or completion-freed
  capacity) coalesce into a single component re-solve per event-loop
  turn via a zero-delay flush event.  Rates are memoryless in the live
  flow set and zero simulated time passes between the deferred
  requests, so the flushed solve lands in exactly the state an eager
  per-event solve would have reached.  Every observable read
  (``cancel``/``fail_link``/``settle_all``/``link_load``/the
  completion timer) flushes first.  ``FlowNetwork(..., batch=False)``
  keeps the eager behaviour for differential testing.

* **Cheap small components** — most transfers run alone or beside a
  few others, so the one-flow case pays no solver bookkeeping it does
  not need.  A flow whose latency phase ends solves inline when nothing
  is pending and the next queued event is later (the flush would run
  next with nothing to merge), and in closed form, with no component
  walk, when its links carry no other flow.  Every solve records each
  flow's max–min bottleneck link, and a departure (finish or cancel)
  re-solves nothing when no survivor on its links froze at one of them:
  each survivor still saturates the link it froze at with the largest
  rate there, so the old rates stay the unique max–min allocation, and
  the departed links only gain share, so a fresh waterfill would pick
  the same bottlenecks at the same shares, bit for bit
  (:meth:`FlowNetwork._departure_certified`).  An isolated transfer
  thus costs three engine events: starter, timer, done.  So does an
  isolated region access: its latency term races the byte stream, and
  instead of a timeout and an ``all_of`` join it passes the term as
  ``transfer(latency_floor=...)``, whose done event is the join
  (:class:`_FloorJoin`).  It takes the queue slot the timeout would
  have held, and it resumes its waiter at once when the join would be
  the very next event, so the fold is exact.  The vector
  core's per-link slot rows exist only while it is in use (built on its
  first run, dropped when the network drains).

Units: time in nanoseconds, bandwidth in bytes/ns (1 byte/ns = 1 GB/s
with GB = 1e9 bytes).
"""

from __future__ import annotations

import heapq
import math
import typing
from array import array as _stdarray
from itertools import count
from operator import attrgetter

from repro.sim.engine import Engine
from repro.sim.events import PENDING, Event

try:  # numpy is an optional accelerator, not a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

#: Residual bytes below this are treated as completed (float safety).
_EPSILON_BYTES = 1e-6

#: Sharing degree (max flows on any one link of the component) at which
#: :meth:`FlowNetwork._resolve_now` switches from the scalar solver to
#: the vectorized one.  Below this the fixed cost of the numpy call
#: sequence outweighs the per-flow Python loop — the numpy freeze loop
#: pays a fixed overhead per bottleneck round, and only heavily shared
#: links freeze many flows per round.  Both paths produce bit-identical
#: results, so the cutover is purely a performance knob (the
#: differential tests pin it to 0 and to ∞ to drive each path through
#: the same scenarios).
_VECTOR_MIN_FLOWS = 24

#: The vector core runs full-column passes over every state slot, so a
#: component must cover a reasonable fraction of the columns to be worth
#: it: it runs when ``_VECTOR_SPARSITY * link-incidence >= slot count``.
#: Module-level so the differential tests can pin it (a huge value
#: admits every component; see :data:`_VECTOR_MIN_FLOWS`).
_VECTOR_SPARSITY = 4


class LinkDown(Exception):
    """A transfer failed because a link on its route went down."""

    def __init__(self, link: "Link"):
        super().__init__(f"link {link.name} is down")
        self.link = link


class TransferTimeout(Exception):
    """A transfer was cancelled because it exceeded its deadline."""

    def __init__(self, nbytes: float, timeout_ns: float):
        super().__init__(
            f"transfer of {nbytes:.0f}B timed out after {timeout_ns:.0f}ns"
        )
        self.nbytes = nbytes
        self.timeout_ns = timeout_ns


class Link:
    """A bidirectional network/bus link with capacity and propagation latency."""

    _ids = count()

    def __init__(self, name: str, bandwidth: float, latency: float):
        if bandwidth <= 0:
            raise ValueError(f"link bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"link latency must be non-negative, got {latency}")
        self.id = next(Link._ids)
        self.name = name
        self.bandwidth = float(bandwidth)  # bytes / ns
        self.latency = float(latency)  # ns
        self.up = True
        #: Gray-failure (fail-slow) multiplier on the *physical* capacity.
        #: ``bandwidth`` stays nominal — cost models and topology queries
        #: keep seeing the advertised speed, so the control plane can only
        #: learn about degradation from observed transfer timings.
        self.degrade_factor = 1.0
        #: Cumulative bytes that finished crossing this link.
        self.bytes_carried = 0.0

    @property
    def effective_bandwidth(self) -> float:
        """Physical capacity right now: nominal × degrade factor."""
        return self.bandwidth * self.degrade_factor

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        if self.degrade_factor != 1.0:
            state += f" degraded×{self.degrade_factor:g}"
        return f"<Link {self.name} {self.bandwidth:.3f}B/ns {self.latency:.0f}ns {state}>"


_link_id = attrgetter("id")


def _lone_rate(links: typing.Iterable[Link]) -> typing.Tuple[float, int]:
    """Max–min rate and bottleneck link id of a flow alone on ``links``.

    The first strict minimum of the links' capacities in ascending
    link-id order: the single freeze round :func:`waterfill` would make
    (``cap / 1`` is exactly ``cap``).
    """
    best = float("inf")
    bottleneck = -1
    for link in sorted(links, key=_link_id):
        cap = link.effective_bandwidth
        if cap < best:
            best = cap
            bottleneck = link.id
    return best, bottleneck


class _FloorJoin(Event):
    """Done event of a transfer with a latency floor: one event standing
    in for ``all_of([transfer, timeout(floor)])`` and processed exactly
    where that join would be.

    The floor's timeout is never queued.  :meth:`FlowNetwork.transfer`
    takes its queue slot (:meth:`Engine.reserve`) at the point the
    timeout would have been created, and the join triggers when its
    later child is processed:

    * a last byte landing before the floor succeeds into the reserved
      slot, where the timeout, the later child, would be processed;
    * a last byte at or after the floor, and any failure (the join fails
      on its first failure), is queued at ``(now, next sequence)`` like
      a plain done event.

    The join itself would then be queued at ``(now, next sequence)``.
    When nothing else is queued at ``now`` it would be the very next
    event, so processing this one resumes the waiters at once;
    otherwise the event re-queues itself there, the join's hop exactly,
    and stays unprocessed until then, so an interrupted waiter still
    detaches from it.  A failure raises only when no waiter takes it,
    as the join's would (the join defuses its child).
    """

    #: The floor timeout's queue slot (None: no floor to wait for).
    _slot: typing.Optional[tuple] = None
    #: Whether the event already took the join's hop.
    _hopped = False
    #: Whether :meth:`FlowNetwork.cancel` failed it: the canceller
    #: handled the failure, so it stays defused.
    _cancelled = False

    def succeed(self, value: object = None, delay: float = 0.0) -> Event:
        slot = self._slot
        if (slot is None or self._value is not PENDING
                or self.engine.now + delay >= slot[0]):
            return super().succeed(value, delay)
        self._ok = True
        self._value = value
        self.engine.schedule_at(self, slot)
        return self

    def _process(self) -> None:
        engine = self.engine
        if not self._hopped and engine.peek() <= engine.now:
            self._hopped = True
            engine.schedule(self)
            return
        if not self._ok and not self._cancelled:
            self._defused = False  # the join's failure, not yet handled
        super()._process()


class _Flow:
    """A live transfer.  Immutable shape lives here; mutable solver state
    (rate, remaining, settlement stamp, generation, bottleneck) lives in
    the owning :class:`FlowNetwork`'s slot-indexed state columns and is
    exposed through properties for observability and tests — the hot
    paths read the columns directly by ``slot``.
    """

    _ids = count()

    __slots__ = (
        "id", "route", "links", "total_bytes", "event", "started_at",
        "slot", "net",
    )

    def __init__(self, route: typing.Sequence[Link], nbytes: float, event: Event):
        self.id = next(_Flow._ids)
        self.route = tuple(route)
        #: Unique links of the route, in route order (a degenerate route
        #: listing a link twice still contends once in the solver but
        #: carries bytes per occurrence).
        self.links = tuple(dict.fromkeys(self.route))
        self.total_bytes = float(nbytes)
        self.event = event
        self.started_at: float = 0.0
        #: Index of this flow's row in the network's state columns;
        #: slots are handed out monotonically so ascending slot order is
        #: ascending flow-id order (compaction preserves it).
        self.slot = -1
        #: Owning network (None until registered).
        self.net: typing.Optional["FlowNetwork"] = None

    @property
    def rate(self) -> float:
        net = self.net
        return net._st_rate[self.slot] if net is not None else 0.0

    @rate.setter
    def rate(self, value: float) -> None:
        self.net._st_rate[self.slot] = value

    @property
    def remaining(self) -> float:
        net = self.net
        return net._st_rem[self.slot] if net is not None else self.total_bytes

    @remaining.setter
    def remaining(self, value: float) -> None:
        self.net._st_rem[self.slot] = value

    @property
    def last_settled(self) -> float:
        """Time up to which ``remaining``/``bytes_carried`` are settled."""
        net = self.net
        return net._st_last[self.slot] if net is not None else 0.0

    @last_settled.setter
    def last_settled(self, value: float) -> None:
        self.net._st_last[self.slot] = value

    @property
    def gen(self) -> int:
        """Bumped on every rate change; stale completion-heap entries
        (older generation) are discarded lazily."""
        net = self.net
        return net._st_gen[self.slot] if net is not None else 0

    @gen.setter
    def gen(self, value: int) -> None:
        self.net._st_gen[self.slot] = value

    @property
    def bottleneck(self) -> typing.Optional[int]:
        """Link id this flow froze at in its last waterfill (its max–min
        bottleneck).  Every solve records it; departures read it as their
        skip certificate, and only causal tracing exports it."""
        net = self.net
        if net is None:
            return None
        value = net._st_bn[self.slot]
        return None if value < 0 else value

    @bottleneck.setter
    def bottleneck(self, value: typing.Optional[int]) -> None:
        self.net._st_bn[self.slot] = -1 if value is None else value

    def __repr__(self) -> str:
        return f"<Flow #{self.id} {self.remaining:.0f}/{self.total_bytes:.0f}B @{self.rate:.3f}B/ns>"


def waterfill(
    flows_by_id: typing.Mapping[int, _Flow],
    ordered_ids: typing.Optional[typing.List[int]] = None,
    bottlenecks: typing.Optional[typing.Dict[int, int]] = None,
) -> typing.Dict[int, float]:
    """Progressive water-filling over ``flows_by_id``; the reference solver.

    Returns ``{flow_id: max–min fair rate}``.  Deterministic and
    order-canonical: candidate bottleneck links are scanned in ascending
    link id and flows freeze in ascending flow id, so solving a connected
    component in isolation yields *bit-identical* rates to solving it as
    part of the full flow set (components never share links, hence never
    share a ``remaining capacity`` cell; the global freeze sequence is a
    pure interleaving of the per-component sequences).

    ``ordered_ids`` (the flow ids, ascending) may be passed by callers
    that already sorted them.  ``bottlenecks``, when given, is filled
    with ``{flow_id: link id the flow froze at}`` — the link that
    capped its max–min rate (causal attribution uses this to break the
    transfer bucket down by bottleneck link).

    Freeze-round arithmetic is defined at *round* granularity so the
    vectorized solver (:meth:`FlowNetwork._solve_vector`) can reproduce
    it operation-for-operation: a round picks the first (ascending link
    id) link with the strictly smallest ``cap / count`` share, freezes
    its unfrozen flows at that share, and then updates every affected
    link once with ``cap = max(cap - share * k, 0.0)`` where ``k`` is
    the number of flows frozen on that link this round.  A single
    multiply-subtract per link per round is exactly what the numpy path
    computes, so the two stay bit-identical by construction.
    """
    if ordered_ids is None:
        ordered_ids = sorted(flows_by_id)
    # lid -> [remaining capacity, unfrozen count, member fids ascending, lid]
    by_link: typing.Dict[int, list] = {}
    for fid in ordered_ids:
        for link in flows_by_id[fid].links:
            entry = by_link.get(link.id)
            if entry is None:
                by_link[link.id] = entry = [
                    link.effective_bandwidth, 0, [], link.id,
                ]
            entry[1] += 1
            entry[2].append(fid)

    rates: typing.Dict[int, float] = {}
    # Links with unfrozen flows, ascending link id.
    live = [by_link[lid] for lid in sorted(by_link)]
    while live:
        # Fair share offered by each link that still has unfrozen flows.
        bottleneck = None
        bottleneck_share = float("inf")
        for entry in live:
            share = entry[0] / entry[1]
            if share < bottleneck_share:
                bottleneck_share = share
                bottleneck = entry
        if bottleneck is None:
            break
        # Freeze every unfrozen flow on the bottleneck at that share,
        # tallying how many froze per affected link.
        bottleneck_id = bottleneck[3]
        frozen_per_link: typing.Dict[int, int] = {}
        for fid in bottleneck[2]:
            if fid in rates:
                continue  # froze at an earlier bottleneck
            rates[fid] = bottleneck_share
            if bottlenecks is not None:
                bottlenecks[fid] = bottleneck_id
            for link in flows_by_id[fid].links:
                frozen_per_link[link.id] = frozen_per_link.get(link.id, 0) + 1
        for lid, k in frozen_per_link.items():
            entry = by_link[lid]
            entry[1] -= k
            entry[0] -= bottleneck_share * k
            if entry[0] < 0:
                entry[0] = 0.0
        live = [entry for entry in live if entry[1]]
    return rates


class FlowNetwork:
    """Shared-bandwidth transfer scheduler on top of an :class:`Engine`."""

    def __init__(
        self,
        engine: Engine,
        trace=None,
        incremental: bool = True,
        batch: bool = True,
    ):
        self.engine = engine
        self._flows: typing.Dict[int, _Flow] = {}
        #: link id -> {flow id -> flow} for every link with live flows.
        self._by_link: typing.Dict[int, typing.Dict[int, _Flow]] = {}
        #: link id -> Link for every link with live flows (the vector
        #: solver maps canonical link-id order back to Link objects).
        self._link_objs: typing.Dict[int, Link] = {}
        #: link id -> {neighbour link id -> count of flows spanning the
        #: pair}.  Component discovery BFSes this link-level graph (a
        #: handful of nodes) and then unions the per-link flow dicts,
        #: instead of walking every flow's link list in Python.
        self._link_adj: typing.Dict[int, typing.Dict[int, int]] = {}
        #: completion event -> flow (O(1) cancel).
        self._by_event: typing.Dict[Event, _Flow] = {}
        #: (completion time, flow id, flow gen) min-heap; entries whose
        #: gen no longer matches the flow's are stale and skipped.
        self._completions: list = []
        self._timer_gen = 0
        #: Deadline of the currently armed engine timer (None = no valid
        #: timer outstanding; superseded timers no-op via the gen check).
        self._timer_deadline: typing.Optional[float] = None
        # Slot-indexed per-flow solver state ("state columns").  Stdlib
        # arrays give attribute-speed scalar access without numpy; the
        # vector core takes zero-copy ``np.frombuffer`` views and does
        # gather/scatter at C speed.  Slots are monotone (ascending slot
        # == ascending flow id) and compacted when mostly dead.
        self._st_rate = _stdarray("d")
        self._st_last = _stdarray("d")
        self._st_rem = _stdarray("d")
        self._st_gen = _stdarray("q")
        self._st_bn = _stdarray("q")
        self._st_fid = _stdarray("q")
        #: link id -> [int64 slot buffer, live count, cached view|None]:
        #: each link's flows' slots, ascending, in a capacity-doubling
        #: buffer (the vector solver concatenates these instead of
        #: walking flows in Python).  None until the vector core first
        #: runs, and again once the network drains, so small-component
        #: workloads never pay for them.
        self._link_rows: typing.Optional[typing.Dict[int, list]] = None
        #: Cached ``np.frombuffer`` views over the state columns; must be
        #: dropped before any column append (a stdlib array refuses to
        #: resize while a buffer view is exported).
        self._col_views = None
        #: Live flows whose route repeats a link.  While any exist the
        #: scalar core handles every solve so per-occurrence byte
        #: crediting keeps its exact accumulation order.
        self._degenerate = 0
        #: Restrict each re-solve to the affected connected component
        #: (True) or re-solve the full flow set (False, reference mode).
        self.incremental = incremental
        #: Coalesce same-timestamp re-solve requests into one solve per
        #: event-loop turn (False = eager re-solve per request).
        self.batch = batch
        #: Seed links of deferred re-solve requests (lid -> Link),
        #: non-empty only at the current engine timestamp.
        self._pending_seeds: typing.Dict[int, Link] = {}
        #: True while a zero-delay flush event is queued.
        self._flush_scheduled = False
        self.completed_transfers = 0
        #: Total payload bytes of completed transfers.
        self.bytes_completed = 0.0
        #: High-water mark of concurrently active flows (contention).
        self.peak_active_flows = 0
        #: Rate re-solves performed / flows they touched (observability:
        #: flows_resolved / rebalances ≈ mean component size).
        self.rebalances = 0
        self.flows_resolved = 0
        #: Re-solve requests absorbed by an already-pending flush (each
        #: is one full component solve the batcher saved).
        self.resolves_coalesced = 0
        #: Departures that left live flows on their links but re-solved
        #: nothing, because no survivor there was bottlenecked on one of
        #: them (see :meth:`_departure_certified`).
        self.resolves_skipped = 0
        #: Completion-timer events that fired with a stale generation:
        #: a re-arm leaves the superseded timer queued, and it only
        #: flushes pending seeds before finding nothing to do.
        self.timers_superseded = 0
        #: Flows skipped by :meth:`settle_all` because their settlement
        #: stamp already equalled ``now`` (metrics-collector saving).
        self.settle_skipped = 0
        #: Bumped whenever link state flips (fail/restore); topology- and
        #: offer-caches key their validity off this (see CostModel).
        self.topology_epoch = 0
        #: Optional bounded TraceLog for per-flow events ("flow" category).
        self.trace = trace
        #: Optional hooks called after each re-solve with the affected
        #: flows (tests use this to audit capacity invariants).
        self.on_rebalance: typing.List[typing.Callable[[typing.List[_Flow]], None]] = []

    # -- public API ------------------------------------------------------

    def transfer(
        self,
        route: typing.Sequence[Link],
        nbytes: float,
        extra_latency: float = 0.0,
        latency_floor: typing.Optional[float] = None,
    ) -> Event:
        """Start a transfer of ``nbytes`` over ``route``.

        Returns an event that succeeds (with the transfer duration) when
        the last byte arrives, or fails with :class:`LinkDown` if a link
        on the route fails mid-flight.  Propagation latency (sum of link
        latencies plus ``extra_latency``) is paid before streaming starts.

        With ``latency_floor`` (ns) the event is instead the join of the
        transfer with a ``latency_floor`` timeout created right after
        it — a region access, whose latency term races its byte stream
        (both must finish) — as one engine event (:class:`_FloorJoin`).
        """
        if nbytes < 0:
            raise ValueError(f"cannot transfer negative bytes: {nbytes}")
        done = Event(self.engine) if latency_floor is None else _FloorJoin(
            self.engine)
        for link in route:
            if not link.up:
                done.fail(LinkDown(link))
                done.defuse()  # waiters still see the failure when they yield
                return done
        latency = sum(link.latency for link in route) + extra_latency
        if nbytes == 0 or not route:
            delay = latency
            if latency_floor is not None and latency_floor > latency:
                # The floor's timeout is the later child, and it would
                # take the very next sequence number: this one.
                delay = latency_floor
            done.succeed(latency, delay=delay)
            return done

        start_time = self.engine.now

        def _start(starter: typing.Optional[Event]) -> None:
            if done.triggered:
                return  # cancelled during the latency phase
            for link in route:
                if not link.up:
                    if not done.triggered:
                        done.fail(LinkDown(link))
                        done.defuse()
                    return
            flow = _Flow(route, nbytes, done)
            flow.started_at = start_time
            engine = self.engine
            now = engine.now
            self._register_flow(flow, now)
            fid = flow.id
            flows = self._flows
            flows[fid] = flow
            links = flow.links
            if len(flow.route) != len(links):
                self._degenerate += 1
            by_link = self._by_link
            adj = self._link_adj
            use_rows = self._link_rows is not None
            alone = True  # no other live flow on any of its links
            for i, link in enumerate(links):
                lid = link.id
                here = by_link.get(lid)
                if here is None:
                    by_link[lid] = {fid: flow}
                    self._link_objs[lid] = link
                else:
                    here[fid] = flow
                    alone = False
                if use_rows:
                    self._rows_append(lid, flow.slot)
                row = adj.setdefault(lid, {})
                for other in links[i + 1:]:
                    row[other.id] = row.get(other.id, 0) + 1
                    back = adj.setdefault(other.id, {})
                    back[lid] = back.get(lid, 0) + 1
            self._by_event[done] = flow
            if len(flows) > self.peak_active_flows:
                self.peak_active_flows = len(flows)
            if (starter is not None and not self._pending_seeds
                    and engine.peek() > now):
                # Nothing else runs at this instant, so a deferred flush
                # would be the very next event with nothing to merge:
                # solve now and save the event.
                if alone:
                    self._solve_lone(flow)
                else:
                    self._resolve_now(links)
            else:
                self._resolve(links)

        if latency > 0:
            starter = Event(self.engine)
            starter._ok = True
            starter._value = None
            starter.add_callback(_start)
            self.engine.schedule(starter, delay=latency)
        else:
            # Inline start: the caller may start more transfers at this
            # instant, so the re-solve stays deferred.
            _start(None)
        if latency_floor:
            done._slot = self.engine.reserve(latency_floor)
        return done

    def fail_link(self, link: Link) -> list:
        """Mark ``link`` down, failing every in-flight flow crossing it.

        Returns the list of failed flow events (already failed).
        """
        link.up = False
        self.topology_epoch += 1
        doomed = list(self._by_link.get(link.id, {}).values())
        failed = []
        now = self.engine.now
        seeds: typing.Dict[int, Link] = {}
        for flow in doomed:
            self._settle(flow, now)
            self._remove(flow)
            for other in flow.links:
                seeds[other.id] = other
            if not flow.event.triggered:
                flow.event.fail(LinkDown(link))
            failed.append(flow.event)
        if doomed:
            self._resolve_now(self._merged_seeds(seeds.values()))
        elif self._pending_seeds:
            # No flow crossed the dead link, but deferred work from this
            # timestamp must still not observe the new topology late.
            self._resolve_now(self._merged_seeds(()))
        return failed

    def restore_link(self, link: Link) -> None:
        """Bring a failed link back up (new transfers may use it).

        Bumps :attr:`topology_epoch` so offer/satisfaction caches stop
        serving the NoRoute-era answers for paths over this link.
        """
        link.up = True
        self.topology_epoch += 1

    def degrade_link(self, link: Link, factor: float) -> None:
        """Fail-slow a link: scale its physical capacity by ``factor``.

        Unlike :meth:`fail_link` the link stays up and in-flight flows
        keep streaming — just slower.  The nominal ``link.bandwidth`` is
        untouched so cost models stay blind; only the solver's capacity
        (and hence observed durations) change.  Re-solves the affected
        component so every sharing flow's rate reflects the new capacity.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"degrade factor must be in (0, 1], got {factor}")
        if link.degrade_factor == factor:
            return
        link.degrade_factor = factor
        self.topology_epoch += 1
        self._resolve_now(self._merged_seeds([link]))

    def restore_link_speed(self, link: Link) -> None:
        """Undo :meth:`degrade_link`: back to nominal capacity."""
        if link.degrade_factor == 1.0:
            return
        link.degrade_factor = 1.0
        self.topology_epoch += 1
        self._resolve_now(self._merged_seeds([link]))

    def cancel(self, event: Event, cause: typing.Optional[Exception] = None) -> bool:
        """Cancel the transfer identified by its completion ``event``.

        Works both for flows that are streaming and for transfers still
        in their latency phase (whose flow object does not exist yet).
        The event is failed with ``cause`` (default
        :class:`TransferTimeout`) and defused, so abandoning callers —
        e.g. an ``any_of`` race against a deadline — never leak an
        unhandled failure into the engine.  Returns ``False`` if the
        transfer already finished.
        """
        if event.triggered:
            return False
        flow = self._by_event.get(event)
        if flow is not None:
            self._settle(flow, self.engine.now)
            # Exact accounting for the abandoned attempt: bytes that made
            # it across before the cancel (hedging charges these as waste).
            event._progress = flow.total_bytes - self._st_rem[flow.slot]
            self._remove(flow)
            # Deferred seeds mean the live rates are not yet max–min fair,
            # so no certificate holds: solve them with the departure.
            if (self._pending_seeds or not self._departure_certified(
                    {link.id for link in flow.links})):
                self._resolve_now(self._merged_seeds(flow.links))
            else:
                self._arm_timer()
        else:
            event._progress = 0.0  # still in the latency phase: no bytes moved
        event.fail(cause or TransferTimeout(float("nan"), float("nan")))
        event.defuse()
        if isinstance(event, _FloorJoin):
            event._cancelled = True
        return True

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def link_load(self, link: Link) -> float:
        """Current aggregate rate (bytes/ns) crossing ``link``."""
        self._flush_pending()
        st_rate = self._st_rate
        return sum(
            st_rate[f.slot] for f in self._by_link.get(link.id, {}).values()
        )

    def settle_all(self) -> None:
        """Materialize every flow's progress up to now.

        Lazy settlement only updates ``remaining``/``bytes_carried`` when
        a flow's rate changes; call this before reading mid-flight byte
        counters (the cluster's metrics collector does).  Flows whose
        settlement stamp already equals ``now`` (just re-solved, or a
        second snapshot at the same instant) are skipped without the
        ``_settle`` call; :attr:`settle_skipped` counts the saving.
        """
        self._flush_pending()
        now = self.engine.now
        skipped = 0
        settle = self._settle
        st_last = self._st_last
        for flow in self._flows.values():
            if st_last[flow.slot] == now:
                skipped += 1
                continue
            settle(flow, now)
        self.settle_skipped += skipped

    # -- internals ---------------------------------------------------------

    def _register_flow(self, flow: _Flow, now: float) -> None:
        """Assign a state-column slot to a new flow.

        Slots are handed out monotonically so ascending slot order is
        ascending flow-id order; when the columns are mostly dead rows
        they are compacted first (preserving relative order, hence the
        invariant).
        """
        nslots = len(self._st_rate)
        if nslots >= 1024 and 2 * len(self._flows) < nslots:
            self._compact_slots()
            nslots = len(self._st_rate)
        flow.slot = nslots
        flow.net = self
        # Drop cached numpy views *before* appending: while a view is
        # exported the stdlib arrays refuse to resize (BufferError).
        self._col_views = None
        self._st_rate.append(0.0)
        self._st_last.append(now)
        self._st_rem.append(flow.total_bytes)
        self._st_gen.append(0)
        self._st_bn.append(-1)
        self._st_fid.append(flow.id)

    def _compact_slots(self) -> None:
        """Drop dead rows from the state columns, keeping live order."""
        self._col_views = None
        live = sorted(self._flows.values(), key=lambda f: f.slot)
        columns = (self._st_rate, self._st_last, self._st_rem,
                   self._st_gen, self._st_bn, self._st_fid)
        packed = [
            _stdarray(col.typecode, (col[f.slot] for f in live))
            for col in columns
        ]
        (self._st_rate, self._st_last, self._st_rem,
         self._st_gen, self._st_bn, self._st_fid) = packed
        for i, flow in enumerate(live):
            flow.slot = i
        if self._link_rows is not None:
            self._link_rows = self._build_link_rows()

    def _build_link_rows(self) -> typing.Dict[int, list]:
        """Per-link sorted slot arrays for every link with live flows."""
        rows = {}
        for lid, flows_here in self._by_link.items():
            buf = _np.array(
                sorted(f.slot for f in flows_here.values()), _np.int64
            )
            rows[lid] = [buf, len(flows_here), buf]
        return rows

    def _rows_append(self, lid: int, slot: int) -> None:
        """Add a (new, hence largest) slot to a link's sorted slot array."""
        entry = self._link_rows.get(lid)
        if entry is None:
            buf = _np.empty(4, _np.int64)
            buf[0] = slot
            self._link_rows[lid] = [buf, 1, None]
            return
        buf, n, _view = entry
        if n == buf.shape[0]:
            grown = _np.empty(n * 2, _np.int64)
            grown[:n] = buf
            entry[0] = buf = grown
        buf[n] = slot
        entry[1] = n + 1
        entry[2] = None

    def _rows_remove(self, lid: int, slot: int) -> None:
        entry = self._link_rows[lid]
        buf, n, _view = entry
        if n == 1:
            del self._link_rows[lid]
            return
        pos = int(_np.searchsorted(buf[:n], slot))
        buf[pos:n - 1] = buf[pos + 1:n]
        entry[1] = n - 1
        entry[2] = None

    def _advance(self, flow: _Flow, now: float) -> float:
        """Progress one flow's ``remaining`` to ``now``; returns the bytes
        moved (0.0 when no simulated time passed or the flow was idle).

        ``moved`` is clamped to ``remaining`` so ``link.bytes_carried``
        never over-credits the final tick of a flow.  Byte-counter
        crediting is the caller's job: re-solves batch one addition per
        link, the single-flow paths (:meth:`_settle`) credit per route
        occurrence.
        """
        slot = flow.slot
        st_last = self._st_last
        dt = now - st_last[slot]
        st_last[slot] = now
        if dt <= 0.0:
            return 0.0
        rate = self._st_rate[slot]
        if rate <= 0.0:
            return 0.0
        st_rem = self._st_rem
        rem = st_rem[slot]
        moved = rate * dt
        if moved > rem:
            moved = rem
        st_rem[slot] = rem - moved
        return moved

    def _settle(self, flow: _Flow, now: float) -> None:
        """Progress one flow to ``now``, crediting its route's links."""
        moved = self._advance(flow, now)
        if moved:
            for link in flow.route:
                link.bytes_carried += moved

    def _remove(self, flow: _Flow) -> None:
        """Drop a flow from every index (does not touch its event)."""
        del self._flows[flow.id]
        links = flow.links
        if len(flow.route) != len(links):
            self._degenerate -= 1
        adj = self._link_adj
        use_rows = self._link_rows is not None
        for i, link in enumerate(links):
            flows_here = self._by_link[link.id]
            del flows_here[flow.id]
            if not flows_here:
                del self._by_link[link.id]
                del self._link_objs[link.id]
            if use_rows:
                self._rows_remove(link.id, flow.slot)
            row = adj.get(link.id)
            if row is None:
                continue  # single-link flow: never formed a pair
            for other in links[i + 1:]:
                n = row[other.id] - 1
                if n:
                    row[other.id] = n
                else:
                    del row[other.id]
                back = adj[other.id]
                if back[link.id] == 1:
                    del back[link.id]
                else:
                    back[link.id] -= 1
            if not row:
                del adj[link.id]
        self._by_event.pop(flow.event, None)
        if not self._flows:
            self._link_rows = None

    def _component_links(
        self, seed_links: typing.Iterable[Link]
    ) -> typing.Tuple[typing.List[int], int, int]:
        """Live link ids reachable from ``seed_links`` through the
        flow–link sharing graph (all live links in reference mode), plus
        the max flow count on any single one of them (the component's
        sharing degree) and the total flow–link incidence count (both
        gate the vector core).

        The BFS walks the *link*-level adjacency index (a handful of
        nodes); flows are never visited here — the vector core merges
        the per-link slot arrays directly, and the scalar path unions
        the per-link flow dicts via :meth:`_component_flows` only when
        it actually needs flow objects.
        """
        by_link = self._by_link
        if not self.incremental:
            sizes = list(map(len, by_link.values()))
            return list(by_link), max(sizes, default=0), sum(sizes)
        adj = self._link_adj
        pending = [link.id for link in seed_links]
        seen = set(pending)
        lids: typing.List[int] = []
        max_len = 0
        n_inc = 0
        while pending:
            lid = pending.pop()
            here = by_link.get(lid)
            if here is None:
                continue  # seed link with no live flows
            lids.append(lid)
            n = len(here)
            n_inc += n
            if n > max_len:
                max_len = n
            for other in adj.get(lid, ()):
                if other not in seen:
                    seen.add(other)
                    pending.append(other)
        return lids, max_len, n_inc

    def _component_flows(
        self, lids: typing.List[int]
    ) -> typing.Dict[int, _Flow]:
        """Union of the per-link flow dicts over ``lids`` (C-speed
        ``dict.update`` instead of a Python visit per flow)."""
        if not self.incremental:
            return dict(self._flows)
        by_link = self._by_link
        flows: typing.Dict[int, _Flow] = {}
        for lid in lids:
            flows.update(by_link[lid])
        return flows

    def _resolve(self, seed_links: typing.Iterable[Link]) -> None:
        """Request a re-solve for the component(s) touching ``seed_links``.

        In batch mode the request is deferred to a zero-delay flush event
        so every request landing at this timestamp costs one solve; eager
        mode solves immediately (the PR-3 behaviour, kept for
        differential testing).
        """
        if not self.batch:
            self._resolve_now(seed_links)
            return
        pending = self._pending_seeds
        if pending:
            self.resolves_coalesced += 1
        for link in seed_links:
            pending[link.id] = link
        if not self._flush_scheduled:
            self._flush_scheduled = True
            flush = Event(self.engine)
            flush._ok = True
            flush._value = None
            flush.add_callback(self._on_flush)
            self.engine.schedule(flush)

    def _on_flush(self, _event: Event) -> None:
        self._flush_scheduled = False
        if self._pending_seeds:
            seeds = list(self._pending_seeds.values())
            self._pending_seeds.clear()
            self._resolve_now(seeds)

    def _flush_pending(self) -> None:
        """Run any deferred re-solve before state becomes observable.

        The queued flush event later no-ops on the emptied seed set.
        """
        if self._pending_seeds:
            seeds = list(self._pending_seeds.values())
            self._pending_seeds.clear()
            self._resolve_now(seeds)

    def _merged_seeds(
        self, extra: typing.Iterable[Link]
    ) -> typing.List[Link]:
        """Deferred seeds plus ``extra``, consumed for one eager solve."""
        if not self._pending_seeds:
            return list(extra)
        merged = self._pending_seeds
        self._pending_seeds = {}
        for link in extra:
            merged[link.id] = link
        return list(merged.values())

    def _resolve_now(self, seed_links: typing.Iterable[Link]) -> None:
        """Re-solve rates for the component(s) touching ``seed_links``."""
        lids, max_len, n_inc = self._component_links(seed_links)
        self.rebalances += 1
        if lids:
            now = self.engine.now
            # Density cutover: the vector core amortizes per-freeze-round
            # numpy overhead only when many flows share a link (each
            # round then freezes many rows at once).  The max per-link
            # flow count — a lower bound on component size and the
            # direct measure of sharing — gates without materializing
            # the component's flow set.  The incidence-vs-slot-range
            # guard keeps small components in big networks off the
            # slot-space core (its full-column passes would dwarf the
            # component).  Degenerate routes (repeated links) stay
            # scalar so their per-occurrence byte crediting keeps its
            # exact order.
            use_vector = (
                _np is not None
                and max_len >= _VECTOR_MIN_FLOWS
                and _VECTOR_SPARSITY * n_inc >= len(self._st_rate)
                and not self._degenerate
            )
            if use_vector:
                self.flows_resolved += self._solve_vector(lids, now)
            else:
                component = self._component_flows(lids)
                self.flows_resolved += len(component)
                self._solve_scalar(
                    component, now, len(component) == len(self._flows),
                )
            if self.on_rebalance:
                if use_vector:
                    component = self._component_flows(lids)
                for hook in self.on_rebalance:
                    hook(list(component.values()))
        self._arm_timer()

    def _solve_lone(self, flow: _Flow) -> None:
        """:meth:`_resolve_now` for a just-registered flow alone on every
        one of its links: a one-flow component, so no component walk.

        Same state, counters, hooks and timer as the general path — the
        flow is settled at ``now`` and its rate is the closed form
        :meth:`_solve_scalar` uses for a one-flow component.
        """
        rate, bottleneck = _lone_rate(flow.links)
        slot = flow.slot
        self._st_rate[slot] = rate
        self._st_bn[slot] = bottleneck
        gen = self._st_gen[slot] + 1
        self._st_gen[slot] = gen
        self.rebalances += 1
        self.flows_resolved += 1
        self._heap_insert(
            [(self.engine.now + self._st_rem[slot] / rate, flow.id, gen)],
            len(self._flows) == 1,
        )
        for hook in self.on_rebalance:
            hook([flow])
        self._arm_timer()

    def _departure_certified(self, lids: typing.Collection[int]) -> bool:
        """Whether flows leaving links ``lids`` leave every survivor's rate
        max–min fair, so the departure needs no re-solve.

        The certificate: no live flow on those links froze at one of
        them (:attr:`_Flow.bottleneck`).  Then each survivor still froze
        at a link it saturates with the largest rate there, so the old
        allocation stays the unique max–min one, and :func:`waterfill`
        would replay the old freeze rounds minus the departed flows'
        own: the departed links only gain share (IEEE division and
        subtraction are monotone), so they are never picked.  Unchanged
        flows are neither settled nor re-timed by a solve, so skipping
        it is bit-identical.  Only valid while no re-solve is pending.
        Counts :attr:`resolves_skipped` when a survivor was vouched for.
        """
        by_link = self._by_link
        st_bn = self._st_bn
        shared = False
        for lid in lids:
            here = by_link.get(lid)
            if here is None:
                continue
            shared = True
            for flow in here.values():
                if st_bn[flow.slot] in lids:
                    return False
        if shared:
            self.resolves_skipped += 1
        return True

    def _solve_scalar(
        self,
        component: typing.Dict[int, _Flow],
        now: float,
        full: bool,
    ) -> None:
        """Reference solver core: per-flow Python loops over the component.

        Settlement credits bytes at *batch* granularity — each link gets
        one ``bytes_carried`` addition of the flow-major sum over the
        flows settled by this solve — mirroring the vector core so both
        produce bit-identical link counters.

        A one-flow component (the common case at low contention) is
        solved in closed form by :func:`_lone_rate`.  Every flow's
        bottleneck column is rewritten, changed rate or not: departures
        read it as their skip certificate.
        """
        if len(component) == 1:
            ordered = list(component)
            fid = ordered[0]
            rate, bottleneck = _lone_rate(component[fid].links)
            rates = {fid: rate}
            bottlenecks = {fid: bottleneck}
        else:
            ordered = sorted(component)
            bottlenecks = {}
            rates = waterfill(component, ordered, bottlenecks)
        st_rate = self._st_rate
        st_rem = self._st_rem
        st_gen = self._st_gen
        st_bn = self._st_bn
        byte_sums: typing.Dict[Link, float] = {}
        entries: typing.List[tuple] = []
        for fid in ordered:
            flow = component[fid]
            slot = flow.slot
            st_bn[slot] = bottlenecks.get(fid, -1)
            new_rate = rates.get(fid, 0.0)
            if new_rate == st_rate[slot]:
                continue  # untouched: its completion entry stays valid
            moved = self._advance(flow, now)
            if moved:
                for link in flow.route:
                    byte_sums[link] = byte_sums.get(link, 0.0) + moved
            st_rate[slot] = new_rate
            st_gen[slot] += 1
            if new_rate > 0.0:
                entries.append(
                    (now + st_rem[slot] / new_rate, fid, st_gen[slot])
                )
        for link, total in byte_sums.items():
            link.bytes_carried += total
        self._heap_insert(entries, full)

    def _heap_insert(self, entries: typing.List[tuple], full: bool) -> None:
        """Adaptively merge fresh completion entries into the heap.

        Pop order is identical however entries land (keys are unique and
        stale entries are skipped lazily), so the policy is purely a
        performance knob: push one-by-one when few, extend+heapify when
        comparable to the heap, and — on a full-component solve where
        most rates changed (every old entry is garbage anyway) — rebuild
        the heap wholesale from the live flow set, leaving no garbage.
        ``last_settled + remaining/rate`` is exact for changed (settled
        just now) and unchanged flows alike, because a flow's rate is
        constant since its last settlement.
        """
        heap = self._completions
        if full and 4 * len(entries) >= len(self._flows):
            st_rate = self._st_rate
            st_rem = self._st_rem
            st_gen = self._st_gen
            st_last = self._st_last
            self._completions = heap = [
                (st_last[f.slot] + st_rem[f.slot] / st_rate[f.slot],
                 fid, st_gen[f.slot])
                for fid, f in self._flows.items()
                if st_rate[f.slot] > 0.0
            ]
            heapq.heapify(heap)
        elif entries:
            if 4 * len(entries) >= len(heap):
                heap.extend(entries)
                heapq.heapify(heap)
            else:
                for entry in entries:
                    heapq.heappush(heap, entry)

    def _solve_vector(
        self,
        lids: typing.List[int],
        now: float,
    ) -> int:
        """Vectorized solver core: numpy over the state columns, same IEEE
        operations as the scalar core.  Returns the component's flow count.

        The component's flow set is the C-speed merge of the per-link
        slot arrays (sort + adjacent-dedup of their concatenation);
        ascending slot order is ascending flow-id order, so row ``r`` is
        the ``r``-th flow of the canonical ordering and column ``c`` the
        ``c``-th smallest live link id.  The freeze loop runs as
        vectorized capacity/active-count updates (one
        ``cap -= share * k`` fused round per bottleneck, exactly the
        reference solver's round arithmetic); settlement, byte
        crediting, state writeback, and completion-heap entries are
        gather/scatter on zero-copy views of the state columns — no
        per-flow Python work anywhere.
        """
        np = _np
        lids.sort()
        nl = len(lids)
        link_rows = self._link_rows
        if link_rows is None:
            link_rows = self._link_rows = self._build_link_rows()
        row_views = []
        ptr = [0]
        n_inc = 0
        for lid in lids:
            entry = link_rows[lid]
            view = entry[2]
            if view is None:
                view = entry[2] = entry[0][:entry[1]]
            row_views.append(view)
            n_inc += entry[1]
            ptr.append(n_inc)
        l_slots = np.concatenate(row_views) if nl > 1 else row_views[0]
        l_ptr = np.array(ptr, np.int64)
        lens = np.diff(l_ptr)
        link_objs = self._link_objs
        links = [link_objs[lid] for lid in lids]
        cap = np.fromiter(
            # Inlined Link.effective_bandwidth (same expression).
            (link.bandwidth * link.degrade_factor for link in links),
            np.float64, nl,
        )
        cnt = lens.copy()

        # All solver vectors are indexed by *slot* (the state-column row),
        # not by component rank: per-link rows already hold sorted slots,
        # so no global sort / rank compression is ever needed.  Dead and
        # out-of-component slots are masked by ``member`` (the columns
        # are compacted, so the slot range stays within 2x the live flow
        # count and full-column arithmetic beats rank gathers).
        nslots = len(self._st_rate)
        member = np.zeros(nslots, np.bool_)
        member[l_slots] = True
        nf = int(np.count_nonzero(member))
        frozen = np.zeros(nslots, np.bool_)
        new = np.zeros(nslots, np.float64)
        bn = np.full(nslots, -1, np.int64)
        shares = np.empty(nl, np.float64)
        tot_prev = np.zeros(nl, np.int64)
        seg = l_ptr[:-1]
        inf = float("inf")
        left = nf
        while True:
            shares.fill(inf)
            np.divide(cap, cnt, out=shares, where=cnt > 0)
            b = int(shares.argmin())  # first minimum = lowest link id
            share = float(shares[b])
            if share == inf:
                break  # no link has unfrozen flows left
            rows = l_slots[ptr[b]:ptr[b + 1]]
            rows = rows[~frozen[rows]]  # ascending flow order preserved
            new[rows] = share
            frozen[rows] = True
            bn[rows] = lids[b]
            left -= int(rows.shape[0])
            if not left:
                break  # final round: the cap/cnt update below is unread
            # k = flows frozen per link THIS round, as the delta of the
            # cumulative per-link frozen counts (one segmented reduction
            # over the link-major element list), then one
            # multiply-subtract per link — the reference solver's round
            # update.
            tot = np.add.reduceat(frozen[l_slots], seg)
            k = tot - tot_prev
            tot_prev = tot
            cap -= share * k
            np.maximum(cap, 0.0, out=cap)
            cnt -= k

        # Batched settlement over zero-copy views of the state columns:
        # moved = rate * dt clamped to remaining, element-for-element
        # the scalar _advance arithmetic.  ``frozen`` now equals the
        # component membership mask (every component flow froze exactly
        # once), confining every full-column update to component flows
        # whose rate actually changed, like the scalar core.
        views = self._col_views
        if views is None:
            views = self._col_views = (
                np.frombuffer(self._st_rate, np.float64),
                np.frombuffer(self._st_last, np.float64),
                np.frombuffer(self._st_rem, np.float64),
                np.frombuffer(self._st_gen, np.int64),
                np.frombuffer(self._st_bn, np.int64),
                np.frombuffer(self._st_fid, np.int64),
            )
        rate_v, last_v, rem_v, gen_v, bn_v, fid_v = views
        changed = frozen & (new != rate_v)
        # ``old * dt`` is +0.0 whenever dt == 0 (just-settled flow) or
        # old == 0 (idle flow) — dt is never negative under a monotone
        # clock — so the scalar core's dt/rate guards need no masks here;
        # the product is bitwise the same 0.0 they return.
        moved = np.where(changed, rate_v * (now - last_v), 0.0)
        np.minimum(moved, rem_v, out=moved)
        rem_new = rem_v - moved

        if moved.any():
            # One bytes_carried addition per link of the per-link sum.
            # np.add.at applies sequentially in element order — link-major
            # with ascending flow order inside each link — which is the
            # same per-link accumulation order as the scalar byte_sums
            # dict (interleaved zero terms are bitwise no-ops), keeping
            # the counters bit-identical across cores.
            accum = np.zeros(nl, np.float64)
            np.add.at(
                accum, np.repeat(np.arange(nl, dtype=np.int64), lens),
                moved[l_slots],
            )
            accum_list = accum.tolist()
            for c in np.nonzero(accum)[0].tolist():
                links[c].bytes_carried += accum_list[c]

        full = nf == len(self._flows)
        npush = int(np.count_nonzero(changed & (new > 0.0)))
        if full and 4 * npush >= nf:
            # Wholesale heap rebuild (see _heap_insert): changed flows are
            # stamped to ``now``, unchanged flows keep their old
            # stamp/rate, so ``stamp + rem/rate`` is exact.  Deadlines
            # are computed *before* the masked writeback below so the
            # unchanged flows' old stamps are still in the columns.
            rate_eff = np.where(changed, new, rate_v)
            live = frozen & (rate_eff > 0.0)
            quot = np.empty(nslots, np.float64)
            np.divide(
                np.where(changed, rem_new, rem_v), rate_eff,
                out=quot, where=live,
            )
            deadline = np.where(changed, now, last_v) + quot
            entries = list(zip(
                deadline[live].tolist(), fid_v[live].tolist(),
                (gen_v[live] + changed[live]).tolist(),
            ))
            heapq.heapify(entries)
            self._completions = entries
        elif npush:
            push = changed & (new > 0.0)
            pidx = np.nonzero(push)[0]
            deadline = now + rem_new[pidx] / new[pidx]
            entries = list(zip(
                deadline.tolist(), fid_v[pidx].tolist(),
                (gen_v[pidx] + 1).tolist(),
            ))
            heap = self._completions
            if len(entries) * 4 >= len(heap):
                # Rebuilding the whole heap is cheaper than pushing a
                # comparable number of entries one by one; pop order
                # is identical either way (keys are unique).
                heap.extend(entries)
                heapq.heapify(heap)
            else:
                for entry in entries:
                    heapq.heappush(heap, entry)

        # Masked in-place writeback touches only flows whose rate
        # changed, like the scalar core (unchanged flows keep their
        # settlement stamp).
        np.copyto(rate_v, new, where=changed)
        np.copyto(last_v, now, where=changed)
        np.copyto(rem_v, rem_new, where=changed)
        gen_v += changed
        np.copyto(bn_v, bn, where=frozen)
        return nf

    def _arm_timer(self) -> None:
        """Point the single engine timer at the earliest live completion."""
        heap = self._completions
        if len(heap) > 64 and len(heap) > 4 * len(self._flows):
            # Lazy invalidation lets stale entries pile up when rates
            # churn (every flow sharing one bottleneck); compact before
            # the heap outgrows the live flow set by too much.
            flows = self._flows
            st_gen = self._st_gen
            heap = self._completions = [
                entry for entry in heap
                if (flow := flows.get(entry[1])) is not None
                and st_gen[flow.slot] == entry[2]
            ]
            heapq.heapify(heap)
        flows = self._flows
        st_gen = self._st_gen
        while heap:
            _, fid, gen = heap[0]
            flow = flows.get(fid)
            if flow is None or st_gen[flow.slot] != gen:
                heapq.heappop(heap)  # stale: flow gone or rate changed
                continue
            break
        if not heap:
            if self._timer_deadline is not None:
                self._timer_gen += 1  # orphan any outstanding timer
                self._timer_deadline = None
            return
        deadline = heap[0][0]
        if self._timer_deadline == deadline:
            return  # an armed timer already covers this instant
        self._timer_gen += 1
        self._timer_deadline = deadline
        # A delay below one ULP of the current clock would re-fire at the
        # *same* float timestamp forever (zero elapsed time -> zero
        # progress).  Clamp up so the clock always advances; the extra
        # sub-ulp wait is physically meaningless.
        now = self.engine.now
        ulp = math.ulp(now) if now > 0 else 0.0
        timer = Event(self.engine)
        timer._ok = True
        timer._value = self._timer_gen  # read back by _on_timer
        timer.add_callback(self._on_timer)
        self.engine.schedule(timer, delay=max(deadline - now, ulp, 0.0))

    def _on_timer(self, timer: Event) -> None:
        # Deferred re-solves from earlier same-timestamp events (their
        # flush event is queued *behind* this timer) must land before the
        # completion sweep reads rates/deadlines.  Flushing may re-arm
        # the timer; the generation check below then defers the sweep to
        # the superseding timer exactly as an eager re-solve would have.
        if self._pending_seeds:
            self._flush_pending()
        if timer._value != self._timer_gen or self._timer_deadline is None:
            self.timers_superseded += 1
            return  # superseded by a later rebalance
        self._timer_deadline = None
        now = self.engine.now
        heap = self._completions
        st_rate = self._st_rate
        st_rem = self._st_rem
        st_gen = self._st_gen
        flows = self._flows
        finished: typing.List[_Flow] = []
        while heap and heap[0][0] <= now:
            _, fid, gen = heapq.heappop(heap)
            flow = flows.get(fid)
            if flow is None or st_gen[flow.slot] != gen:
                continue  # stale entry
            self._settle(flow, now)
            slot = flow.slot
            deadline = now + st_rem[slot] / st_rate[slot]
            if st_rem[slot] <= _EPSILON_BYTES or deadline <= now:
                # Done, or the residual streams out in under one ulp of
                # the clock: no representable future instant exists, so
                # finish now (_finish credits the residual exactly).
                finished.append(flow)
            else:
                # Float undershoot on the final tick: re-aim at the
                # (sub-ulp) residual instead of finishing early.
                gen = st_gen[slot] + 1
                st_gen[slot] = gen
                heapq.heappush(heap, (deadline, fid, gen))
        seeds: typing.Dict[int, Link] = {}
        for flow in finished:
            self._finish(flow, now)
            for link in flow.links:
                seeds[link.id] = link
        if self._departure_certified(seeds):
            # Every survivor keeps its rate (or none is left on the
            # finished flows' links): only the timer moves.
            self._arm_timer()
        else:
            self._resolve(seeds.values())

    def _finish(self, flow: _Flow, now: float) -> None:
        """Complete a flow: credit the residual, deliver its event."""
        slot = flow.slot
        st_rem = self._st_rem
        residual = st_rem[slot]
        if residual > 0.0:
            # Exactness: the sub-epsilon residual still counts as carried,
            # so per-link totals equal the payloads routed over them.
            for link in flow.route:
                link.bytes_carried += residual
            st_rem[slot] = 0.0
        # Slots are reassigned only when a flow registers, so the row
        # stays readable after the flow leaves the indexes.
        self._remove(flow)
        self.completed_transfers += 1
        self.bytes_completed += flow.total_bytes
        trace = self.trace
        if trace is not None:
            bottleneck_name = None
            if trace.wants("causal"):
                bottleneck = self._st_bn[slot]
                for link in flow.links:
                    if link.id == bottleneck:
                        bottleneck_name = link.name
                        break
            if trace.wants("flow"):
                trace.emit(
                    now, "flow", "done",
                    nbytes=flow.total_bytes, duration=now - flow.started_at,
                    links=len(flow.route), rate=self._st_rate[slot],
                    bottleneck=bottleneck_name,
                )
            if bottleneck_name is not None:
                # Completion events have no __slots__; riding the
                # bottleneck along lets reliable_transfer report it
                # without new plumbing through every yield layer.
                flow.event._bottleneck = bottleneck_name
        if not flow.event.triggered:
            flow.event.succeed(now - flow.started_at)
