"""Tests for the max–min fair flow network."""

import random

import pytest

from repro.sim import Engine, FlowNetwork, Link
from repro.sim import flows as flows_mod
from repro.sim.flows import LinkDown


def make_net():
    engine = Engine()
    return engine, FlowNetwork(engine)


def test_single_flow_duration_is_latency_plus_serialization():
    engine, net = make_net()
    link = Link("l0", bandwidth=1.0, latency=100.0)  # 1 B/ns
    done = net.transfer([link], nbytes=1000.0)
    engine.run(until=done)
    assert engine.now == pytest.approx(1100.0)


def test_zero_byte_transfer_pays_only_latency():
    engine, net = make_net()
    link = Link("l0", bandwidth=1.0, latency=250.0)
    done = net.transfer([link], nbytes=0.0)
    engine.run(until=done)
    assert engine.now == pytest.approx(250.0)


def test_empty_route_is_instant():
    engine, net = make_net()
    done = net.transfer([], nbytes=12345.0)
    engine.run(until=done)
    assert engine.now == 0.0


def test_two_flows_share_bandwidth_fairly():
    engine, net = make_net()
    link = Link("l0", bandwidth=2.0, latency=0.0)
    d1 = net.transfer([link], nbytes=1000.0)
    d2 = net.transfer([link], nbytes=1000.0)
    engine.run(until=engine.all_of([d1, d2]))
    # Each flow gets 1 B/ns -> both finish at t=1000.
    assert engine.now == pytest.approx(1000.0)


def test_departure_releases_bandwidth():
    engine, net = make_net()
    link = Link("l0", bandwidth=2.0, latency=0.0)
    short = net.transfer([link], nbytes=200.0)
    long = net.transfer([link], nbytes=1000.0)
    engine.run(until=short)
    assert engine.now == pytest.approx(200.0)  # 200 B at 1 B/ns
    engine.run(until=long)
    # long moved 200 B by t=200, then streams remaining 800 B at 2 B/ns.
    assert engine.now == pytest.approx(600.0)


def test_late_arrival_slows_in_flight_flow():
    engine, net = make_net()
    link = Link("l0", bandwidth=2.0, latency=0.0)
    first = net.transfer([link], nbytes=1000.0)

    def late():
        yield engine.timeout(100.0)
        done = net.transfer([link], nbytes=1000.0)
        yield done
        return engine.now

    proc = engine.process(late())
    engine.run(until=first)
    # first: 100ns alone at 2 B/ns (200 B), then shares at 1 B/ns for 800 B.
    assert engine.now == pytest.approx(900.0)
    engine.run(until=proc)
    # second: 800 B left at t=900, now alone at 2 B/ns -> 900 + 400 = 1300... but
    # it moved 800 B between t=100..900 at 1 B/ns, leaving 200 B -> +100ns.
    assert engine.now == pytest.approx(1000.0)


def test_bottleneck_water_filling():
    engine, net = make_net()
    # Flow A crosses both links; flows B and C cross only the fat link.
    thin = Link("thin", bandwidth=1.0, latency=0.0)
    fat = Link("fat", bandwidth=9.0, latency=0.0)
    a = net.transfer([thin, fat], nbytes=100.0)
    b = net.transfer([fat], nbytes=4000.0)
    c = net.transfer([fat], nbytes=4000.0)
    engine.run(until=a)
    # A is capped at 1 B/ns by the thin link -> 100ns.
    assert engine.now == pytest.approx(100.0)
    engine.run(until=engine.all_of([b, c]))
    # B and C each got (9-1)/2 = 4 B/ns while A ran (400 B each),
    # then 4.5 B/ns for the remaining 3600 B -> 100 + 800 = 900ns.
    assert engine.now == pytest.approx(900.0)


def test_multi_link_latency_accumulates():
    engine, net = make_net()
    l1 = Link("l1", bandwidth=10.0, latency=50.0)
    l2 = Link("l2", bandwidth=10.0, latency=70.0)
    done = net.transfer([l1, l2], nbytes=100.0)
    engine.run(until=done)
    assert engine.now == pytest.approx(50.0 + 70.0 + 10.0)


def test_link_down_fails_inflight_transfer():
    engine, net = make_net()
    link = Link("l0", bandwidth=1.0, latency=0.0)
    done = net.transfer([link], nbytes=10_000.0)

    def saboteur():
        yield engine.timeout(100.0)
        net.fail_link(link)

    engine.process(saboteur())
    with pytest.raises(LinkDown):
        engine.run(until=done)


def test_transfer_on_down_link_fails_immediately():
    engine, net = make_net()
    link = Link("l0", bandwidth=1.0, latency=0.0)
    net.fail_link(link)
    done = net.transfer([link], nbytes=10.0)

    def waiter():
        try:
            yield done
        except LinkDown as exc:
            return exc.link.name

    result = engine.run(until=engine.process(waiter()))
    assert result == "l0"


def test_restore_link_allows_new_transfers():
    engine, net = make_net()
    link = Link("l0", bandwidth=1.0, latency=0.0)
    net.fail_link(link)
    net.restore_link(link)
    done = net.transfer([link], nbytes=100.0)
    engine.run(until=done)
    assert engine.now == pytest.approx(100.0)


def test_bytes_carried_accounting():
    engine, net = make_net()
    link = Link("l0", bandwidth=1.0, latency=0.0)
    done = net.transfer([link], nbytes=500.0)
    engine.run(until=done)
    assert link.bytes_carried == pytest.approx(500.0)
    assert net.completed_transfers == 1


def test_negative_bytes_rejected():
    engine, net = make_net()
    link = Link("l0", bandwidth=1.0, latency=0.0)
    with pytest.raises(ValueError):
        net.transfer([link], nbytes=-1.0)


def test_invalid_link_parameters_rejected():
    with pytest.raises(ValueError):
        Link("bad", bandwidth=0.0, latency=0.0)
    with pytest.raises(ValueError):
        Link("bad", bandwidth=1.0, latency=-5.0)


def test_sub_ulp_transfer_at_huge_clock_still_completes():
    """Regression: a transfer whose serialization time is below the float
    ULP of the current clock must not spin forever at a frozen timestamp."""
    engine, net = make_net()
    engine._now = 1e16  # ulp(1e16) = 2.0 ns
    link = Link("l0", bandwidth=1000.0, latency=0.0)
    done = net.transfer([link], nbytes=1.0)  # 0.001 ns of serialization
    for _ in range(100):
        if done.processed:
            break
        engine.step()
    assert done.processed and done.ok
    assert engine.now > 1e16


def test_many_concurrent_flows_complete():
    engine, net = make_net()
    link = Link("l0", bandwidth=10.0, latency=0.0)
    events = [net.transfer([link], nbytes=100.0) for _ in range(50)]
    engine.run(until=engine.all_of(events))
    # 50 flows x 100 B = 5000 B over a 10 B/ns link -> 500ns total.
    assert engine.now == pytest.approx(500.0)
    assert net.completed_transfers == 50


def _reference_waterfill(flows_by_id, ordered_ids=None, bottlenecks=None):
    """The dict-of-sets waterfill the solver shipped before its rewrite,
    kept verbatim as the reference the rewrite must match bit for bit."""
    if ordered_ids is None:
        ordered_ids = sorted(flows_by_id)
    by_link = {}  # lid -> [remaining_cap, unfrozen fid set]
    for fid in ordered_ids:
        for link in flows_by_id[fid].links:
            entry = by_link.get(link.id)
            if entry is None:
                by_link[link.id] = entry = [link.effective_bandwidth, set()]
            entry[1].add(fid)

    rates = {}
    link_ids = sorted(by_link)
    while True:
        # Fair share offered by each link that still has unfrozen flows.
        bottleneck_id = None
        bottleneck_share = float("inf")
        for lid in link_ids:
            cap, unfrozen = by_link[lid]
            if not unfrozen:
                continue
            share = cap / len(unfrozen)
            if share < bottleneck_share:
                bottleneck_share = share
                bottleneck_id = lid
        if bottleneck_id is None:
            break
        # Freeze every unfrozen flow on the bottleneck at that share,
        # tallying how many froze per affected link.
        frozen_per_link = {}
        for fid in sorted(by_link[bottleneck_id][1]):
            rates[fid] = bottleneck_share
            if bottlenecks is not None:
                bottlenecks[fid] = bottleneck_id
            for link in flows_by_id[fid].links:
                by_link[link.id][1].discard(fid)
                frozen_per_link[link.id] = frozen_per_link.get(link.id, 0) + 1
        for lid, k in frozen_per_link.items():
            entry = by_link[lid]
            entry[0] -= bottleneck_share * k
            if entry[0] < 0:
                entry[0] = 0.0
    return rates


class _ShapeOnly:
    """The only part of a flow :func:`waterfill` reads: its links."""

    def __init__(self, links):
        self.links = tuple(links)


@pytest.mark.parametrize("seed", range(12))
def test_waterfill_matches_dict_of_sets_reference(seed, monkeypatch):
    """Rates, bottlenecks and their insertion order equal the reference
    on seeded random components, and the rewrite sorts once per call
    instead of once per freeze round."""
    rng = random.Random(seed)
    links = [Link(f"l{i}", bandwidth=rng.choice([1.0, 2.0, 3.0, 7.5]),
                  latency=0.0) for i in range(rng.randrange(2, 9))]
    for link in links:
        link.degrade_factor = rng.choice([1.0, 1.0, 0.5, 0.3])
    flows = {}  # inserted in shuffled fid order, not ascending
    for fid in rng.sample(range(1000), rng.randrange(1, 40)):
        width = rng.randrange(1, min(5, len(links) + 1))
        flows[fid] = _ShapeOnly(rng.sample(links, width))

    sorts = []

    def counting_sorted(*args, **kwargs):
        sorts.append(1)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(flows_mod, "sorted", counting_sorted, raising=False)
    for ordered in (None, sorted(flows)):
        want_bn, got_bn = {}, {}
        want = _reference_waterfill(flows, ordered, want_bn)
        sorts.clear()
        got = flows_mod.waterfill(flows, ordered, got_bn)
        assert list(got.items()) == list(want.items())
        assert list(got_bn.items()) == list(want_bn.items())
        assert len(sorts) == (2 if ordered is None else 1)


def test_isolated_transfer_with_latency_costs_three_events():
    """Starter, completion timer and the done event: no flush event
    after the start and no re-solve event after the finish."""
    engine, net = make_net()
    link = Link("l0", bandwidth=1.0, latency=100.0)
    done = net.transfer([link], nbytes=1000.0)
    engine.run()
    assert done.ok and engine.now == 1100.0
    assert engine.events_processed == 3


def _sharer_bottlenecked_elsewhere(net):
    """`short` (300 B) rides only `fat`; `long` (1000 B) crosses `thin`
    too and freezes there at 1 B/ns, so `short` gets the 3 B/ns left on
    `fat` and finishes at t=100 while `long` keeps its rate."""
    thin = Link("thin", bandwidth=1.0, latency=0.0)
    fat = Link("fat", bandwidth=4.0, latency=0.0)
    short = net.transfer([fat], nbytes=300.0)
    long = net.transfer([thin, fat], nbytes=1000.0)
    return short, long


def test_finish_whose_sharers_are_bottlenecked_elsewhere_skips_the_resolve():
    """No re-solve and no flush event: `long` froze at `thin`, which
    `short` never crossed, so its rate is still max–min fair."""
    engine, net = make_net()
    short, long = _sharer_bottlenecked_elsewhere(net)
    engine.run()
    assert short.value == 100.0 and long.value == 1000.0
    # The t=0 flush, two timers and two done events: no flush at t=100.
    assert engine.events_processed == 5
    assert (net.rebalances, net.resolves_skipped) == (1, 1)


def test_resolves_skipped_reaches_the_metrics_collector():
    from repro.hardware import Cluster

    cluster = Cluster.preset("pooled-rack")
    _sharer_bottlenecked_elsewhere(cluster.flownet)
    cluster.engine.run()
    snap = cluster.obs.registry.snapshot()
    assert snap["flow.resolves_skipped"]["value"] == 1.0
    assert snap["flow.rebalances"]["value"] == 1.0


def test_superseded_completion_timers_are_counted():
    """A re-arm leaves the old timer queued; it fires stale and counts.

    `long` alone arms a timer for t=1000; `short` arriving at t=100
    halves its rate and re-arms for t=300, and the re-solve after
    `short` finishes re-arms for t=1100, so the t=1000 timer fires
    superseded (the t=300 one is live)."""
    engine, net = make_net()
    link = Link("l0", bandwidth=1.0, latency=0.0)
    long = net.transfer([link], nbytes=1000.0)

    def later():
        yield engine.timeout(100.0)
        yield net.transfer([link], nbytes=100.0)

    engine.process(later())
    engine.run()
    assert long.value == 1100.0
    assert net.timers_superseded == 1


def test_timers_superseded_reaches_the_metrics_collector():
    from repro.hardware import Cluster

    cluster = Cluster.preset("pooled-rack")
    engine, net = cluster.engine, cluster.flownet
    link = Link("l0", bandwidth=1.0, latency=0.0)
    net.transfer([link], nbytes=1000.0)
    engine.timeout(100.0).add_callback(
        lambda _: net.transfer([link], nbytes=100.0))
    engine.run()
    snap = cluster.obs.registry.snapshot()
    assert snap["flow.timers_superseded"]["value"] == 1.0


def test_finish_leaving_no_live_flow_does_not_rebalance():
    """Only a finish whose links still carry a live flow re-solves."""
    engine, net = make_net()
    l0, l1, l2 = (Link(f"l{i}", bandwidth=1.0, latency=0.0)
                  for i in range(3))
    lone_a = net.transfer([l0], nbytes=100.0)
    lone_b = net.transfer([l1], nbytes=200.0)
    short = net.transfer([l2], nbytes=300.0)
    long = net.transfer([l2], nbytes=900.0)
    engine.run(until=engine.all_of([lone_a, lone_b, short, long]))
    # One batched solve at t=0, one when `short` frees half of l2.
    assert net.rebalances == 2
    # long: 300 B at 0.5 B/ns until t=600, then 600 B at 1 B/ns.
    assert engine.now == 1200.0
