"""Departures that skip their re-solve must leave max–min fair rates.

A finishing or cancelled flow re-solves nothing when no surviving flow
on its links froze at one of them (the bottleneck certificate, see
``FlowNetwork._departure_certified``), and an arrival alone on its
links is solved in closed form.  These tests drive seeded random
scripts — same-instant bursts, latency-phase arrivals, cancels, link
failures and fail-slow degradations over shared and disjoint routes —
and check two things:

* after every engine step with no re-solve pending, every live flow's
  rate and bottleneck equal a fresh :func:`waterfill` over the
  live set, ``==``;
* the run ends with the same per-link byte counters and the same
  completion times and outcomes as a run of the same script on a
  network whose departures always re-solve.
"""

import random

import pytest

from repro.sim import Engine, FlowNetwork, Link
from repro.sim.flows import waterfill


class _AlwaysResolve(FlowNetwork):
    """Every departure re-solves: the certificate never vouches."""

    def _departure_certified(self, lids):
        return False


def _assert_max_min(net):
    """Live rates and bottlenecks equal a fresh waterfill."""
    if net._pending_seeds:
        return  # arrivals at this instant are not solved yet
    bottlenecks = {}
    rates = waterfill(net._flows, None, bottlenecks)
    for fid, flow in net._flows.items():
        assert flow.rate == rates[fid], (fid, flow.rate, rates[fid])
        assert flow.bottleneck == bottlenecks[fid]


def _drive(net_cls, seed, check=None):
    """Run one seeded script; returns (net, links, outcome log)."""
    rng = random.Random(seed)
    engine = Engine()
    net = net_cls(engine)
    core = Link("core", bandwidth=rng.choice([3.0, 4.0, 6.0]), latency=0.0)
    segments = [
        [Link(f"s{s}-{i}", bandwidth=rng.choice([1.0, 2.0, 2.5, 3.0]),
              latency=0.0) for i in range(3)]
        for s in range(4)
    ]
    links = [core] + [link for seg in segments for link in seg]
    events = []
    outcomes = {}

    def record(i):
        def callback(event):
            if event._ok:
                outcomes[i] = (engine.now, event._value)
            else:
                event.defuse()
                outcomes[i] = (engine.now, type(event._value).__name__)
        return callback

    def route():
        seg = rng.choice(segments)
        kind = rng.random()
        if kind < 0.4:
            return seg[:rng.randrange(1, 4)]  # stays inside one segment
        if kind < 0.8:
            return [seg[0], core, rng.choice(segments)[2]]  # shares the core
        return [seg[1], seg[2]]

    def start(extra_latency):
        nbytes = rng.choice([64.0, 100.0, 250.0, rng.uniform(10.0, 400.0)])
        event = net.transfer(route(), nbytes, extra_latency)
        event.add_callback(record(len(events)))
        events.append(event)

    def script():
        for _ in range(60):
            action = rng.random()
            if action < 0.35:
                for _ in range(rng.randrange(1, 5)):
                    start(0.0)  # a same-instant burst
            elif action < 0.6:
                start(rng.choice([1.0, 10.0, 37.5, rng.uniform(0.5, 80.0)]))
            elif action < 0.7:
                pending = [e for e in events if not e.triggered]
                if pending:
                    net.cancel(rng.choice(pending))
            elif action < 0.75:
                net.fail_link(rng.choice(links[1:]))
            elif action < 0.8:
                for link in links:
                    if not link.up:
                        net.restore_link(link)
            elif action < 0.9:
                net.degrade_link(rng.choice(links),
                                 rng.choice([0.25, 0.5, 0.8]))
            else:
                net.restore_link_speed(rng.choice(links))
            yield engine.timeout(rng.choice([0.0, 0.0, rng.uniform(1.0, 60.0)]))

    engine.process(script())
    while engine.peek() != float("inf"):
        engine.step()
        if check is not None:
            check(net)
    assert not net._flows
    return net, links, outcomes


@pytest.mark.parametrize("seed", range(40))
def test_skipped_departures_match_a_resolving_run(seed):
    net, links, outcomes = _drive(FlowNetwork, seed, check=_assert_max_min)
    ref, ref_links, ref_outcomes = _drive(_AlwaysResolve, seed)
    assert outcomes == ref_outcomes
    assert [link.bytes_carried for link in links] == [
        link.bytes_carried for link in ref_links
    ]
    assert net.completed_transfers == ref.completed_transfers
    assert ref.resolves_skipped == 0


class _CountingLone(FlowNetwork):
    lone = 0

    def _solve_lone(self, flow):
        self.lone += 1
        super()._solve_lone(flow)


def test_scripts_exercise_the_skip_and_the_lone_arrival():
    """The seeds above are not vacuous: departures skip and still
    re-solve, and lone arrivals take the closed form."""
    skipped = rebalances = lone = 0
    for seed in range(40):
        net, _links, _outcomes = _drive(_CountingLone, seed)
        skipped += net.resolves_skipped
        rebalances += net.rebalances
        lone += net.lone
    assert skipped > 100
    assert rebalances > 1000
    assert lone > 20


def test_lone_arrival_solves_without_the_component_walk(monkeypatch):
    """A latency-phase arrival on idle links is solved in closed form:
    the same rate, timer and counters, but no component discovery."""
    engine = Engine()
    net = FlowNetwork(engine)
    thin = Link("thin", bandwidth=1.0, latency=0.0)
    fat = Link("fat", bandwidth=4.0, latency=0.0)
    seen = []
    net.on_rebalance.append(lambda flows: seen.append(len(flows)))

    def walk(*_args):
        raise AssertionError("component walked for a lone arrival")

    monkeypatch.setattr(net, "_component_links", walk)
    done = net.transfer([fat, thin], nbytes=100.0, extra_latency=10.0)
    engine.run()
    assert done.ok and engine.now == 110.0
    assert (net.rebalances, net.flows_resolved, seen) == (1, 1, [1])
    assert engine.events_processed == 3
