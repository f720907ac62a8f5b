"""Tests for interconnect topology, routing, and cluster presets."""

import pytest

from repro.hardware import Cluster, NoRouteError, Topology
from repro.hardware import calibration as cal
from repro.hardware import presets
from repro.hardware.spec import LinkKind, LinkSpec, MemoryKind
from repro.sim.faults import FaultKind
from repro.sim.flows import LinkDown


def linkspec(name, kind=LinkKind.CXL, bw=10.0, lat=100.0):
    return LinkSpec(name, kind, bw, lat)


class TestTopology:
    def test_route_prefers_low_latency(self):
        topo = Topology()
        for n in ("a", "b", "mid"):
            topo.add_node(n)
        topo.connect("a", "b", linkspec("slow", lat=1000.0))
        topo.connect("a", "mid", linkspec("h1", lat=10.0))
        topo.connect("mid", "b", linkspec("h2", lat=10.0))
        route = topo.route("a", "b")
        assert [l.name for l in route] == ["h1", "h2"]
        assert topo.path_latency("a", "b") == pytest.approx(20.0)

    def test_route_to_self_is_empty(self):
        topo = Topology()
        topo.add_node("a")
        assert topo.route("a", "a") == []
        assert topo.path_bandwidth("a", "a") == float("inf")

    def test_no_route_raises(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        with pytest.raises(NoRouteError):
            topo.route("a", "b")

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(ValueError):
            topo.add_node("a")

    def test_duplicate_edge_rejected(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.connect("a", "b", linkspec("l"))
        with pytest.raises(ValueError):
            topo.connect("a", "b", linkspec("l2"))

    def test_path_bandwidth_is_bottleneck(self):
        topo = Topology()
        for n in ("a", "m", "b"):
            topo.add_node(n)
        topo.connect("a", "m", linkspec("fat", bw=100.0))
        topo.connect("m", "b", linkspec("thin", bw=5.0))
        assert topo.path_bandwidth("a", "b") == pytest.approx(5.0)

    def test_addressable_and_coherent_classification(self):
        topo = Topology()
        for n in ("cpu", "dram", "cxl", "far", "ssd"):
            topo.add_node(n)
        topo.connect("cpu", "dram", linkspec("ddr", kind=LinkKind.DDR))
        topo.connect("cpu", "cxl", linkspec("cxl", kind=LinkKind.CXL))
        topo.connect("cpu", "far", linkspec("nic", kind=LinkKind.NIC))
        topo.connect("cpu", "ssd", linkspec("pcie", kind=LinkKind.PCIE))
        assert topo.addressable("cpu", "dram") and topo.coherent("cpu", "dram")
        assert topo.addressable("cpu", "cxl") and topo.coherent("cpu", "cxl")
        assert not topo.addressable("cpu", "far")
        assert topo.addressable("cpu", "ssd") and not topo.coherent("cpu", "ssd")
        # Unknown node: addressable is False, not an exception.
        assert not topo.addressable("cpu", "ghost")

    def test_unknown_endpoint_raises_no_route(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(NoRouteError):
            topo.route("a", "ghost")
        with pytest.raises(NoRouteError):
            topo.route("ghost", "a")

    def test_edges_order_is_node_major(self):
        """Each node in insertion order, then each of its neighbours in
        connection order that has not yet been listed as a node."""
        topo = Topology()
        for n in ("a", "b", "c", "d"):
            topo.add_node(n)
        topo.connect("c", "a", linkspec("ca"))
        topo.connect("b", "d", linkspec("bd"))
        topo.connect("a", "b", linkspec("ab"))
        topo.connect("d", "c", linkspec("dc"))
        assert [(u, v, link.name) for u, v, link in topo.edges()] == [
            ("a", "c", "ca"), ("a", "b", "ab"), ("b", "d", "bd"),
            ("c", "d", "dc"),
        ]
        assert [link.name for link in topo.links()] == ["ca", "ab", "bd", "dc"]
        assert topo.link_kind(topo.link_between("d", "b")) == LinkKind.CXL


def brute_force_latencies(topo, src):
    """Least latency from ``src`` to every node it reaches, minimised
    over every simple path of up links by exhaustive search."""
    adjacent = {node: [] for node in topo.nodes()}
    for u, v, link in topo.edges():
        if link.up:
            adjacent[u].append((v, link))
            adjacent[v].append((u, link))
    best = {}

    def walk(node, visited, latency):
        best[node] = min(latency, best.get(node, float("inf")))
        for nbr, link in adjacent[node]:
            if nbr not in visited:
                walk(nbr, visited | {nbr}, latency + link.latency)

    walk(src, {src}, 0.0)
    return best


class TestRouteOptimality:
    @pytest.mark.parametrize("preset", presets.available())
    def test_route_is_least_latency_with_any_single_link_down(self, preset):
        topo = Cluster.preset(preset).topology
        ends = {link.id: {u, v} for u, v, link in topo.edges()}
        for down in [None, *topo.links()]:
            if down is not None:
                down.up = False
            topo.invalidate_routes()
            for src in topo.nodes():
                best = brute_force_latencies(topo, src)
                for dst in topo.nodes():
                    if dst == src:
                        continue
                    if dst not in best:
                        with pytest.raises(NoRouteError):
                            topo.route(src, dst)
                        continue
                    links = topo.route(src, dst)
                    assert all(link.up for link in links)
                    at = src  # the links chain from src to dst
                    for link in links:
                        assert at in ends[link.id]
                        (at,) = ends[link.id] - {at}
                    assert at == dst
                    # Each hop weighs 1e-9 ns extra, so fewer hops break
                    # ties; the route may exceed the minimum by that much.
                    assert sum(link.latency for link in links) == (
                        pytest.approx(best[dst], rel=0, abs=1e-6))
            if down is not None:
                down.up = True

    def test_dual_plane_equal_cost_tie_is_pinned(self):
        """plane-a and plane-b are joined through cpu1, cpu2 and both
        pool devices at equal cost; the first one connected wins."""
        topo = Cluster.preset("dual-plane-rack").topology
        assert [link.name for link in topo.route("plane-a", "plane-b")] == [
            "cpu1--plane-a", "cpu1--plane-b",
        ]


def assert_kinds_follow_routes(topo):
    """route_kinds() must name the kind of every link route() crosses."""
    edge_kinds = {link.id: topo.link_kind(link) for link in topo.links()}
    nodes = topo.nodes()
    for src in nodes:
        for dst in nodes:
            try:
                links = topo.route(src, dst)
            except NoRouteError:
                with pytest.raises(NoRouteError):
                    topo.route_kinds(src, dst)
                assert not topo.addressable(src, dst)
                assert not topo.coherent(src, dst)
                continue
            assert topo.route_kinds(src, dst) == [
                edge_kinds[link.id] for link in links
            ]


class TestRouteKinds:
    @pytest.mark.parametrize("preset", presets.available())
    def test_every_pair_matches_route(self, preset):
        assert_kinds_follow_routes(Cluster.preset(preset).topology)

    def test_link_down_reroute(self):
        rack = Cluster.preset("dual-plane-rack")
        before = rack.topology.route("cpu1", "dram-pool0")
        for link in rack.topology.links():
            if "plane-a" in link.name:
                rack.faults.inject_now(FaultKind.LINK_DOWN, link.name)
        assert rack.topology.route("cpu1", "dram-pool0") != before
        assert_kinds_follow_routes(rack.topology)

    def test_uninvalidated_flip_keeps_kinds_on_cached_route(self):
        topo = Topology()
        for n in ("cpu", "mem", "sw"):
            topo.add_node(n)
        direct = topo.connect("cpu", "mem", linkspec("cxl", lat=10.0))
        topo.connect("cpu", "sw", linkspec("nic1", kind=LinkKind.NIC))
        topo.connect("sw", "mem", linkspec("nic2", kind=LinkKind.NIC))
        assert topo.coherent("cpu", "mem")
        direct.up = False  # flipped by hand, cache not invalidated
        assert topo.route("cpu", "mem") == [direct]
        assert topo.route_kinds("cpu", "mem") == [LinkKind.CXL]
        topo.invalidate_routes()
        assert topo.route_kinds("cpu", "mem") == [LinkKind.NIC, LinkKind.NIC]
        assert not topo.addressable("cpu", "mem")


class TestClusterPresets:
    @pytest.mark.parametrize(
        "preset", ["table1-host", "compute-centric", "pooled-rack", "two-socket-numa"]
    )
    def test_presets_build_and_route(self, preset):
        cluster = Cluster.preset(preset)
        assert cluster.compute and cluster.memory
        # Every compute device can reach every memory device somehow.
        for cname in cluster.compute:
            for mname in cluster.memory:
                assert cluster.topology.route(cname, mname)

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            Cluster.preset("nope")

    def test_table1_host_attachment_semantics(self):
        cluster = Cluster.preset("table1-host")
        topo = cluster.topology
        assert topo.coherent("cpu0", "dram0")
        assert topo.coherent("cpu0", "cxl0")
        assert not topo.addressable("cpu0", "far0")  # NIC: messages only
        assert not topo.addressable("cpu0", "hdd0")  # SATA
        assert topo.addressable("cpu0", "ssd0")

    def test_pooled_rack_gpu_sees_pool_coherently(self):
        cluster = Cluster.preset("pooled-rack")
        assert cluster.topology.coherent("gpu1", "dram-pool0")
        assert cluster.topology.coherent("cpu1", "gddr1")

    def test_access_latency_from_cpu_reproduces_table1_ordering(self):
        """End-to-end (fabric + media) latency from the CPU follows Table 1."""
        cluster = Cluster.preset("table1-host")

        def rtt(mem):
            dev = cluster.memory[mem]
            return cluster.topology.path_latency("cpu0", mem) + dev.spec.latency

        order = ["cache0", "dram0", "cxl0", "far0", "ssd0", "hdd0"]
        latencies = [rtt(m) for m in order]
        assert latencies == sorted(latencies)


class TestClusterTransfers:
    def test_transfer_moves_bytes_through_both_ports(self):
        cluster = Cluster.preset("table1-host")
        done = cluster.transfer("dram0", "cxl0", 1024.0)
        cluster.engine.run(until=done)
        assert cluster.memory["dram0"].port.bytes_carried == pytest.approx(1024.0)
        assert cluster.memory["cxl0"].port.bytes_carried == pytest.approx(1024.0)

    def test_same_device_copy_costs_double(self):
        cluster = Cluster.preset("table1-host")
        done = cluster.transfer("dram0", "dram0", 1000.0)
        cluster.engine.run(until=done)
        assert cluster.memory["dram0"].port.bytes_carried == pytest.approx(2000.0)

    def test_transfer_slower_to_far_memory(self):
        c1 = Cluster.preset("table1-host")
        d1 = c1.transfer("dram0", "cxl0", 1 * 1024 * 1024)
        c1.engine.run(until=d1)
        t_cxl = c1.engine.now

        c2 = Cluster.preset("table1-host")
        d2 = c2.transfer("dram0", "far0", 1 * 1024 * 1024)
        c2.engine.run(until=d2)
        t_far = c2.engine.now
        assert t_far > t_cxl

    def test_node_crash_fails_devices_and_transfers(self):
        cluster = Cluster.preset("table1-host")
        done = cluster.transfer("dram0", "far0", 100 * 1024 * 1024)

        def crash():
            yield cluster.engine.timeout(1000.0)
            cluster.crash_node("memnode")

        cluster.engine.process(crash())
        with pytest.raises(LinkDown):
            cluster.engine.run(until=done)
        assert cluster.memory["far0"].failed

    def test_node_restart_restores_devices(self):
        cluster = Cluster.preset("table1-host")
        cluster.crash_node("memnode")
        assert cluster.memory["far0"].failed
        from repro.sim.faults import FaultKind

        cluster.faults.inject_now(FaultKind.NODE_RESTART, "memnode")
        assert not cluster.memory["far0"].failed
        done = cluster.transfer("dram0", "far0", 64.0)
        cluster.engine.run(until=done)

    def test_duplicate_device_name_rejected(self):
        cluster = Cluster(seed=0)
        cluster.add_memory(cal.make_dram("x"))
        with pytest.raises(ValueError):
            cluster.add_compute(cal.make_cpu("x"))

    def test_memory_devices_filtering(self):
        cluster = Cluster.preset("table1-host")
        drams = cluster.memory_devices(kind=MemoryKind.DRAM)
        assert [d.name for d in drams] == ["dram0"]
        cluster.memory["dram0"].fail()
        assert cluster.memory_devices(kind=MemoryKind.DRAM) == []
        assert cluster.memory_devices(kind=MemoryKind.DRAM, alive_only=False)


class TestPathRecords:
    def test_path_queries_follow_reroute_and_restore(self):
        """path_latency/addressable/coherent are cached per route and
        must follow link failures and restores through the fault
        handlers on the redundant fabric."""
        rack = Cluster.preset("dual-plane-rack")
        topo = rack.topology
        src, dst = "cpu1", "dram-pool0"

        def route_latency():
            return sum(link.latency for link in topo.route(src, dst))

        def inject(kind, plane):
            for link in topo.links():
                if plane in link.name:
                    rack.faults.inject_now(kind, link.name)

        healthy = topo.path_latency(src, dst)
        assert healthy == route_latency()
        assert topo.addressable(src, dst) and topo.coherent(src, dst)

        inject(FaultKind.LINK_DOWN, "plane-a")
        assert all("plane-b" in link.name for link in topo.route(src, dst))
        assert topo.path_latency(src, dst) == route_latency() != healthy
        assert topo.addressable(src, dst) and topo.coherent(src, dst)

        inject(FaultKind.LINK_DOWN, "plane-b")
        with pytest.raises(NoRouteError):
            topo.path_latency(src, dst)
        assert not topo.addressable(src, dst)
        assert not topo.coherent(src, dst)

        inject(FaultKind.LINK_UP, "plane-b")
        assert topo.path_latency(src, dst) == route_latency() != healthy
        assert topo.addressable(src, dst) and topo.coherent(src, dst)

        inject(FaultKind.LINK_UP, "plane-a")
        assert topo.path_latency(src, dst) == healthy == route_latency()
        assert topo.addressable(src, dst) and topo.coherent(src, dst)
