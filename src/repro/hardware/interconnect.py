"""Interconnect fabric: topology graph + routing.

The fabric is an undirected multigraph-free graph whose vertices are
device or switch names and whose edges carry live
:class:`~repro.sim.flows.Link` objects.  Routing uses latency-weighted
shortest paths (networkx Dijkstra) with caching; routes answer the three
questions the runtime keeps asking:

* which links does a transfer between A and B cross (→ contention),
* can compute device A issue loads/stores to memory B at all
  (:meth:`Topology.addressable` — PCIe/CXL yes, NIC/SATA no), and
* is that path cache-coherent (:meth:`Topology.coherent`), which decides
  whether B can back a *shared* memory region for A (paper §2.2).
"""

from __future__ import annotations

import typing

import networkx as nx

from repro.hardware.spec import (
    ADDRESSABLE_LINK_KINDS,
    COHERENT_LINK_KINDS,
    LinkKind,
    LinkSpec,
)
from repro.sim.flows import Link


class NoRouteError(Exception):
    """There is no path between the requested endpoints."""


class _PathRecord(typing.NamedTuple):
    """What the runtime asks about one route, computed once per route."""

    latency: float
    bandwidth: float
    addressable: bool
    coherent: bool


class Topology:
    """The interconnect graph of a cluster."""

    def __init__(self):
        self.graph = nx.Graph()
        self._route_cache: dict = {}
        #: (src, dst) -> _PathRecord of the cached route; cleared with
        #: the route cache, so it always describes route(src, dst).
        self._path_cache: typing.Dict[tuple, _PathRecord] = {}
        #: link.id -> LinkKind, so kind queries can follow route().
        self._link_kinds: typing.Dict[int, LinkKind] = {}

    # -- construction ----------------------------------------------------

    def add_node(self, name: str, role: str = "switch") -> None:
        """Add a vertex.  ``role`` is 'compute', 'memory' or 'switch'."""
        if role not in ("compute", "memory", "switch"):
            raise ValueError(f"unknown node role {role!r}")
        if name in self.graph:
            raise ValueError(f"duplicate topology node {name!r}")
        self.graph.add_node(name, role=role)

    def connect(self, a: str, b: str, spec: LinkSpec) -> Link:
        """Create a live link between existing nodes ``a`` and ``b``."""
        for endpoint in (a, b):
            if endpoint not in self.graph:
                raise KeyError(f"unknown topology node {endpoint!r}")
        if self.graph.has_edge(a, b):
            raise ValueError(f"nodes {a!r} and {b!r} are already connected")
        link = Link(spec.name, bandwidth=spec.bandwidth, latency=spec.latency)
        self.graph.add_edge(a, b, link=link, kind=spec.kind)
        self._link_kinds[link.id] = spec.kind
        self.invalidate_routes()
        return link

    # -- queries -----------------------------------------------------------

    def nodes(self, role: typing.Optional[str] = None) -> list:
        """Vertex names, optionally filtered by role."""
        if role is None:
            return list(self.graph.nodes)
        return [n for n, data in self.graph.nodes(data=True) if data["role"] == role]

    def links(self) -> list:
        """All live Link objects in the fabric."""
        return [data["link"] for _, _, data in self.graph.edges(data=True)]

    def link_between(self, a: str, b: str) -> Link:
        """The link directly connecting two adjacent vertices."""
        return self.graph.edges[a, b]["link"]

    def route(self, src: str, dst: str) -> typing.List[Link]:
        """Latency-minimal path from ``src`` to ``dst`` as a list of links.

        Down links are routed around when an alternative exists — a
        redundant fabric (e.g. the ``dual-plane-rack`` preset) keeps
        working through single-plane failures.  Remember to call
        :meth:`invalidate_routes` after flipping link state by hand; the
        cluster's fault handlers already do.
        """
        key = (src, dst)
        if key in self._route_cache:
            return self._route_cache[key]
        if src == dst:
            self._route_cache[key] = []
            return []
        try:
            # weight=None makes Dijkstra skip the edge entirely.
            path = nx.shortest_path(
                self.graph, src, dst,
                weight=lambda a, b, data: (
                    data["link"].latency + 1e-9 if data["link"].up else None
                ),
            )
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise NoRouteError(f"no route from {src!r} to {dst!r}") from exc
        links = [self.graph.edges[u, v]["link"] for u, v in zip(path, path[1:])]
        self._route_cache[key] = links
        self._route_cache[(dst, src)] = list(reversed(links))
        return links

    def route_kinds(self, src: str, dst: str) -> typing.List[LinkKind]:
        """The link technologies along :meth:`route` from src to dst."""
        return [self._link_kinds[link.id] for link in self.route(src, dst)]

    def _path(self, src: str, dst: str) -> "_PathRecord":
        """The cached record of :meth:`route` from src to dst."""
        record = self._path_cache.get((src, dst))
        if record is None:
            links = self.route(src, dst)
            kinds = [self._link_kinds[link.id] for link in links]
            record = self._path_cache[(src, dst)] = _PathRecord(
                latency=sum(link.latency for link in links),
                bandwidth=(min(link.bandwidth for link in links)
                           if links else float("inf")),
                addressable=all(k in ADDRESSABLE_LINK_KINDS for k in kinds),
                coherent=all(k in COHERENT_LINK_KINDS for k in kinds),
            )
        return record

    def path_latency(self, src: str, dst: str) -> float:
        """One-way propagation latency along the route (ns)."""
        return self._path(src, dst).latency

    def path_bandwidth(self, src: str, dst: str) -> float:
        """Uncontended bottleneck bandwidth along the route (bytes/ns)."""
        return self._path(src, dst).bandwidth

    def addressable(self, src: str, dst: str) -> bool:
        """True when ``src`` can issue loads/stores that reach ``dst``
        directly (the path never crosses a message-based link)."""
        try:
            return self._path(src, dst).addressable
        except NoRouteError:
            return False

    def coherent(self, src: str, dst: str) -> bool:
        """True when the path is entirely cache-coherent (DDR/CXL/on-board)."""
        try:
            return self._path(src, dst).coherent
        except NoRouteError:
            return False

    def invalidate_routes(self) -> None:
        """Drop the route and path caches (after topology or link-state
        changes)."""
        self._route_cache.clear()
        self._path_cache.clear()

    def __repr__(self) -> str:
        return (
            f"<Topology {self.graph.number_of_nodes()} nodes, "
            f"{self.graph.number_of_edges()} links>"
        )
