"""Interconnect fabric: topology graph + routing.

The fabric is an undirected simple graph, kept as an adjacency dict,
whose vertices are device or switch names and whose edges carry live
:class:`~repro.sim.flows.Link` objects.  Routing is a latency-weighted
heap Dijkstra with caching; routes answer the three questions the
runtime keeps asking:

* which links does a transfer between A and B cross (→ contention),
* can compute device A issue loads/stores to memory B at all
  (:meth:`Topology.addressable` — PCIe/CXL yes, NIC/SATA no), and
* is that path cache-coherent (:meth:`Topology.coherent`), which decides
  whether B can back a *shared* memory region for A (paper §2.2).
"""

from __future__ import annotations

import heapq
import itertools
import typing

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
        #: node -> {neighbour: Link}, both in insertion order.
        self._adj: typing.Dict[str, typing.Dict[str, Link]] = {}
        self._roles: typing.Dict[str, str] = {}
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
        if name in self._adj:
            raise ValueError(f"duplicate topology node {name!r}")
        self._adj[name] = {}
        self._roles[name] = role

    def connect(self, a: str, b: str, spec: LinkSpec) -> Link:
        """Create a live link between existing nodes ``a`` and ``b``."""
        for endpoint in (a, b):
            if endpoint not in self._adj:
                raise KeyError(f"unknown topology node {endpoint!r}")
        if b in self._adj[a]:
            raise ValueError(f"nodes {a!r} and {b!r} are already connected")
        link = Link(spec.name, bandwidth=spec.bandwidth, latency=spec.latency)
        self._adj[a][b] = self._adj[b][a] = link
        self._link_kinds[link.id] = spec.kind
        self.invalidate_routes()
        return link

    # -- queries -----------------------------------------------------------

    def nodes(self, role: typing.Optional[str] = None) -> list:
        """Vertex names, optionally filtered by role."""
        if role is None:
            return list(self._adj)
        return [n for n, r in self._roles.items() if r == role]

    def edges(self) -> typing.List[typing.Tuple[str, str, Link]]:
        """Every link once, as ``(u, v, link)``: nodes in insertion
        order, each with its neighbours not yet listed as a node."""
        out, seen = [], set()
        for u, nbrs in self._adj.items():
            out.extend((u, v, link) for v, link in nbrs.items() if v not in seen)
            seen.add(u)
        return out

    def links(self) -> list:
        """All live Link objects in the fabric."""
        return [link for _, _, link in self.edges()]

    def link_kind(self, link: Link) -> LinkKind:
        """The technology of one of this fabric's links."""
        return self._link_kinds[link.id]

    def link_between(self, a: str, b: str) -> Link:
        """The link directly connecting two adjacent vertices."""
        return self._adj[a][b]

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
        if src not in self._adj or dst not in self._adj:
            raise NoRouteError(f"no route from {src!r} to {dst!r}")
        # Ties go to the first-pushed entry, and neighbours are relaxed
        # in insertion order; a hop costs 1e-9 ns more than its latency
        # so that zero-latency links still prefer fewer hops.
        seq = itertools.count()
        dist = {src: 0.0}
        via: typing.Dict[str, typing.Tuple[str, Link]] = {}
        heap = [(0.0, next(seq), src)]
        while heap:
            d, _, node = heapq.heappop(heap)
            if d > dist[node]:
                continue  # superseded by a shorter entry already popped
            if node == dst:
                break
            for nbr, link in self._adj[node].items():
                if not link.up:
                    continue
                nd = d + (link.latency + 1e-9)
                if nd < dist.get(nbr, float("inf")):
                    dist[nbr] = nd
                    via[nbr] = (node, link)
                    heapq.heappush(heap, (nd, next(seq), nbr))
        else:
            raise NoRouteError(f"no route from {src!r} to {dst!r}")
        links = []
        node = dst
        while node != src:
            node, link = via[node]
            links.append(link)
        links.reverse()
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
            f"<Topology {len(self._adj)} nodes, "
            f"{len(self._link_kinds)} links>"
        )
