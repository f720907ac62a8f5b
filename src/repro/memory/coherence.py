"""Coherence costs for *shared* memory regions.

The paper's ownership model (§2.2(2)) draws exactly this line:

* memory **exclusively owned** by a task can relax consistency
  guarantees and memory ordering — no other cache can hold it, so no
  coherence traffic exists;
* memory with **shared ownership** "puts additional requirements on the
  Memory Region, i.e., being cache-coherent or having strict memory
  ordering" — and coherence is not free.

:class:`CoherenceModel` charges that price with a directory-style MOESI
abstraction at region granularity:

* the model learns which compute device each sharer accesses from;
* a **write** to a region shared by N observers invalidates the other
  caches: one round trip to the farthest sharer (invalidations go out
  in parallel) plus a per-sharer directory cost;
* a **read** following a *foreign* write misses and fetches the dirty
  line from the writer's side: one writer→reader round trip.

Exclusive regions, and shared regions touched by a single observer,
pay nothing — making the ownership distinction measurable, not just
documented.

Each cluster has at most one model, kept on the cluster itself
(``cluster.coherence``, created by :meth:`CoherenceModel.for_cluster`
on first use).  Nothing outside the cluster refers to it, so a cluster
and its sharing state are freed together once the session that built
them is dropped.
"""

from __future__ import annotations

import typing

from repro.memory.ownership import OwnershipMode
from repro.memory.region import MemoryRegion

#: Directory/protocol processing cost per invalidated sharer (ns).
DIRECTORY_COST_PER_SHARER_NS = 10.0


class CoherenceModel:
    """Per-cluster coherence cost accounting."""

    def __init__(self, cluster):
        self.cluster = cluster
        #: region id -> {observer name -> last access time}
        self._sharers: typing.Dict[int, typing.Dict[str, float]] = {}
        #: region id -> observer that wrote last (None = clean)
        self._last_writer: typing.Dict[int, typing.Optional[str]] = {}
        self.invalidations = 0
        self.dirty_misses = 0
        self.total_penalty_ns = 0.0

    @classmethod
    def for_cluster(cls, cluster) -> "CoherenceModel":
        """The (per-cluster singleton) coherence model for ``cluster``."""
        model = cluster.coherence
        if model is None:
            model = cluster.coherence = cls(cluster)
        return model

    # -- cost computation -------------------------------------------------

    def access_penalty(
        self, region: MemoryRegion, observer: str, is_write: bool
    ) -> float:
        """Extra latency (ns) this access pays for coherence, and update
        the sharing state.  Exclusive regions always return 0."""
        if region.ownership.mode is not OwnershipMode.SHARED:
            # Exclusive ownership: by construction no other cache can
            # hold the data (the paper's relaxed-consistency case).
            self._sharers.pop(region.id, None)
            self._last_writer.pop(region.id, None)
            return 0.0

        now = self.cluster.engine.now
        sharers = self._sharers.setdefault(region.id, {})
        others = [name for name in sharers if name != observer]
        penalty = 0.0

        if is_write and others:
            # Parallel invalidations: pay the farthest round trip plus
            # per-sharer directory work.
            farthest = max(
                self._round_trip(observer, other) for other in others
            )
            penalty += farthest + DIRECTORY_COST_PER_SHARER_NS * len(others)
            self.invalidations += len(others)
        elif not is_write:
            last_writer = self._last_writer.get(region.id)
            if last_writer is not None and last_writer != observer:
                # Dirty miss: fetch the modified data from the writer.
                # The line leaves Modified state, so subsequent reads by
                # anyone are clean until the next write.
                penalty += self._round_trip(observer, last_writer)
                self.dirty_misses += 1
                self._last_writer[region.id] = None

        sharers[observer] = now
        if is_write:
            self._last_writer[region.id] = observer
        self.total_penalty_ns += penalty
        return penalty

    def forget(self, region_id: int) -> None:
        """Drop all sharing state for a region (e.g. after free)."""
        self._sharers.pop(region_id, None)
        self._last_writer.pop(region_id, None)

    def sharers_of(self, region: MemoryRegion) -> typing.List[str]:
        """The observers currently caching this region, sorted."""
        return sorted(self._sharers.get(region.id, {}))

    # -- internals -------------------------------------------------------

    def _round_trip(self, a: str, b: str) -> float:
        try:
            return 2.0 * self.cluster.topology.path_latency(a, b)
        except Exception:
            return 2.0 * DIRECTORY_COST_PER_SHARER_NS
