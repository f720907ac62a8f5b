"""Carbink-style erasure-coded far memory: the one redundancy code.

Two layers:

* :class:`ReedSolomon` — a real, byte-exact systematic Reed–Solomon
  codec over GF(2^8) (k data shards, m parity shards, tolerates any m
  erasures).  Used directly by property tests and by the store.
* :class:`ErasureCodedStore` — packs objects into fixed-size **spans**
  (k·shard_size logical bytes each), placing the k+m shards of every
  span on devices in *distinct failure domains*.  Node crashes mark
  shards lost; :meth:`recover` reads k survivors per damaged span,
  decodes, and re-materializes replacements elsewhere — with all traffic
  going through the simulated fabric so recovery time and bandwidth are
  measured, not asserted.  Deleting objects leaves dead bytes in their
  spans; :meth:`compact` rewrites fragmented spans (Carbink's
  compaction), reclaiming the dead space.

The (k, m) pair spans the whole overhead-versus-repair curve: k = 1
makes every parity shard a plain copy, so r-way replication is
``k=1, m=r-1``; ``m=1`` is single-parity striping and ``m=0`` plain
striping.  Every read decodes from the shards that actually survive.
"""

from __future__ import annotations

import typing
from itertools import count

import numpy as np

from repro.ft.gf256 import GF256
from repro.hardware.cluster import Cluster
from repro.memory.manager import MemoryManager, PlacementError
from repro.memory.properties import MemoryProperties
from repro.memory.region import MemoryRegion, RegionState


class DecodeError(Exception):
    """Not enough surviving shards to reconstruct."""


class DataLoss(Exception):
    """An object is unrecoverable (more than m shards of its span lost)."""


class ReedSolomon:
    """Systematic RS(k+m, k) erasure codec over GF(2^8)."""

    def __init__(self, k: int, m: int):
        if k < 1 or m < 0 or k + m > 255:
            raise ValueError(f"invalid RS parameters k={k}, m={m}")
        self.k = k
        self.m = m
        vandermonde = np.zeros((k + m, k), dtype=np.uint8)
        for i in range(k + m):
            for j in range(k):
                vandermonde[i, j] = GF256.power(i + 1, j)
        top_inv = GF256.mat_invert(vandermonde[:k, :])
        #: Systematic encoding matrix: top k rows are the identity.
        self.matrix = GF256.mat_mul(vandermonde, top_inv)

    def encode(self, data_shards: np.ndarray) -> np.ndarray:
        """Compute the m parity shards for ``data_shards`` (k, shard_len)."""
        data = np.asarray(data_shards, dtype=np.uint8)
        if data.shape[0] != self.k:
            raise ValueError(f"expected {self.k} data shards, got {data.shape[0]}")
        if self.m == 0:
            return np.zeros((0, data.shape[1]), dtype=np.uint8)
        return GF256.mat_mul(self.matrix[self.k:, :], data)

    def decode(
        self, shards: typing.Mapping[int, np.ndarray], shard_len: int
    ) -> np.ndarray:
        """Reconstruct the k data shards from any k available shards.

        ``shards`` maps shard index (0..k+m-1) to its bytes.
        """
        if len(shards) < self.k:
            raise DecodeError(
                f"need {self.k} shards to decode, have {len(shards)}"
            )
        indices = sorted(shards)[: self.k]
        if indices == list(range(self.k)):
            return np.stack([np.asarray(shards[i], dtype=np.uint8) for i in indices])
        submatrix = self.matrix[indices, :]
        inverse = GF256.mat_invert(submatrix)
        available = np.stack(
            [np.asarray(shards[i], dtype=np.uint8) for i in indices]
        )
        if available.shape[1] != shard_len:
            raise ValueError("shard length mismatch")
        return GF256.mat_mul(inverse, available)

    @property
    def storage_overhead(self) -> float:
        """Physical bytes per logical byte: (k+m)/k."""
        return (self.k + self.m) / self.k


class Span:
    """One erasure-coded span: k data + m parity shards on k+m devices."""

    def __init__(self, span_id: int, k: int, m: int, shard_size: int):
        self.id = span_id
        self.k = k
        self.m = m
        self.shard_size = shard_size
        #: shard index -> device name (len k+m once placed)
        self.devices: typing.List[str] = []
        self.regions: typing.List[MemoryRegion] = []
        #: actual shard bytes; None when that shard is lost
        self.shards: typing.List[typing.Optional[np.ndarray]] = []
        #: object name -> (offset, length) in the logical data area
        self.objects: typing.Dict[str, typing.Tuple[int, int]] = {}
        self.cursor = 0
        self.dead_bytes = 0

    @property
    def logical_capacity(self) -> int:
        return self.k * self.shard_size

    @property
    def free(self) -> int:
        return self.logical_capacity - self.cursor

    @property
    def live_bytes(self) -> int:
        return sum(length for _off, length in self.objects.values())

    @property
    def dead_fraction(self) -> float:
        used = self.cursor
        return self.dead_bytes / used if used else 0.0

    @property
    def lost_shards(self) -> typing.List[int]:
        return [i for i, s in enumerate(self.shards) if s is None]

    def data_array(self) -> np.ndarray:
        """The k data shards as one (k, shard_size) array (must be intact)."""
        rows = []
        for i in range(self.k):
            if self.shards[i] is None:
                raise DecodeError(f"span {self.id}: data shard {i} is lost")
            rows.append(self.shards[i])
        return np.stack(rows)


class ErasureCodedStore:
    """An object store over erasure-coded spans of disaggregated memory."""

    def __init__(
        self,
        cluster: Cluster,
        manager: MemoryManager,
        devices: typing.Sequence[str],
        home: str,
        k: int = 4,
        m: int = 2,
        shard_size: int = 64 * 1024,
        owner: str = "ec-store",
    ):
        domains = len({cluster.node_of(d) or d for d in devices})
        if domains < k + m:
            raise ValueError(
                f"need devices in >= {k + m} distinct failure domains, "
                f"got {domains}"
            )
        self.cluster = cluster
        self.manager = manager
        self.devices = list(devices)
        self.home = home
        self.codec = ReedSolomon(k, m)
        self.shard_size = shard_size
        self.owner = owner
        self.spans: typing.List[Span] = []
        self._index: typing.Dict[str, Span] = {}
        self._next_device = 0
        self._span_ids = count()
        self.bytes_written = 0
        self.bytes_read = 0
        self.repair_bytes = 0
        self.compactions = 0

    # -- placement helpers --------------------------------------------------

    def _pick_devices(self, n: int, exclude: typing.Iterable[str] = ()) -> typing.List[str]:
        """n healthy devices in distinct failure domains (round robin)."""
        excluded_domains = {self.cluster.node_of(d) for d in exclude}
        picked: typing.List[str] = []
        domains: set = set(excluded_domains)
        attempts = 0
        while len(picked) < n and attempts < 2 * len(self.devices):
            name = self.devices[self._next_device % len(self.devices)]
            self._next_device += 1
            attempts += 1
            device = self.cluster.memory[name]
            domain = self.cluster.node_of(name) or name
            if device.failed or domain in domains:
                continue
            if self.manager.allocators[name].largest_free_extent < self.shard_size:
                continue
            picked.append(name)
            domains.add(domain)
        if len(picked) < n:
            raise PlacementError(
                f"cannot find {n} healthy devices in distinct failure domains"
            )
        return picked

    def _allocate_span(self) -> Span:
        span = Span(next(self._span_ids), self.codec.k, self.codec.m, self.shard_size)
        names = self._pick_devices(self.codec.k + self.codec.m)
        for name in names:
            region = self.manager.allocate_on(
                name, self.shard_size, MemoryProperties(), owner=self.owner,
                name=f"span{span.id}@{name}",
            )
            span.devices.append(name)
            span.regions.append(region)
            span.shards.append(np.zeros(self.shard_size, dtype=np.uint8))
        self.spans.append(span)
        return span

    # -- object operations -----------------------------------------------------

    def put(self, name: str, data: np.ndarray):
        """Simulation generator: store ``data`` (uint8 array) under ``name``."""
        payload = np.asarray(data, dtype=np.uint8)
        if name in self._index:
            raise KeyError(f"object {name!r} already stored")
        if payload.nbytes > self.shard_size * self.codec.k:
            raise ValueError(
                f"object of {payload.nbytes} B exceeds span capacity "
                f"{self.shard_size * self.codec.k} B"
            )
        span = next((s for s in self.spans if s.free >= payload.nbytes and not s.lost_shards), None)
        if span is None:
            span = self._allocate_span()

        offset = span.cursor
        flat = np.concatenate([s for s in span.shards[: span.k]])
        flat[offset: offset + payload.nbytes] = payload
        for i in range(span.k):
            span.shards[i] = flat[i * self.shard_size: (i + 1) * self.shard_size].copy()
        parity = self.codec.encode(span.data_array())
        for j in range(span.m):
            span.shards[span.k + j] = parity[j].copy()
        span.cursor += payload.nbytes
        span.objects[name] = (offset, payload.nbytes)
        self._index[name] = span

        # Write the touched data shards + all parity shards over the fabric.
        first = offset // self.shard_size
        last = (offset + payload.nbytes - 1) // self.shard_size
        transfers = []
        for i in range(first, last + 1):
            transfers.append(self.cluster.transfer(self.home, span.devices[i], self.shard_size))
            self.bytes_written += self.shard_size
        for j in range(span.m):
            transfers.append(
                self.cluster.transfer(self.home, span.devices[span.k + j], self.shard_size)
            )
            self.bytes_written += self.shard_size
        yield self.cluster.engine.all_of(transfers)
        return span

    def get(self, name: str):
        """Simulation generator: fetch the object's bytes.

        Degraded reads (data shard lost but ≤ m erasures) decode on the
        fly from k survivors — paying the extra fabric traffic.
        """
        span = self._index.get(name)
        if span is None:
            raise KeyError(f"no object {name!r}")
        offset, length = span.objects[name]
        first = offset // self.shard_size
        last = (offset + length - 1) // self.shard_size
        needed = list(range(first, last + 1))
        lost_needed = [i for i in needed if span.shards[i] is None]

        if not lost_needed:
            transfers = [
                self.cluster.transfer(span.devices[i], self.home, self.shard_size)
                for i in needed
            ]
            self.bytes_read += self.shard_size * len(needed)
            yield self.cluster.engine.all_of(transfers)
        else:
            available = {
                i: s for i, s in enumerate(span.shards) if s is not None
            }
            if len(available) < span.k:
                raise DataLoss(f"object {name!r}: span {span.id} lost too many shards")
            read_from = sorted(available)[: span.k]
            transfers = [
                self.cluster.transfer(span.devices[i], self.home, self.shard_size)
                for i in read_from
            ]
            self.bytes_read += self.shard_size * len(read_from)
            yield self.cluster.engine.all_of(transfers)

        data = self._reconstruct_data(span)
        flat = data.reshape(-1)
        return flat[offset: offset + length].copy()

    def delete(self, name: str) -> None:
        """Mark the object dead (space reclaimed by compaction); a span
        left with no live object is freed at once."""
        span = self._index.pop(name, None)
        if span is None:
            raise KeyError(f"no object {name!r}")
        _offset, length = span.objects.pop(name)
        span.dead_bytes += length
        if not span.objects:
            self.spans.remove(span)
            self._free_regions(span)

    # -- failure handling ---------------------------------------------------

    def note_device_failures(self) -> int:
        """Mark shards on failed devices as lost; returns #shards lost."""
        lost = 0
        for span in self.spans:
            for i, device_name in enumerate(span.devices):
                if span.shards[i] is None:
                    continue
                device = self.cluster.memory[device_name]
                if device.failed or span.regions[i].state is RegionState.LOST:
                    span.shards[i] = None
                    lost += 1
        return lost

    def recover(self):
        """Simulation generator: repair every span with lost shards.

        For each damaged span: read k surviving shards, decode, place
        replacement shards on healthy devices in unused failure domains,
        and write them out.  A span with no room for its replacements
        stays degraded (still readable by decode).  Returns the number
        of shards rebuilt.
        """
        rebuilt = 0
        for span in self.spans:
            lost = span.lost_shards
            if not lost:
                continue
            available = {i: s for i, s in enumerate(span.shards) if s is not None}
            if len(available) < span.k:
                continue  # unrecoverable; surfaced on get() as DataLoss
            # Read k survivors to the home node.
            read_from = sorted(available)[: span.k]
            transfers = [
                self.cluster.transfer(span.devices[i], self.home, self.shard_size)
                for i in read_from
            ]
            self.repair_bytes += self.shard_size * len(read_from)
            yield self.cluster.engine.all_of(transfers)

            data = self.codec.decode(
                {i: available[i] for i in read_from}, self.shard_size
            )
            parity = self.codec.encode(data)
            healthy = [d for i, d in enumerate(span.devices) if i not in lost]
            try:
                replacements = self._pick_devices(len(lost), exclude=healthy)
            except PlacementError:
                continue

            writes = []
            for shard_index, new_device in zip(lost, replacements):
                region = self.manager.allocate_on(
                    new_device, self.shard_size, MemoryProperties(),
                    owner=self.owner, name=f"span{span.id}@{new_device}",
                )
                old_region = span.regions[shard_index]
                if old_region.state is RegionState.ACTIVE:
                    self.manager.free(old_region)
                span.regions[shard_index] = region
                span.devices[shard_index] = new_device
                if shard_index < span.k:
                    span.shards[shard_index] = data[shard_index].copy()
                else:
                    span.shards[shard_index] = parity[shard_index - span.k].copy()
                writes.append(
                    self.cluster.transfer(self.home, new_device, self.shard_size)
                )
                self.repair_bytes += self.shard_size
                rebuilt += 1
            yield self.cluster.engine.all_of(writes)
        return rebuilt

    # -- compaction ----------------------------------------------------------

    def compact(self, dead_threshold: float = 0.5):
        """Simulation generator: rewrite spans whose dead fraction exceeds
        the threshold, packing live objects into fresh spans."""
        victims = [
            s for s in self.spans
            if s.dead_fraction > dead_threshold and not s.lost_shards
        ]
        moved = 0
        for span in victims:
            live = list(span.objects.items())
            # Read the live data home once.
            transfers = [
                self.cluster.transfer(span.devices[i], self.home, self.shard_size)
                for i in range(span.k)
            ]
            self.bytes_read += self.shard_size * span.k
            yield self.cluster.engine.all_of(transfers)
            flat = span.data_array().reshape(-1)

            # Re-insert live objects, then drop the old span entirely.
            self.spans.remove(span)
            for name, (offset, length) in live:
                del self._index[name]
                payload = flat[offset: offset + length].copy()
                yield from self.put(name, payload)
                moved += 1
            self._free_regions(span)
            self.compactions += 1
        return moved

    # -- metrics --------------------------------------------------------------

    def physical_bytes(self) -> int:
        """Bytes physically occupied by all spans (data + parity)."""
        return sum(
            len(span.shards) * self.shard_size
            for span in self.spans
        )

    def live_logical_bytes(self) -> int:
        """Bytes of live (non-deleted) stored objects."""
        return sum(span.live_bytes for span in self.spans)

    def memory_overhead(self) -> float:
        """Physical bytes per live logical byte."""
        live = self.live_logical_bytes()
        return self.physical_bytes() / live if live else float("inf")

    # -- internals ---------------------------------------------------------

    def _free_regions(self, span: Span) -> None:
        for region in span.regions:
            if region.state is RegionState.ACTIVE:
                self.manager.free(region)

    def _reconstruct_data(self, span: Span) -> np.ndarray:
        available = {i: s for i, s in enumerate(span.shards) if s is not None}
        if all(span.shards[i] is not None for i in range(span.k)):
            return span.data_array()
        if len(available) < span.k:
            raise DataLoss(f"span {span.id} lost more than {span.m} shards")
        return self.codec.decode(
            {i: available[i] for i in sorted(available)[: span.k]},
            self.shard_size,
        )
