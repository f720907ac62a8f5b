"""Refcounted read-only shared regions (the KV prefix-cache substrate).

The ownership model (:mod:`repro.memory.ownership`) already supports
shared regions: an owner set that widens with ``share`` and shrinks
with ``drop``, freeing the backing memory when the last owner leaves.
:class:`SharedRegionCache` packages that into the lifecycle a reuse
cache needs — the pattern LLM serving stacks apply to KV-cache prefix
blocks:

* the cache itself holds one reference to every inserted region, so a
  cached region survives between readers;
* readers :meth:`~SharedRegionCache.acquire` a reference before touching
  the region and :meth:`~SharedRegionCache.release` it when done —
  the region is *pinned* while any reader holds it;
* :meth:`~SharedRegionCache.forget` evicts an entry from the index
  immediately, but the backing region is only freed once its last
  reader drains (deferred reclamation, never use-after-free);
* a reader that crashes is cleaned up by whoever owns its lifecycle
  (the runtime's recovery path drops job-owned references); the cache's
  own reference keeps the region alive through the crash.

Every transition delegates to the :class:`~repro.memory.manager.
MemoryManager`, so shares, drops, and the final free all land in the
trace like any other ownership operation.
"""

from __future__ import annotations

import typing

from repro.memory.manager import MemoryManager
from repro.memory.ownership import NotOwnerError, OwnershipError
from repro.memory.region import MemoryRegion


class SharedRegionError(OwnershipError):
    """A shared-region cache protocol violation (double release, ...)."""


class CacheEntry:
    """One cached region: the backing memory plus its reader set."""

    def __init__(self, key: typing.Hashable, region: MemoryRegion):
        self.key = key
        self.region = region
        #: Reader tokens currently holding a reference.
        self.readers: typing.Set[typing.Hashable] = set()
        #: Evicted from the index while readers were live: the cache's
        #: own reference drops when the last reader releases.
        self.dying = False
        #: Lifetime counters (telemetry / leak audits).
        self.acquisitions = 0
        self.last_used_at = 0.0

    @property
    def ref_count(self) -> int:
        """Live reader references (the cache's own ref not counted)."""
        return len(self.readers)

    @property
    def pinned(self) -> bool:
        """Whether eviction must defer (any reader still holds a ref)."""
        return bool(self.readers)


class SharedRegionCache:
    """Keyed cache of refcounted, read-only shared memory regions.

    The cache owns one reference per entry under its ``owner`` token;
    regions must be inserted with that token already owning them
    (allocate with ``owner=cache.owner``).  All reference transitions
    go through the memory manager, so the backing region is freed by
    the ordinary last-drop hook — there is no separate reclaim path to
    get wrong.
    """

    def __init__(self, memory: MemoryManager, owner: typing.Hashable):
        self.memory = memory
        self.owner = owner
        self._entries: typing.Dict[typing.Hashable, CacheEntry] = {}
        #: Entries evicted while pinned, keyed by region id: invisible
        #: to lookups but still holding memory until readers drain.
        self._dying: typing.Dict[int, CacheEntry] = {}
        #: Bytes of every entry in either dict, kept as entries come and
        #: go so the telemetry poll reads it in O(1).
        self._pinned_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.deferred_evictions = 0

    # -- index -------------------------------------------------------------

    def __contains__(self, key: typing.Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> typing.List[typing.Hashable]:
        """The cached keys (insertion order)."""
        return list(self._entries)

    def get(self, key: typing.Hashable) -> typing.Optional[CacheEntry]:
        """The live entry for ``key``, or None (does not take a ref)."""
        return self._entries.get(key)

    def pinned_bytes(self) -> int:
        """Bytes held by all entries, including dying ones."""
        return self._pinned_bytes

    # -- lifecycle ---------------------------------------------------------

    def insert(self, key: typing.Hashable, region: MemoryRegion) -> CacheEntry:
        """Adopt ``region`` (already owned by ``self.owner``) under ``key``.

        The cache's ownership reference is the one that keeps the
        region alive between readers.  Inserting over an existing live
        key is a protocol violation — :meth:`forget` it first.
        """
        if key in self._entries:
            raise SharedRegionError(f"key {key!r} is already cached")
        if not region.ownership.is_owner(self.owner):
            raise NotOwnerError(
                f"region {region.name!r} is not owned by the cache token "
                f"{self.owner!r}; allocate it with owner=cache.owner"
            )
        entry = CacheEntry(key, region)
        self._entries[key] = entry
        self._pinned_bytes += region.size
        return entry

    def acquire(self, key: typing.Hashable, reader: typing.Hashable,
                now: float = 0.0):
        """Take one reference for ``reader``; returns a region handle.

        The reader joins the region's shared owner set, pinning it:
        eviction and release of other readers cannot free the region
        until this reader calls :meth:`release`.  A reader may hold at
        most one reference per key.
        """
        entry = self._entries.get(key)
        if entry is None:
            raise KeyError(f"key {key!r} is not cached")
        if reader in entry.readers:
            raise SharedRegionError(
                f"reader {reader!r} already holds a reference to {key!r}"
            )
        self.memory.share(entry.region, self.owner, [reader])
        entry.readers.add(reader)
        entry.acquisitions += 1
        entry.last_used_at = now
        self.hits += 1
        return entry.region.handle(reader)

    def release(self, key: typing.Hashable, reader: typing.Hashable) -> bool:
        """Drop ``reader``'s reference; True when the region was freed.

        Releasing a reference you do not hold — including releasing the
        same reference twice — raises :class:`SharedRegionError`.  If
        the reader's ownership was already torn down externally (a
        crashed job's recovery drops its owners), the cache bookkeeping
        is still settled here without double-dropping.
        """
        entry = self._entries.get(key)
        if entry is None:
            # The key may have been evicted while this reader held it.
            entry = next(
                (e for e in self._dying.values() if e.key == key
                 and reader in e.readers),
                None,
            )
        if entry is None or reader not in entry.readers:
            raise SharedRegionError(
                f"reader {reader!r} holds no reference to {key!r} "
                f"(double release?)"
            )
        entry.readers.discard(reader)
        freed = False
        try:
            self.memory.drop_owner(entry.region, reader)
        except (NotOwnerError, OwnershipError):
            # Recovery already dropped the crashed reader's ownership;
            # the cache's reference kept the region alive regardless.
            pass
        if entry.dying and not entry.readers:
            freed = self._drop_own_ref(entry)
        return freed

    def forget(self, key: typing.Hashable) -> bool:
        """Evict ``key`` from the index; True when the region was freed.

        With live readers the region stays allocated (pinned) and only
        the *index* entry disappears; the cache's own reference is
        dropped by the last reader's :meth:`release`.
        """
        entry = self._entries.pop(key, None)
        if entry is None:
            raise KeyError(f"key {key!r} is not cached")
        self.evictions += 1
        if entry.readers:
            entry.dying = True
            self._dying[entry.region.id] = entry
            self.deferred_evictions += 1
            return False
        return self._drop_own_ref(entry)

    def drain(self) -> int:
        """Evict everything (end of run); returns entries freed *now*.

        Entries still pinned by readers linger in the dying set and
        free on their readers' final release — :meth:`outstanding`
        reports them, which is the leak audit benches assert on.
        """
        freed = 0
        for key in list(self._entries):
            if self.forget(key):
                freed += 1
        return freed

    def _drop_own_ref(self, entry: CacheEntry) -> bool:
        # The one way out of both dicts: forget() has already popped
        # the index entry and a dying entry leaves here.
        self._dying.pop(entry.region.id, None)
        self._pinned_bytes -= entry.region.size
        if not entry.region.alive:
            return False  # lost to a fault; nothing left to free
        try:
            return self.memory.drop_owner(entry.region, self.owner)
        except (NotOwnerError, OwnershipError):
            return False

    # -- audits ------------------------------------------------------------

    def outstanding(self) -> typing.Dict[typing.Hashable, int]:
        """key -> live reader reference count, for every pinned entry.

        Empty at the end of a leak-free run: every acquire was paired
        with a release, so all shared regions drained to refcount 0.
        """
        report = {
            e.key: e.ref_count
            for e in self._entries.values() if e.readers
        }
        report.update({
            e.key: e.ref_count
            for e in self._dying.values() if e.readers
        })
        return report


__all__ = ["CacheEntry", "SharedRegionCache", "SharedRegionError"]
