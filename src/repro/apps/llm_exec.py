"""A physical LLM serving engine on top of the runtime.

The executor behind :mod:`repro.apps.llm` (the app class that made
memory disaggregation mainstream): a stream of
:class:`~repro.workloads.llm.LLMRequest` arrivals is served as
two-phase prefill/decode jobs whose KV caches are real, owned memory
regions —

* each request's suffix KV cache is the prefill task's *output region*;
  its **ownership transfers** to the decode task through the runtime's
  ordinary handover (zero-copy when both pool devices address it, an
  explicit fabric copy otherwise);
* common prompt prefixes live as **refcounted read-only shared
  regions** (:class:`~repro.memory.sharing.SharedRegionCache`) indexed
  by a :class:`~repro.apps.llm.PrefixTrie` — a hit pins the shared
  blocks for the request's lifetime and skips prefill for the covered
  span;
* requests enter through QoS **admission** (tenants, weighted-fair
  queueing, SLOs) like every other app class, in open-loop (trace
  timestamps) or closed-loop (fixed concurrency) mode, and settle on
  their admission handle's ``settled`` event — at the instant the job
  finishes, fails or is shed, after admission has re-pumped its queue.

Telemetry lands in the session's hub: ``llm.prefix_hit_blocks`` /
``llm.prefix_miss_blocks`` (rates), ``llm.kv_bytes_moved`` (the P->D
transfer volume), ``llm.ttft_ns`` and ``llm.transfer_stall_ns``
(distributions), and ``llm.prefix_pinned_bytes`` (level).  The
end-of-run leak audit is :meth:`LLMEngine.audit` — a leak-free run
drains every shared region to refcount 0.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro.api import Session
from repro.apps.llm import DECODE_POOL, PrefixTrie, build_request_job
from repro.memory.manager import PlacementError
from repro.memory.regions import RegionType, region_properties
from repro.memory.sharing import SharedRegionCache, SharedRegionError
from repro.runtime.placement import PlacementRequest
from repro.workloads.llm import LLMRequest

KiB = 1024
MiB = 1024 * KiB


@dataclasses.dataclass
class RequestRecord:
    """One served request: what it hit, moved, and waited for."""

    request: LLMRequest
    arrived_at: float
    #: Leading prompt blocks covered by the prefix cache at admission.
    hit_blocks: int = 0
    cached_tokens: int = 0
    finished_at: typing.Optional[float] = None
    shed: bool = False
    failed: bool = False
    #: Bytes the P->D ownership handover physically copied.
    kv_bytes_moved: float = 0.0
    #: Arrival -> prefill completion (time to first token).
    ttft_ns: typing.Optional[float] = None
    #: Prefill completion -> decode ready: the transfer stall.
    transfer_stall_ns: typing.Optional[float] = None
    #: Decode ready -> decode finished: the *interactive* phase — what
    #: a user waiting on streamed tokens experiences after the prompt
    #: is in.  Includes decode-device queueing, so colocated prefill
    #: interference lands here.
    decode_ns: typing.Optional[float] = None

    @property
    def completed(self) -> bool:
        """Whether the request finished decoding successfully."""
        return self.finished_at is not None and not (self.shed or self.failed)

    @property
    def e2e_ns(self) -> typing.Optional[float]:
        """Arrival -> last token latency; None unless completed."""
        if not self.completed:
            return None
        return self.finished_at - self.arrived_at


def _percentile(values: typing.List[float], p: float) -> float:
    """p in [0, 100] over a sorted list; linear interpolation."""
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    rank = (p / 100.0) * (len(values) - 1)
    low = int(rank)
    high = min(low + 1, len(values) - 1)
    fraction = rank - low
    return values[low] * (1 - fraction) + values[high] * fraction


@dataclasses.dataclass
class ServeResult:
    """A serving run: per-request records plus cache/leak accounting."""

    records: typing.List[RequestRecord]
    #: Start of :meth:`LLMEngine.serve` -> the last request's settle.
    horizon_ns: float
    prefix_hit_blocks: int
    prefix_miss_blocks: int
    evictions: int
    deferred_evictions: int
    #: key -> live refcount for every still-pinned shared region; an
    #: empty dict is the zero-leak certificate.
    leaked: typing.Dict[typing.Hashable, int]

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.completed)

    @property
    def shed(self) -> int:
        return sum(1 for r in self.records if r.shed)

    @property
    def hit_rate(self) -> float:
        """Fraction of prompt blocks served from the prefix cache."""
        total = self.prefix_hit_blocks + self.prefix_miss_blocks
        return self.prefix_hit_blocks / total if total else 0.0

    @property
    def kv_bytes_moved(self) -> float:
        """Total bytes the P->D handovers physically copied."""
        return sum(r.kv_bytes_moved for r in self.records)

    def throughput_per_s(self, horizon_ns: typing.Optional[float] = None) -> float:
        """Completed requests per second of simulated horizon."""
        horizon = self.horizon_ns if horizon_ns is None else horizon_ns
        if horizon <= 0:
            return 0.0
        return self.completed / (horizon / 1e9)

    def e2e_ns(self) -> typing.List[float]:
        """Sorted arrival -> last-token latencies of completed requests."""
        return sorted(r.e2e_ns for r in self.records if r.completed)

    def ttft_ns(self) -> typing.List[float]:
        """Sorted time-to-first-token latencies."""
        return sorted(
            r.ttft_ns for r in self.records
            if r.completed and r.ttft_ns is not None
        )

    def stall_ns(self) -> typing.List[float]:
        """Sorted P->D transfer stalls."""
        return sorted(
            r.transfer_stall_ns for r in self.records
            if r.completed and r.transfer_stall_ns is not None
        )

    def decode_ns(self) -> typing.List[float]:
        """Sorted interactive decode latencies (ready -> last token)."""
        return sorted(
            r.decode_ns for r in self.records
            if r.completed and r.decode_ns is not None
        )

    def percentile(self, values: typing.List[float], p: float) -> float:
        """p-th percentile of a sorted latency list from this result."""
        return _percentile(values, p)

    def tenant_records(self, tenant: str) -> typing.List[RequestRecord]:
        """The records submitted by one tenant."""
        return [r for r in self.records if r.request.tenant == tenant]


class LLMEngine:
    """Disaggregated prefill/decode serving with KV prefix reuse."""

    #: Ownership token under which the engine holds cached KV blocks.
    CACHE_OWNER = "llm-prefix-cache"

    def __init__(
        self,
        session: Session,
        *,
        disaggregate: bool = True,
        prefix_caching: bool = True,
        prefix_capacity_blocks: typing.Optional[int] = 512,
        kv_bytes_per_token: int = 2 * KiB,
        weight_bytes: int = 4 * MiB,
        ops_per_token: float = 4_000.0,
    ):
        if kv_bytes_per_token < 1 or weight_bytes < 1 or ops_per_token <= 0:
            raise ValueError("invalid model-cost parameters")
        if prefix_capacity_blocks is not None and prefix_capacity_blocks < 1:
            raise ValueError("prefix_capacity_blocks must be >= 1 or None")
        if not isinstance(session, Session):
            raise TypeError(
                "LLMEngine needs a Session from repro.api.connect(...), "
                f"got {type(session).__name__}"
            )
        self.session = session
        self.rts = session.rts
        self.disaggregate = disaggregate
        self.prefix_caching = prefix_caching
        self.prefix_capacity_blocks = prefix_capacity_blocks
        self.kv_bytes_per_token = kv_bytes_per_token
        self.weight_bytes = weight_bytes
        self.ops_per_token = ops_per_token
        self.cache = SharedRegionCache(self.rts.memory, self.CACHE_OWNER)
        self.trie = PrefixTrie()
        #: Blocks that could not be cached because no device had room.
        self.placement_rejections = 0

    # -- prefix-cache plumbing --------------------------------------------

    def _telemetry(self):
        cluster = self.rts.cluster
        obs = getattr(cluster, "obs", None)
        return getattr(obs, "telemetry", None)

    def _observers(self) -> typing.Tuple[str, ...]:
        """Devices that read cached KV blocks: the decode pool if the
        cluster defines one, else every accelerator, else everything."""
        cluster = self.rts.cluster
        pool = cluster.device_pools.get(DECODE_POOL)
        if pool:
            return tuple(pool)
        accels = tuple(sorted(
            name for name, dev in cluster.compute.items()
            if dev.kind.value != "cpu"
        ))
        return accels or tuple(sorted(cluster.compute))

    def _materialize(self, req: LLMRequest, record: RequestRecord,
                     acquired: typing.List[tuple]):
        """Build one request's job at admission time.

        The trie lookup and the reference acquisitions happen *here* —
        when the job actually starts — so the covered blocks are pinned
        for exactly the job's lifetime, not the queue wait.
        """
        engine = self.rts.cluster.engine
        hit = 0
        if self.prefix_caching and req.blocks:
            hit = self.trie.longest_cached(req.blocks)
            for depth in range(1, hit + 1):
                key = tuple(req.blocks[:depth])
                try:
                    self.cache.acquire(key, req.name, now=engine.now)
                except (KeyError, SharedRegionError):
                    hit = depth - 1
                    break
                acquired.append(key)
        record.hit_blocks = hit
        record.cached_tokens = min(hit * req.block_tokens, req.prompt_tokens)
        telem = self._telemetry()
        if telem is not None:
            telem.add("llm.prefix_hit_blocks", engine.now, float(hit))
            telem.add("llm.prefix_miss_blocks", engine.now,
                      float(len(req.blocks) - hit))
        return build_request_job(
            req.prompt_tokens, req.output_tokens,
            cached_prefix_tokens=record.cached_tokens,
            kv_bytes_per_token=self.kv_bytes_per_token,
            weight_bytes=self.weight_bytes,
            ops_per_token=self.ops_per_token,
            disaggregate=self.disaggregate,
            name=req.name,
        )

    def _insert_blocks(self, req: LLMRequest, from_depth: int) -> None:
        """Adopt the request's uncached prefix blocks into the cache."""
        observers = self._observers()
        block_bytes = max(64, req.block_tokens * self.kv_bytes_per_token)
        for depth in range(from_depth + 1, len(req.blocks) + 1):
            key = tuple(req.blocks[:depth])
            if key in self.cache:
                self.trie.insert(key)
                continue
            try:
                region = self.rts.placement.place(PlacementRequest(
                    size=block_bytes,
                    properties=region_properties(RegionType.GLOBAL_SCRATCH),
                    owner=self.cache.owner,
                    observers=observers,
                    name="kv/" + "/".join(key),
                    region_type=RegionType.GLOBAL_SCRATCH,
                ))
            except PlacementError:
                self.placement_rejections += 1
                return  # no room for deeper blocks either
            self.cache.insert(key, region)
            self.trie.insert(key)
            self._evict_over_capacity()

    def _evict_over_capacity(self) -> None:
        """LRU-evict unpinned blocks past ``prefix_capacity_blocks``."""
        cap = self.prefix_capacity_blocks
        if cap is None:
            return
        while len(self.cache) > cap:
            victims = [
                e for e in map(self.cache.get, self.cache.keys())
                if e is not None and not e.pinned
            ]
            if not victims:
                return  # everything is pinned; retry on a later insert
            victim = min(victims, key=lambda e: e.last_used_at)
            self.trie.remove(victim.key)
            self.cache.forget(victim.key)

    def _settle(self, record: RequestRecord,
                acquired: typing.List[tuple], admitted) -> None:
        """Release the request's refs and harvest its telemetry."""
        engine = self.rts.cluster.engine
        for key in acquired:
            self.cache.release(key, record.request.name)
        acquired.clear()
        record.shed = admitted.shed
        if record.shed:
            return
        execution = admitted.execution
        stats = execution.stats if execution is not None else None
        if stats is None or not stats.ok:
            record.failed = True
            record.finished_at = engine.now
            return
        record.finished_at = engine.now
        record.kv_bytes_moved = stats.bytes_copied
        prefill = stats.tasks.get("prefill")
        decode = stats.tasks.get("decode")
        telem = self._telemetry()
        if prefill is not None and prefill.finished_at is not None:
            record.ttft_ns = prefill.finished_at - record.arrived_at
            if decode is not None and decode.ready_at is not None:
                record.transfer_stall_ns = max(
                    0.0, decode.ready_at - prefill.finished_at
                )
                if decode.finished_at is not None:
                    record.decode_ns = decode.finished_at - decode.ready_at
        if telem is not None:
            telem.add("llm.kv_bytes_moved", engine.now, stats.bytes_copied)
            if record.ttft_ns is not None:
                telem.record("llm.ttft_ns", engine.now, record.ttft_ns)
            if record.transfer_stall_ns is not None:
                telem.record("llm.transfer_stall_ns", engine.now,
                             record.transfer_stall_ns)
            if record.decode_ns is not None:
                telem.record("llm.decode_ns", engine.now, record.decode_ns)
        if self.prefix_caching and record.request.blocks:
            self._insert_blocks(record.request, record.hit_blocks)

    # -- serving ------------------------------------------------------------

    def serve(
        self,
        requests: typing.Sequence[LLMRequest],
        *,
        mode: str = "open",
        concurrency: int = 8,
    ) -> ServeResult:
        """Serve a request stream to completion; returns the records.

        ``mode="open"`` replays the trace's arrival timestamps (load is
        independent of completions — the tail-latency-honest setup);
        ``mode="closed"`` ignores them and keeps ``concurrency``
        requests in flight.  Requests go through the session's QoS
        admission under their own tenants.
        """
        if mode not in ("open", "closed"):
            raise ValueError(f"unknown serve mode {mode!r}")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if not requests:
            raise ValueError("need at least one request")
        engine = self.rts.cluster.engine
        ordered = sorted(requests, key=lambda r: (r.arrival_ns, r.index))
        records: typing.List[RequestRecord] = []
        state = {"settled": 0, "dispatched": 0}
        all_settled = engine.event()
        telem = self._telemetry()
        if telem is not None:
            telem.watch("llm.prefix_pinned_bytes",
                        self.cache.pinned_bytes, kind="level")
        start_hits = self.cache.hits
        start_ns = engine.now

        def dispatch(req: LLMRequest):
            record = RequestRecord(request=req, arrived_at=engine.now)
            records.append(record)
            state["dispatched"] += 1
            acquired: typing.List[tuple] = []
            admitted = self.session.driver.submit_job(
                req.name,
                lambda: self._materialize(req, record, acquired),
                tenant=req.tenant,
            )
            admitted.settled.add_callback(
                lambda event: finish(record, acquired, admitted)
            )

        def finish(record, acquired, admitted):
            self._settle(record, acquired, admitted)
            state["settled"] += 1
            if state["settled"] == len(ordered):
                all_settled.succeed()
            feed()

        pending = collections.deque(ordered)

        def feed():
            # Closed loop: each completion pulls the next request in.
            if mode != "closed":
                return
            if pending and state["dispatched"] - state["settled"] < concurrency:
                dispatch(pending.popleft())

        def open_source():
            while pending:
                req = pending[0]
                if req.arrival_ns > engine.now:
                    yield engine.timeout(req.arrival_ns - engine.now)
                dispatch(pending.popleft())

        if mode == "open":
            engine.process(open_source(), name="llm-arrivals")
        else:
            # Closed loop: prime the pipeline; feed() refills it.
            while pending and state["dispatched"] - state["settled"] < concurrency:
                dispatch(pending.popleft())

        interval = self.session.driver.sample_interval_ns
        sampler = None
        if telem is not None:
            sampler = engine.process(
                telem.pump(engine, interval), name="llm-sampler"
            )
        # Run until the last request settles; the sampler alone must
        # not keep the run alive (mirrors RackDriver).
        engine.run(until=all_settled)
        horizon_ns = engine.now - start_ns
        if sampler is not None:
            sampler.kill()
        engine.run()
        if telem is not None:
            telem.poll(engine.now)
        return ServeResult(
            records=records,
            horizon_ns=horizon_ns,
            prefix_hit_blocks=self.cache.hits - start_hits,
            prefix_miss_blocks=sum(
                len(r.request.blocks) - r.hit_blocks for r in records
            ),
            evictions=self.cache.evictions,
            deferred_evictions=self.cache.deferred_evictions,
            leaked=self.cache.outstanding(),
        )

    # -- lifecycle ----------------------------------------------------------

    def audit(self) -> typing.Dict[typing.Hashable, int]:
        """Live reader refcounts per pinned block; empty == leak-free."""
        return self.cache.outstanding()

    def shutdown(self) -> int:
        """Drain the prefix cache; returns blocks freed immediately.

        Still-pinned blocks free on their readers' final release;
        :meth:`audit` reports any that never do (a refcount leak).
        """
        freed = self.cache.drain()
        self.trie = PrefixTrie()
        return freed


__all__ = ["LLMEngine", "RequestRecord", "ServeResult"]
