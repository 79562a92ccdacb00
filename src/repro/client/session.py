"""Chunk pushing: the shared data path under every write protocol.

The :class:`ChunkPusher` turns a byte stream into chunks, decides which
benefactor receives each chunk (round-robin over the session's stripe),
enforces the write semantics (pessimistic writes push every replica before
returning, optimistic writes push one copy and leave the rest to background
replication), skips chunks that incremental checkpointing proves are already
stored, handles benefactor failures by refreshing the stripe through the
manager, and accumulates the chunk-map that will be committed at close time.

Batching (section IV.B moves data in ~1 MB transfer units): chunks that
must be pushed collect in a pending batch until its payload reaches
``min(1 MiB, window_buffer_size)`` (or the session finishes).  The batch
then splits by round-robin slot into one *group* per benefactor, and each
group travels as one RPC: ``put_chunks`` for several chunks, plain
``put_chunk`` for a group of one, so 1 MiB chunks still go one per call.
A chunk repeated inside the batch is pushed once and takes the holders of
the pending push.

Pipelining: with ``push_parallelism > 1`` the groups are the items of a
thread pool, each capped at ``effective_inflight_window // push_parallelism``
chunks, and a bounded window admits at most ``max_inflight_chunks`` chunks
in flight, so chunk production (spooling, hashing) overlaps propagation and
every worker has a group to push.  ``feed`` blocks only when the window is
full.  Client memory is bounded by the pending batch plus the in-flight
window (serially: the batch plus one chunk).  With the default
``push_parallelism == 1`` every group is pushed synchronously, one RPC at a
time.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.chunk import Chunk, ChunkRef, content_chunk_id, opaque_chunk_id
from repro.core.chunk_map import ChunkMap
from repro.exceptions import (
    BenefactorOfflineError,
    ChunkIntegrityError,
    EndpointUnreachableError,
    StdchkError,
    StoreFullError,
    WriteFailedError,
)
from repro.obs import MetricsRegistry, tracing
from repro.transport.base import Transport
from repro.util.config import SimilarityHeuristic, StdchkConfig, WriteSemantics
from repro.util.units import MiB

#: Payload bytes a pending batch collects before it is pushed (the paper's
#: ~1 MB transfer unit); ``window_buffer_size`` caps it further.
PUSH_BATCH_BYTES = 1 * MiB


@dataclass
class WriteStats:
    """Per-session accounting used by benchmarks (network effort, dedup)."""

    bytes_written: int = 0
    bytes_pushed: int = 0
    bytes_deduplicated: int = 0
    chunks_pushed: int = 0
    chunks_deduplicated: int = 0
    push_failures: int = 0
    stripe_refreshes: int = 0
    ack_batches: int = 0
    #: ``put_chunk``/``put_chunks`` RPCs issued, failed attempts included.
    push_rpcs: int = 0

    @property
    def network_effort(self) -> int:
        """Bytes actually sent to benefactors (replicas included)."""
        return self.bytes_pushed

    @property
    def dedup_ratio(self) -> float:
        """Fraction of written bytes that never had to be pushed."""
        if self.bytes_written == 0:
            return 0.0
        return self.bytes_deduplicated / self.bytes_written


@dataclass
class _PendingChunk:
    """A chunk awaiting its push, with the later copies of it in its batch."""

    chunk: Chunk
    ref: ChunkRef
    index: int
    #: ``(index, ref)`` of repeats that take this push's holders.
    repeats: List[Tuple[int, ChunkRef]] = field(default_factory=list)


class ChunkPusher:
    """Pushes chunks of one write session to its stripe of benefactors."""

    def __init__(
        self,
        transport: Transport,
        manager_address: str,
        session_info: Dict[str, object],
        config: StdchkConfig,
        existing_chunks: Optional[Dict[str, List[str]]] = None,
        max_stripe_refreshes: int = 3,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.transport = transport
        self.manager_address = manager_address
        self.session_id: str = session_info["session_id"]  # type: ignore[assignment]
        self.dataset_id: str = session_info["dataset_id"]  # type: ignore[assignment]
        self.version: int = session_info["version"]  # type: ignore[assignment]
        self.chunk_size: int = session_info.get("chunk_size", config.chunk_size)  # type: ignore[assignment]
        self.replication_level: int = session_info.get(  # type: ignore[assignment]
            "replication_level", config.replication_level
        )
        self.config = config
        self.max_stripe_refreshes = max_stripe_refreshes

        self._stripe: List[Dict[str, str]] = list(session_info["stripe"])  # type: ignore[arg-type]
        self._stripe_generation = 0
        self._content_addressed = config.similarity_heuristic is not SimilarityHeuristic.NONE
        #: chunk id -> benefactors known to hold it (previous version + this session).
        self._known_chunks: Dict[str, List[str]] = dict(existing_chunks or {})
        self.chunk_map = ChunkMap()
        self.stats = WriteStats()
        self._next_chunk_index = 0
        self._next_offset = 0
        self._pending = bytearray()
        #: Chunks awaiting their push, in index order, and their ids.
        self._batch: List[_PendingChunk] = []
        self._batch_ids: Dict[str, _PendingChunk] = {}
        self._batch_bytes = 0
        self._batch_limit = min(PUSH_BATCH_BYTES, config.window_buffer_size)

        #: Guards stripe, stats, known chunks, results and the ack buffer.
        self._lock = threading.Lock()
        #: Serializes stripe refreshes so concurrent workers that observed
        #: the same dead stripe trigger exactly one extend_stripe RPC.
        self._refresh_lock = threading.Lock()
        #: index -> (ref, holders); the chunk-map is assembled at finish time
        #: so out-of-order parallel completions cannot scramble it.
        self._results: Dict[int, Tuple[ChunkRef, List[str]]] = {}
        self._failure: Optional[BaseException] = None
        self._ack_buffer: List[Dict[str, object]] = []

        #: Trace context active when the session opened; push workers do not
        #: inherit thread-local state, so they re-activate it explicitly and
        #: their RPC spans stay inside the write's trace.
        self._trace_ctx = tracing.current_context()
        if metrics is not None:
            self._push_timer = metrics.histogram(
                "client_push_chunk_seconds",
                "Latency of one chunk-group push incl. replication and retries.",
            )
            self._push_window = metrics.windowed_histogram(
                "client_push_chunk_seconds_window",
                "Recent (sliding-window) chunk-group push latency.",
            )
        else:
            self._push_timer = None
            self._push_window = None

        self.parallelism = max(1, config.push_parallelism)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._window: Optional[threading.BoundedSemaphore] = None
        self._futures: List[Future] = []
        #: Most chunks one parallel group carries; serially groups are whole.
        self._group_cap: Optional[int] = None
        if self.parallelism > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=self.parallelism,
                thread_name_prefix=f"push-{self.session_id}",
            )
            window = config.effective_inflight_window
            self._window = threading.BoundedSemaphore(window)
            self._group_cap = max(1, window // self.parallelism)

    # -- public stream interface ---------------------------------------------
    @property
    def bytes_buffered(self) -> int:
        return len(self._pending)

    @property
    def total_size(self) -> int:
        """Logical bytes accepted so far (buffered + pushed)."""
        return self.stats.bytes_written

    def feed(self, data: bytes, flush: bool = False) -> None:
        """Accept application bytes; queue every complete chunk for pushing.

        With no partial chunk buffered, whole chunks are sliced straight
        from ``data`` (one copy each) and only the tail is buffered, so a
        whole image handed over at once is never copied in full.  ``flush``
        forces the trailing partial chunk and the pending batch out and
        waits for every push in flight.
        """
        self.stats.bytes_written += len(data)
        if self._pending:
            # Top up the buffered partial chunk.
            self._pending.extend(data)
            while len(self._pending) >= self.chunk_size:
                payload = bytes(self._pending[: self.chunk_size])
                del self._pending[: self.chunk_size]
                self._emit(payload)
        else:
            view = memoryview(data)
            whole = len(view) - len(view) % self.chunk_size
            for start in range(0, whole, self.chunk_size):
                self._emit(bytes(view[start:start + self.chunk_size]))
            self._pending.extend(view[whole:])
        if flush:
            self._emit_pending()
            self._flush_batch()
            self._settle()
            self._raise_if_failed()

    def finish(self) -> ChunkMap:
        """Flush the trailing chunk, wait for all in-flight pushes, and
        return the completed chunk-map (ordered by file offset)."""
        self._emit_pending()
        self._flush_batch()
        self._drain()
        self._flush_acks()
        self._raise_if_failed()
        self.chunk_map = ChunkMap()
        for index in sorted(self._results):
            ref, holders = self._results[index]
            self.chunk_map.append(ref, benefactors=holders)
        return self.chunk_map

    def cancel(self) -> None:
        """Abandon in-flight pushes (session abort path)."""
        self._batch, self._batch_ids, self._batch_bytes = [], {}, 0
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # -- chunk emission ------------------------------------------------------
    def _emit_pending(self) -> None:
        if self._pending:
            payload = bytes(self._pending)
            self._pending.clear()
            self._emit(payload)

    def _emit(self, payload: bytes) -> None:
        if self._content_addressed:
            chunk = Chunk(chunk_id=content_chunk_id(payload), data=payload)
        else:
            chunk = Chunk(
                chunk_id=opaque_chunk_id(self.dataset_id, self.version, self._next_chunk_index),
                data=payload,
            )
        index = self._next_chunk_index
        ref = ChunkRef(
            chunk_id=chunk.chunk_id, offset=self._next_offset, length=len(payload)
        )
        self._next_chunk_index += 1
        self._next_offset += len(payload)

        if self._content_addressed:
            pending = self._batch_ids.get(chunk.chunk_id)
            with self._lock:
                known = self._known_chunks.get(chunk.chunk_id)
                if known or pending is not None:
                    # Incremental checkpointing: the chunk content already
                    # lives in the pool (or is about to); reference it
                    # copy-on-write instead of pushing again.
                    if known:
                        self._results[index] = (ref, list(known))
                    else:
                        pending.repeats.append((index, ref))
                    self.stats.bytes_deduplicated += len(payload)
                    self.stats.chunks_deduplicated += 1
                    return

        entry = _PendingChunk(chunk=chunk, ref=ref, index=index)
        self._batch.append(entry)
        if self._content_addressed:
            self._batch_ids[chunk.chunk_id] = entry
        self._batch_bytes += len(payload)
        if self._batch_bytes >= self._batch_limit:
            self._flush_batch()

    def _flush_batch(self) -> None:
        """Push the pending batch: one group per round-robin slot."""
        batch = self._batch
        if not batch:
            return
        self._batch, self._batch_ids, self._batch_bytes = [], {}, 0
        with self._lock:
            width = len(self._stripe)
        groups: Dict[int, List[_PendingChunk]] = {}
        for entry in batch:
            groups.setdefault(entry.index % width, []).append(entry)
        for slot, group in groups.items():
            cap = self._group_cap or len(group)
            for start in range(0, len(group), cap):
                part = group[start:start + cap]
                if self._executor is None:
                    self._push_task(part, slot)
                    self._raise_if_failed()
                else:
                    self._submit(part, slot)

    def _submit(self, group: List[_PendingChunk], slot: int) -> None:
        self._raise_if_failed()
        assert self._window is not None
        for _ in group:
            self._window.acquire()
        with self._lock:
            failed = self._failure is not None
        if failed:
            self._window.release(len(group))
            self._raise_if_failed()
        self._futures.append(self._executor.submit(self._guarded_push, group, slot))

    def _guarded_push(self, group: List[_PendingChunk], slot: int) -> None:
        try:
            self._push_task(group, slot)
        finally:
            assert self._window is not None
            self._window.release(len(group))

    def _push_task(self, group: List[_PendingChunk], slot: int) -> None:
        """Push one group and record its placements (worker entry point)."""
        with tracing.use_context(self._trace_ctx):
            if self._push_timer is None:
                self._run_push(group, slot)
                return
            started = time.perf_counter()
            try:
                self._run_push(group, slot)
            finally:
                elapsed = time.perf_counter() - started
                self._push_timer.observe(elapsed)
                self._push_window.observe(elapsed)

    def _run_push(self, group: List[_PendingChunk], slot: int) -> None:
        try:
            holders = self._push_with_replication([e.chunk for e in group], slot)
        except BaseException as exc:  # noqa: BLE001 - surfaced via _raise_if_failed
            with self._lock:
                if self._failure is None:
                    self._failure = exc
            return
        with self._lock:
            for entry in group:
                placed = holders[entry.chunk.chunk_id]
                self._results[entry.index] = (entry.ref, placed)
                for index, ref in entry.repeats:
                    self._results[index] = (ref, list(placed))
                if self._content_addressed:
                    self._known_chunks.setdefault(entry.chunk.chunk_id, list(placed))
        for entry in group:
            self._queue_ack(entry.ref, holders[entry.chunk.chunk_id])

    def _settle(self) -> None:
        """Wait for every submitted push to finish."""
        for future in self._futures:
            try:
                future.result()
            except BaseException as exc:  # noqa: BLE001 - cancelled futures
                with self._lock:
                    if self._failure is None:
                        self._failure = exc
        self._futures.clear()

    def _drain(self) -> None:
        """Wait for every submitted push to settle and retire the executor."""
        self._settle()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _raise_if_failed(self) -> None:
        with self._lock:
            failure = self._failure
        if failure is not None:
            raise failure

    # -- manager ack batching -----------------------------------------------
    def _queue_ack(self, ref: ChunkRef, holders: Sequence[str]) -> None:
        """Batch successful placements into ``put_chunks_ack`` transactions.

        Per-chunk acknowledgements would add one manager transaction per
        chunk; batching keeps the transaction count at ``chunks / batch``.
        Disabled (the default) the data path generates no manager traffic at
        all, preserving the paper's four-transactions-per-write profile.
        """
        if self.config.ack_batch_size <= 0:
            return
        with self._lock:
            self._ack_buffer.append(
                {
                    "chunk_id": ref.chunk_id,
                    "offset": ref.offset,
                    "length": ref.length,
                    "benefactors": list(holders),
                }
            )
            if len(self._ack_buffer) < self.config.ack_batch_size:
                return
            batch, self._ack_buffer = self._ack_buffer, []
        self._send_ack(batch)

    def _flush_acks(self) -> None:
        with self._lock:
            batch, self._ack_buffer = self._ack_buffer, []
        if batch:
            self._send_ack(batch)

    def _send_ack(self, batch: List[Dict[str, object]]) -> None:
        try:
            self.transport.call(
                self.manager_address,
                "put_chunks_ack",
                session_id=self.session_id,
                placements=batch,
            )
        except StdchkError:
            # Acks are advisory (early GC protection / failure recovery);
            # the commit at close time remains the source of truth.
            return
        with self._lock:
            self.stats.ack_batches += 1

    # -- pushing & failure handling ----------------------------------------------
    def _refresh_stripe(self, seen_generation: int) -> None:
        """Fetch a fresh stripe from the manager, once per failed generation.

        Concurrent workers that observed the same dead stripe coordinate via
        the generation counter: only the first one performs the refresh RPC,
        the rest simply retry against the already-refreshed stripe.
        """
        with self._refresh_lock:
            # Late workers queue behind the refresh in flight; by the time
            # they get here the generation has advanced and they just retry
            # against the already-refreshed stripe.
            with self._lock:
                if self._stripe_generation != seen_generation:
                    return
                if self.stats.stripe_refreshes >= self.max_stripe_refreshes:
                    raise WriteFailedError(
                        f"write session {self.session_id} exhausted stripe refreshes"
                    )
                self.stats.stripe_refreshes += 1
            answer = self.transport.call(
                self.manager_address, "extend_stripe", session_id=self.session_id
            )
            stripe = list(answer["stripe"])
            if not stripe:
                raise WriteFailedError("manager returned an empty stripe")
            with self._lock:
                self._stripe = stripe
                self._stripe_generation += 1

    def _report_failure(self, benefactor_id: str) -> None:
        try:
            self.transport.call(
                self.manager_address,
                "report_benefactor_failure",
                benefactor_id=benefactor_id,
            )
        except StdchkError:
            pass

    def _stripe_snapshot(self) -> Tuple[List[Dict[str, str]], int]:
        with self._lock:
            return list(self._stripe), self._stripe_generation

    def _send(self, address: str, chunks: Sequence[Chunk]) -> int:
        """One push RPC; returns how many of ``chunks`` (a prefix) were stored.

        A group of one goes as ``put_chunk``, larger groups as
        ``put_chunks``.  A batch that stopped on a full store reports the
        stored prefix (the remainder may try another benefactor); a batch
        that failed its integrity check raises, as ``put_chunk`` does.
        """
        with self._lock:
            self.stats.push_rpcs += 1
        if len(chunks) == 1:
            chunk = chunks[0]
            self.transport.call(address, "put_chunk",
                                chunk_id=chunk.chunk_id, data=chunk.data)
            return 1
        answer = self.transport.call(
            address, "put_chunks",
            chunks=[{"chunk_id": c.chunk_id, "data": c.data} for c in chunks],
        )
        failed_at = answer["failed_at"]
        if failed_at is None:
            return len(chunks)
        error = answer.get("error")
        if error == StoreFullError.__name__:
            return len(answer["stored"])
        if error == ChunkIntegrityError.__name__:
            raise ChunkIntegrityError(
                f"chunk {failed_at} failed integrity check at {address}"
            )
        raise WriteFailedError(
            f"put_chunks to {address} stopped at chunk {failed_at}: {error}"
        )

    def _push_once(self, chunks: Sequence[Chunk], start_slot: int,
                   holders: Dict[str, List[str]]) -> Tuple[List[Chunk], int]:
        """Push one more copy of each of ``chunks``, rotating through the stripe.

        Each benefactor gets the chunks it does not hold yet in one RPC; an
        unreachable, offline or full one is reported and what it did not
        store moves on to the next slot.  Returns the chunks every candidate
        failed (the caller then refreshes the stripe) together with the
        stripe generation the attempt ran against.
        """
        stripe, generation = self._stripe_snapshot()
        remaining = list(chunks)
        for probe in range(len(stripe)):
            entry = stripe[(start_slot + probe) % len(stripe)]
            target = entry["benefactor_id"]
            eligible = [c for c in remaining if target not in holders[c.chunk_id]]
            if not eligible:
                continue
            try:
                stored = self._send(entry["address"], eligible)
            except (EndpointUnreachableError, BenefactorOfflineError, StoreFullError):
                stored = 0
            if stored < len(eligible):
                with self._lock:
                    self.stats.push_failures += 1
                self._report_failure(target)
            if stored == 0:
                continue
            placed = eligible[:stored]
            for chunk in placed:
                holders[chunk.chunk_id].append(target)
            with self._lock:
                self.stats.bytes_pushed += sum(chunk.size for chunk in placed)
                self.stats.chunks_pushed += stored
            placed_ids = {chunk.chunk_id for chunk in placed}
            remaining = [c for c in remaining if c.chunk_id not in placed_ids]
            if not remaining:
                break
        return remaining, generation

    def _push_with_replication(self, chunks: Sequence[Chunk],
                               slot: int) -> Dict[str, List[str]]:
        """Push ``chunks`` according to the configured write semantics.

        Replica *k* of every chunk goes to ``slot + k`` (rotating on
        failure).  Returns ``chunk id -> holders``.
        """
        copies_needed = (
            self.replication_level
            if self.config.write_semantics is WriteSemantics.PESSIMISTIC
            else 1
        )
        holders: Dict[str, List[str]] = {chunk.chunk_id: [] for chunk in chunks}
        for copy in range(copies_needed):
            remaining = list(chunks)
            while remaining:
                remaining, generation = self._push_once(remaining, slot + copy, holders)
                if remaining:
                    self._refresh_stripe(generation)
            with self._lock:
                stripe_width = len(self._stripe)
            # Narrow pools cannot hold more distinct replicas than nodes.
            chunks = [c for c in chunks if len(set(holders[c.chunk_id])) < stripe_width]
        return holders
