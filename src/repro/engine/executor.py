"""Chunked fan-out of batch queries over one index.

The many-pattern setting is the one the paper (and the related
k-mismatch literature) argues matters in practice: a fixed target, a
stream of reads.  :class:`BatchExecutor` runs a read batch

* **serially** through the index's *cached* engine, so Algorithm A's
  persistent pair memo carries range derivations from one read to the
  next;
* on a **process pool**, placing the zero-copy binary index blob
  (:mod:`repro.io.binfmt`) in :mod:`multiprocessing.shared_memory` once
  and letting every worker re-hydrate from it in O(header) — true CPU
  parallelism without per-worker deserialization cost.  Indexes the
  binary format cannot hold (non-rankall rank backends) fall back to the
  JSON payload, still shipped through the one shared segment.

``workers`` is an upper bound.  A batch of ``n`` items runs on
``min(workers, usable CPUs, n // MIN_ITEMS_PER_WORKER)`` pool workers
when that is at least 2, and serially otherwise (:func:`pool_size`).
The choice depends only on those three numbers, never on timing, so
the same batch always takes the same path.

Workers resolve engines through their own copy of the registry.
Under a ``spawn`` start method they see only engines registered at
import time; an engine registered at runtime in the parent reaches
them only under ``fork`` (the Linux default).

Process workers pull ``(chunk_id, chunk)`` tasks from a shared queue
(dynamic scheduling: a worker that finishes early takes the next chunk
instead of idling behind a static partition).  Results are always
returned in input order regardless of scheduling, and per-chunk
:class:`~repro.core.types.SearchStats` are merged in chunk order, so
parallel runs are byte-identical to sequential ones.
"""

from __future__ import annotations

import gc as _gc
import multiprocessing as _mp
import os as _os
import queue as _queue
import threading
import traceback as _traceback
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.types import Occurrence, SearchStats
from ..errors import PatternError, SerializationError
from ..obs import (
    OBS,
    PROFILER,
    READINESS,
    WORKER_STALLED_METRIC,
    ObsDelta,
    count_query_error,
    merge_obs_delta,
    new_trace_id,
    record_query_error,
)
from .arena import DEFAULT_ARENA_BYTES, RECORD_HEADER, ArenaWriter, decode_chunk, region_bounds

#: Default stuck-pool deadline in seconds (env ``REPRO_WORKER_STALL_S``):
#: a process batch with no chunk completion for this long is declared
#: stalled by the watchdog.
DEFAULT_STALL_TIMEOUT_S = float(_os.environ.get("REPRO_WORKER_STALL_S", "30"))

#: Counter bumped every time the collect loop's queue poll times out
#: without a message — a cheap liveness signal for slow hosts where the
#: poll cadence matters relative to the watchdog deadline.
POLL_TIMEOUTS_METRIC = "engine.worker.poll_timeouts"


class _WorkerWatchdog(threading.Thread):
    """Declares a process pool stuck when no chunk completes in time.

    The collect loop calls :meth:`progress` on every message it drains;
    this daemon thread watches that heartbeat and, once it goes quiet
    past the deadline, fires exactly once: bumps
    ``engine.worker.stalled`` (with the batch's ``{engine,k,shard}``
    labels) and flips the ``workers`` readiness component so ``/readyz``
    answers 503.  Dead workers are caught separately (the collect loop
    sees their exit codes); the watchdog is for the *live-but-stuck*
    case — a worker wedged in a pathological query or a lost queue
    message — which previously hung the batch silently forever.
    """

    def __init__(self, deadline_s: float, labels: Dict[str, object]):
        super().__init__(name="repro-batch-watchdog", daemon=True)
        self.deadline_s = deadline_s
        self.labels = labels
        self.stalled = False
        self._stop_event = threading.Event()
        self._last_progress = monotonic()

    def progress(self) -> None:
        """Heartbeat: a queue message arrived, the pool is alive."""
        self._last_progress = monotonic()

    def stop(self) -> None:
        self._stop_event.set()

    def run(self) -> None:
        poll_s = min(1.0, max(0.05, self.deadline_s / 4))
        while not self._stop_event.wait(poll_s):
            if monotonic() - self._last_progress >= self.deadline_s:
                self.stalled = True
                OBS.count(WORKER_STALLED_METRIC)
                OBS.count(WORKER_STALLED_METRIC, **self.labels)
                READINESS.set_component(
                    "workers", False,
                    f"batch pool stalled: no chunk completed in "
                    f"{self.deadline_s:.1f}s",
                )
                if OBS.enabled:
                    OBS.record_event("worker_stalled", deadline_s=self.deadline_s,
                                     **self.labels)
                return

#: Target number of chunks per worker when no explicit chunk size is given
#: — small enough to balance uneven reads, large enough to amortise the
#: per-chunk engine construction.
_CHUNKS_PER_WORKER = 4

#: Fewest batch items each pool worker must get for the process pool to
#: run at all.  Below it the pool's fixed cost (worker start-up, index
#: hydration, a cold memo per worker, result transfer) outweighs the
#: search time it spreads out, and the batch runs serially.  Taken from
#: the break-even sweep ``benchmarks/bench_batch_throughput.py``
#: ``test_pool_break_even`` (``benchmarks/results/batch_break_even.txt``):
#: on 2 CPUs a 2-worker pool first beat serial on 16-read Rat batches
#: (100 bp, k=4).  High-hit batches lose on the pool at every swept size.
MIN_ITEMS_PER_WORKER = 8


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(_os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return _os.cpu_count() or 1


def pool_size(workers: int, n_items: int) -> int:
    """Pool workers a batch of ``n_items`` runs on under the ``workers``
    bound; 1 means the serial path.

    >>> pool_size(0, 1000)
    1
    >>> pool_size(2, MIN_ITEMS_PER_WORKER)  # one worker's worth of items
    1
    """
    size = min(workers, usable_cpus(), n_items // MIN_ITEMS_PER_WORKER)
    return size if size >= 2 else 1


@dataclass
class BatchResult:
    """Outcome of one batch run: per-item results plus merged stats."""

    #: One result entry per input item, in input order.
    results: List[object]
    #: Per-chunk stats merged through :meth:`SearchStats.merge`.
    stats: SearchStats
    n_chunks: int = 1
    workers: int = 1
    mode: str = "serial"
    #: Mode-specific detail (process mode: transfer kind, shm size,
    #: per-worker hydration timings).
    extra: Dict[str, object] = field(default_factory=dict)


class BatchExecutor:
    """Run a batch of queries against one index with optional parallelism.

    Parameters
    ----------
    workers:
        Upper bound on pool workers.  A batch runs on
        :func:`pool_size` workers: ``min(workers, usable CPUs,
        len(items) // MIN_ITEMS_PER_WORKER)``.  Below 2 it runs serially
        (through the index's cached, memo-bearing engine); otherwise it
        fans chunks out over the process pool, which hydrates the index
        per worker from one shared-memory binary blob in O(header) and
        pulls chunks from a dynamic task queue — it pays a process
        startup cost and in exchange escapes the GIL.
    mode:
        ``"process"``, the only pool there is.  Kept so existing
        ``mode="process"`` callers keep working; any other value raises
        :class:`~repro.errors.PatternError`.
    chunk_size:
        Items per chunk; default splits the batch into
        ``workers * 4`` chunks.
    shard:
        When set (by :class:`repro.shard.QueryRouter`), the shard id
        this executor serves — stamped as a ``{shard}`` label on the
        ``engine.worker.*`` telemetry and the ``engine.batch`` span so
        per-shard worker behaviour is separable in the metrics payload.
        Unsharded runs leave it ``None`` and emit the historical series
        unchanged.
    stall_timeout:
        Seconds without any chunk completion before the watchdog
        declares a process pool stuck (default
        :data:`DEFAULT_STALL_TIMEOUT_S`, env ``REPRO_WORKER_STALL_S``).
    arena_bytes:
        Size of the shared-memory result arena process workers pack
        occurrence records into (see :mod:`repro.engine.arena`);
        default :data:`~repro.engine.arena.DEFAULT_ARENA_BYTES`
        (env ``REPRO_ARENA_BYTES``).  ``0`` disables the arena and
        returns every chunk through the pickle queue.
    """

    def __init__(
        self,
        workers: int = 0,
        mode: str = "process",
        chunk_size: Optional[int] = None,
        shard: Optional[int] = None,
        stall_timeout: Optional[float] = None,
        arena_bytes: Optional[int] = None,
    ):
        if mode != "process":
            raise PatternError(
                f"unknown batch mode {mode!r}: thread mode was removed; "
                f"workers > 1 always runs the process pool"
            )
        if chunk_size is not None and chunk_size < 1:
            raise PatternError("chunk_size must be positive")
        if stall_timeout is not None and stall_timeout <= 0:
            raise PatternError("stall_timeout must be positive")
        if arena_bytes is not None and arena_bytes < 0:
            raise PatternError("arena_bytes must be >= 0")
        self.workers = max(0, int(workers))
        self.chunk_size = chunk_size
        self.shard = shard
        self.stall_timeout = (
            stall_timeout if stall_timeout is not None else DEFAULT_STALL_TIMEOUT_S
        )
        self.arena_bytes = (
            int(arena_bytes) if arena_bytes is not None else DEFAULT_ARENA_BYTES
        )

    def _shard_labels(self) -> Dict[str, int]:
        """The ``{shard}`` label dict (empty when serving an unsharded index)."""
        return {} if self.shard is None else {"shard": self.shard}

    # -- public API -----------------------------------------------------------

    def run_search(
        self, index, patterns: Sequence[str], k: int, method: str = "algorithm_a"
    ) -> BatchResult:
        """Search every pattern; ``results[i]`` is pattern ``i``'s occurrence list."""
        return self._run(index, "search", list(patterns), k, method)

    def run_map(
        self, index, reads: Sequence[str], k: int, method: str = "algorithm_a"
    ) -> BatchResult:
        """Strand-aware mapping of every read; ``results[i]`` is a ReadHit list."""
        return self._run(index, "map", list(reads), k, method)

    def search_batch(
        self, index, patterns: Sequence[str], k: int, method: str = "algorithm_a"
    ) -> Tuple[Dict[str, List[Occurrence]], SearchStats]:
        """Dict-shaped search results (the facade's ``search_batch`` contract)."""
        batch = self.run_search(index, patterns, k, method)
        return (
            {pattern: occs for pattern, occs in zip(patterns, batch.results)},
            batch.stats,
        )

    # -- internals ------------------------------------------------------------

    def _run(self, index, kind: str, items: List[str], k: int, method: str) -> BatchResult:
        workers = pool_size(self.workers, len(items))
        parallel = workers > 1
        # One correlation id per batch run, threaded into the result's
        # ``extra`` and the batch's telemetry record — a
        # BatchResult in hand resolves to its telemetry via
        # /debug/queries?trace_id=... like a single query does.
        batch_trace_id = new_trace_id() if OBS.enabled else None
        start = perf_counter()
        with OBS.span(
            "engine.batch",
            kind=kind,
            mode="process" if parallel else "serial",
            workers=workers,
            items=len(items),
            **self._shard_labels(),
        ) as span:
            if not parallel:
                results, stats = _run_chunk(index, kind, items, k, method)
                batch = BatchResult(results, stats, n_chunks=1, workers=1, mode="serial")
            else:
                batch = self._run_parallel(
                    index, kind, items, k, method, workers, batch_trace_id
                )
            span.set(chunks=batch.n_chunks)
        if OBS.enabled:
            from .registry import REGISTRY

            batch.extra["trace_id"] = batch_trace_id
            OBS.metrics.counter("engine.batch.items").inc(len(items))
            OBS.metrics.counter("engine.batch.chunks").inc(batch.n_chunks)
            OBS.metrics.gauge("engine.pool.workers").set(batch.workers)
            OBS.record_event(
                "batch",
                engine=REGISTRY.canonical_name(method),
                k=k,
                duration_ms=(perf_counter() - start) * 1e3,
                occurrences=sum(len(r) for r in batch.results),
                trace_id=batch_trace_id,
                stats=batch.stats.to_dict(),
                return_path=str(batch.extra.get("return_path", "")),
                kind=kind,
                items=len(items),
                chunks=batch.n_chunks,
                workers=batch.workers,
                mode=batch.mode,
            )
        return batch

    def _run_parallel(
        self, index, kind: str, items: List[str], k: int, method: str, workers: int,
        batch_trace_id: Optional[str] = None,
    ) -> BatchResult:
        size = self.chunk_size or max(1, -(-len(items) // (workers * _CHUNKS_PER_WORKER)))
        chunks = [items[i : i + size] for i in range(0, len(items), size)]
        extra: Dict[str, object] = {}
        chunk_results = self._map_process(
            index, kind, chunks, k, method, workers, extra, batch_trace_id
        )
        results: List[object] = []
        stats = SearchStats()
        for chunk_out, chunk_stats in chunk_results:
            results.extend(chunk_out)
            stats.merge(chunk_stats)
        return BatchResult(
            results, stats, n_chunks=len(chunks), workers=workers, mode="process",
            extra=extra,
        )

    def _map_process(self, index, kind, chunks, k, method, workers, extra,
                     batch_trace_id=None):
        from .registry import REGISTRY

        try:
            blob = index.to_binary()
            transfer = "shm-bin"
        except SerializationError:
            blob = index.dumps().encode("utf-8")
            transfer = "shm-json"
        workers = min(workers, len(chunks))
        observe = OBS.enabled
        engine_name = REGISTRY.canonical_name(method)
        watchdog = _WorkerWatchdog(
            self.stall_timeout,
            labels={"engine": engine_name, "k": k, **self._shard_labels()},
        )
        # Mirror the parent's profiler into each worker: the worker samples
        # itself at the same rate and ships its folded stacks back through
        # the per-chunk ObsDelta payload (0.0 = parent is not profiling).
        profile_hz = PROFILER.hz if PROFILER.is_running() else 0.0
        ctx = _mp.get_context()
        from multiprocessing import shared_memory

        # The result arena only pays off when every worker's region can
        # hold at least one record; below that, skip straight to the
        # pickle-queue path rather than spill every single chunk.
        use_arena = self.arena_bytes // workers >= RECORD_HEADER.size
        shm = shared_memory.SharedMemory(create=True, size=max(1, len(blob)))
        arena = (
            shared_memory.SharedMemory(create=True, size=self.arena_bytes)
            if use_arena
            else None
        )
        procs: List[_mp.process.BaseProcess] = []
        try:
            shm.buf[: len(blob)] = blob
            task_q = ctx.Queue()
            result_q = ctx.Queue()
            # Everything is enqueued up front (queues are unbounded), so
            # workers can drain tasks and exit on a sentinel with no
            # further coordination from the parent.
            for chunk_id, chunk in enumerate(chunks):
                task_q.put((chunk_id, chunk))
            for _ in range(workers):
                task_q.put(None)
            for worker_id in range(workers):
                region = (
                    region_bounds(self.arena_bytes, workers, worker_id)
                    if use_arena
                    else (0, 0)
                )
                proc = ctx.Process(
                    target=_pool_worker,
                    args=(
                        worker_id, shm.name, len(blob), transfer, observe,
                        kind, k, method, task_q, result_q, profile_hz,
                        self.shard, arena.name if use_arena else None,
                        region[0], region[1],
                    ),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
            watchdog.start()
            outcomes, hydrations = self._collect(
                result_q, procs, len(chunks), workers, engine_name, k, watchdog
            )
            # Decode arena-path chunks *before* the finally closes the
            # arena segment — records only live as long as the mapping.
            # Workers committed their bytes before publishing the
            # (start, end) span on the result queue, so reads are safe
            # even while workers idle on the sentinel.
            arena_records = 0
            arena_spills = 0
            arena_chunks = 0
            queue_chunks = 0
            decoded: Dict[int, tuple] = {}
            for chunk_id in range(len(chunks)):
                payload, chunk_stats, obs_payload = outcomes[chunk_id]
                if payload[0] == "arena":
                    _, a_start, a_end, n_items, n_records = payload
                    chunk_out = decode_chunk(
                        arena.buf, a_start, a_end, n_items, chunk_id, kind
                    )
                    arena_records += n_records
                    arena_chunks += 1
                else:  # ("queue", out)
                    chunk_out = payload[1]
                    queue_chunks += 1
                    if use_arena:
                        arena_spills += 1
                decoded[chunk_id] = (chunk_out, chunk_stats, obs_payload)
            outcomes = decoded
        finally:
            watchdog.stop()
            if watchdog.is_alive():
                watchdog.join(timeout=2.0)
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                proc.join()
            shm.close()
            shm.unlink()
            if arena is not None:
                arena.close()
                arena.unlink()
        # A batch that drained normally is the recovery signal: clear any
        # stalled/dead verdict a previous batch left on readiness.
        if not watchdog.stalled:
            READINESS.set_component("workers", True, "batch pool completed normally")
        extra["transfer"] = transfer
        extra["shm_nbytes"] = len(blob)
        extra["worker_hydrate_ms"] = sorted(hydrations.values())
        if not use_arena:
            extra["return_path"] = "queue"
        elif queue_chunks == 0:
            extra["return_path"] = "arena"
        elif arena_chunks == 0:
            extra["return_path"] = "queue"
        else:
            extra["return_path"] = "mixed"
        extra["arena_nbytes"] = self.arena_bytes if use_arena else 0
        extra["arena_records"] = arena_records
        extra["arena_spills"] = arena_spills
        if observe:
            OBS.metrics.gauge("engine.shm.nbytes").set(len(blob))
            if use_arena:
                OBS.metrics.gauge("engine.arena.nbytes").set(self.arena_bytes)
                OBS.metrics.counter("engine.arena.records").inc(arena_records)
                if arena_spills:
                    OBS.metrics.counter("engine.arena.spills").inc(arena_spills)
            hist = OBS.metrics.histogram("engine.worker.hydrate_ms")
            shard_labels = self._shard_labels()
            for worker_id, hydrate_ms in sorted(hydrations.items()):
                OBS.metrics.counter("engine.worker.hydrations").inc()
                hist.observe(hydrate_ms)
                # Dimensional series: which worker hydrated how fast, and
                # over which transfer (shm-bin vs the JSON fallback) —
                # worker ids are pool slots (0..workers-1), bounded
                # cardinality by construction.  Routed batches add the
                # shard id so seam-local hydration cost stays separable.
                OBS.metrics.counter(
                    "engine.worker.hydrations", worker=worker_id, transfer=transfer,
                    **shard_labels,
                ).inc()
                OBS.metrics.histogram(
                    "engine.worker.hydrate_ms", worker=worker_id, transfer=transfer,
                    **shard_labels,
                ).observe(hydrate_ms)
        # Fold each worker chunk's telemetry back into this process, in
        # chunk order — `map --workers N` reports the same counter
        # totals a sequential run would.
        results = []
        for chunk_id in range(len(chunks)):
            chunk_out, chunk_stats, obs_payload = outcomes[chunk_id]
            if observe and obs_payload is not None:
                # Tag the worker's shipped records with the batch's
                # correlation id before re-recording them, so
                # /debug/queries?trace_id=<batch> finds every per-query
                # record the batch produced (arena- and queue-returned
                # chunks alike).
                if batch_trace_id:
                    for record in obs_payload.get("records") or []:
                        record.setdefault("batch_trace_id", batch_trace_id)
                merge_obs_delta(OBS, obs_payload)
            results.append((chunk_out, chunk_stats))
        return results

    def _collect(self, result_q, procs, n_chunks, workers, engine, k, watchdog):
        """Drain the result queue: one hydration report per worker plus one
        outcome per chunk, with a liveness check so a crashed worker turns
        into an exception instead of a hang.

        Every drained message is a heartbeat for the stall watchdog.  A
        dead worker is counted as ``query.errors{...,kind="worker"}``
        and flips the ``workers`` readiness component before raising.  A
        shipped chunk failure merges its :class:`~repro.obs.ObsDelta`
        payload first — the worker already classified and counted the
        error, so the labelled ``query.errors`` series reach the parent
        — and the raised ``RuntimeError`` is marked already-counted so
        outer layers (shard router) do not count the same failure twice.
        """
        outcomes: Dict[int, tuple] = {}
        hydrations: Dict[int, float] = {}
        # Poll faster than the watchdog's deadline so the collector
        # always drains a pending message (a heartbeat) before the
        # watchdog can declare the pool stalled — with the historical
        # fixed 1.0s poll, a sub-second REPRO_WORKER_STALL_S (slow-host
        # tuning, tests) could fire the watchdog while a result sat
        # undrained in the queue.
        poll_s = min(1.0, max(0.02, self.stall_timeout / 8.0))
        while len(outcomes) < n_chunks or len(hydrations) < workers:
            try:
                message = result_q.get(timeout=poll_s)
            except _queue.Empty:
                if OBS.enabled:
                    OBS.metrics.counter(POLL_TIMEOUTS_METRIC).inc()
                dead = [p for p in procs if not p.is_alive() and p.exitcode not in (0, None)]
                if dead:
                    count_query_error(engine, k, "worker")
                    READINESS.set_component(
                        "workers", False,
                        f"batch worker died with exit code {dead[0].exitcode}",
                    )
                    error = RuntimeError(
                        f"batch worker died with exit code {dead[0].exitcode} "
                        f"before completing its chunks"
                    )
                    error._repro_error_counted = True
                    raise error
                if all(not p.is_alive() for p in procs):
                    count_query_error(engine, k, "worker")
                    READINESS.set_component(
                        "workers", False, "all batch workers exited with chunks missing"
                    )
                    error = RuntimeError(
                        "all batch workers exited but "
                        f"{n_chunks - len(outcomes)} chunk results are missing"
                    )
                    error._repro_error_counted = True
                    raise error
                continue
            watchdog.progress()
            tag = message[0]
            if tag == "hydrated":
                _, worker_id, hydrate_ms = message
                hydrations[worker_id] = hydrate_ms
            elif tag == "ok":
                _, chunk_id, out, stats, obs_payload = message
                outcomes[chunk_id] = (out, stats, obs_payload)
            else:  # "error"
                _, chunk_id, exc_repr, tb_text, obs_payload = message
                if OBS.enabled and obs_payload is not None:
                    merge_obs_delta(OBS, obs_payload)
                error = RuntimeError(
                    f"batch chunk {chunk_id} failed in worker: {exc_repr}\n{tb_text}"
                )
                error._repro_error_counted = True
                raise error
        return outcomes, hydrations


# -- chunk workers -------------------------------------------------------------


def _run_chunk(
    index, kind: str, chunk: Sequence[str], k: int, method: str
) -> Tuple[List[object], SearchStats]:
    """Run one chunk sequentially through the index's own engine cache.

    The serial path and every pool worker share this loop; the
    cross-query memo persists beyond the chunk.
    """
    stats = SearchStats()
    out: List[object] = []
    busy_start = perf_counter()
    try:
        if kind == "search":
            for pattern in chunk:
                occurrences, query_stats = index.search_with_stats(pattern, k, method)
                stats.merge(query_stats)
                out.append(occurrences)
        elif kind == "map":
            for read in chunk:
                hits, query_stats = index.map_read_with_stats(read, k, method=method)
                stats.merge(query_stats)
                out.append(hits)
        else:  # pragma: no cover - internal invariant
            raise PatternError(f"unknown batch kind {kind!r}")
    finally:
        # Busy time is counted on the serial path and in every process
        # worker (the worker's increment rides its ObsDelta home), so
        # utilization = busy_ms / (wall * workers) holds.
        if OBS.enabled:
            OBS.metrics.counter("engine.worker.busy_ms").inc(
                (perf_counter() - busy_start) * 1e3
            )
    return out, stats


def _pool_worker(
    worker_id: int,
    shm_name: str,
    blob_size: int,
    transfer: str,
    observe: bool,
    kind: str,
    k: int,
    method: str,
    task_q,
    result_q,
    profile_hz: float = 0.0,
    shard: Optional[int] = None,
    arena_name: Optional[str] = None,
    arena_start: int = 0,
    arena_end: int = 0,
) -> None:
    """Process-pool worker: hydrate once from shared memory, then pull
    ``(chunk_id, chunk)`` tasks until the ``None`` sentinel.

    ``arena_name`` (when set) names the parent's result arena; this
    worker owns the exclusive ``[arena_start, arena_end)`` region and
    packs each chunk's results into it as fixed-width records (see
    :mod:`repro.engine.arena`), shipping only the committed
    ``("arena", start, end, n_items, n_records)`` span through the
    queue.  A chunk that does not fit spills back to the pickled
    ``("queue", results)`` payload — correctness never depends on arena
    capacity.

    ``worker_id`` is the pool slot (0..workers-1) — the stable,
    low-cardinality value worker telemetry is labelled with (pids churn
    per batch and would blow through the label cap).

    ``observe`` mirrors the parent's ``OBS.enabled`` at launch, so
    worker-side instrumentation runs exactly when the parent's does
    (under ``spawn`` the child starts with a fresh, disabled singleton;
    under ``fork`` it inherits whatever the parent had).  Hydration
    happens *before* the first chunk's telemetry snapshot, so its own
    counters and spans never leak into per-chunk deltas; the cost is
    reported separately through one ``("hydrated", ...)`` message.

    Per-chunk telemetry deltas are taken against a snapshot at chunk
    entry (see :class:`repro.obs.ObsDelta`), so counters inherited
    across ``fork`` are not double-reported and a worker serving many
    chunks ships each chunk's increments exactly once — labelled series
    and flight-recorder records included.

    ``profile_hz > 0`` means the parent's sampling profiler was running
    at launch: the worker runs its *own* profiler at that rate for its
    lifetime, tagged with the pool slot, and each chunk's samples ride
    the chunk's ObsDelta payload home (idle queue-wait samples between
    chunks are deliberately not shipped — only attributed work is).
    """
    # Move the heap inherited over fork out of the collector's sight, so
    # this worker's collections (and its exit collect) walk only what it
    # allocates itself.
    _gc.freeze()
    from multiprocessing import shared_memory

    from ..core.matcher import KMismatchIndex

    if observe:
        OBS.enable()
        # Under fork the worker inherits the parent's open engine.batch
        # span; drop it so worker spans finish as roots and get shipped.
        OBS.tracer.clear_stack()
        # A fork-inherited sink would write worker records through the
        # parent's file handle; they reach the parent's ring through the
        # ObsDelta payload instead.  Detach without closing: the handle
        # belongs to the parent.
        OBS.wide_log = None
    if profile_hz > 0:
        # Under fork the child inherits the parent's Profiler *object*
        # but not its sampler thread; start() sees a dead thread and
        # spins up a fresh worker-local profile.
        PROFILER._thread = None
        PROFILER.start(hz=profile_hz, meta={"worker": worker_id})
    start = perf_counter()
    shm = shared_memory.SharedMemory(name=shm_name)
    # The binary path wraps `shm.buf` zero-copy — the index holds
    # memoryviews into the segment until the worker drops it; the parent
    # owns the unlink.
    if transfer == "shm-json":
        index = KMismatchIndex.loads(bytes(shm.buf[:blob_size]).decode("utf-8"))
    else:
        index = KMismatchIndex.from_binary(shm.buf)
    index.shard = shard
    hydrate_ms = (perf_counter() - start) * 1e3
    result_q.put(("hydrated", worker_id, hydrate_ms))
    arena_shm = None
    writer = None
    if arena_name is not None:
        arena_shm = shared_memory.SharedMemory(name=arena_name)
        writer = ArenaWriter(arena_shm.buf, arena_start, arena_end)
    try:
        while True:
            task = task_q.get()
            if task is None:
                break
            chunk_id, chunk = task
            snapshot = None
            try:
                if observe:
                    snapshot = ObsDelta.capture(OBS)
                    OBS.metrics.counter(
                        "engine.worker.chunks", worker=worker_id, transfer=transfer,
                        **({} if shard is None else {"shard": shard}),
                    ).inc()
                out, stats = _run_chunk(index, kind, chunk, k, method)
                obs_payload = snapshot.finish(OBS) if observe else None
                payload = None
                if writer is not None:
                    packed = writer.pack_chunk(chunk_id, kind, out)
                    if packed is not None:
                        a_start, a_end, n_records = packed
                        payload = ("arena", a_start, a_end, len(out), n_records)
                if payload is None:
                    payload = ("queue", out)
                result_q.put(("ok", chunk_id, payload, stats, obs_payload))
            except BaseException as exc:  # ship the failure; never hang the parent
                # The failed chunk's telemetry still rides home: count the
                # error worker-side (idempotent — the matcher usually
                # already did) and finish the delta so the parent merges
                # query.errors{engine,k,kind} like any other series.
                obs_payload = None
                if observe and snapshot is not None:
                    try:
                        from .registry import REGISTRY

                        record_query_error(REGISTRY.canonical_name(method), k, exc)
                        obs_payload = snapshot.finish(OBS)
                    except Exception:  # pragma: no cover - never mask the failure
                        obs_payload = None
                result_q.put(
                    ("error", chunk_id, repr(exc), _traceback.format_exc(), obs_payload)
                )
                break
    finally:
        if profile_hz > 0:
            PROFILER.stop()
        # Drop every zero-copy view into the segment before detaching,
        # else close() raises BufferError ("exported pointers exist").
        del index, writer
        _gc.collect()
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a view outlived the index
            pass
        if arena_shm is not None:
            try:
                arena_shm.close()
            except BufferError:  # pragma: no cover - a view outlived the writer
                pass
