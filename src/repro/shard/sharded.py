"""Sharded k-mismatch index: split targets, routed queries, global hits.

:class:`ShardedIndex` removes the single-index assumption from the
stack: a multi-Gbp target is split into per-shard
:class:`~repro.core.matcher.KMismatchIndex` instances (each an ordinary
``REPROIDX`` file on disk, mmap'd on open) whose cores partition the
target and whose texts overlap by ``max_pattern - 1 + max_k`` at the
seams.  :class:`QueryRouter` fans every query out across the shards,
keeps exactly the hits each shard *owns* (global start inside the
shard's core — the deterministic seam dedup), rebases them into global
coordinates and merges, so results are byte-identical to an unsharded
index.

The facade mirrors :class:`~repro.core.matcher.KMismatchIndex`'s query
surface (``search``/``search_batch``/``map_read``/``map_reads``/
``search_edit``/``search_wildcard``/``count``/``contains``), and
``KMismatchIndex.open()`` returns a :class:`ShardedIndex` transparently
when pointed at a ``REPROSHD`` manifest — every registered engine and
every CLI query path works unchanged over shards.  A single query
visits the shards one after another; batch queries reuse
:class:`~repro.engine.BatchExecutor` per shard (serial, or the
shared-memory process pool when ``workers`` and the batch size allow
it), tagging worker
telemetry with the ``{shard}`` label.  The router records each routed
query once: one record, one fold of the shards' merged stats into
``search.*``, one observation in ``query.count``, ``query.latency_ms``,
``query.search_ms`` and ``query.occurrences`` (its shard legs do no
query telemetry).  Its own fan-out emits
``query.shard_ms``/``query.shard_occurrences`` series and
``router.fanout``/``router.shard`` spans (``docs/SHARDING.md``).
"""

from __future__ import annotations

from operator import attrgetter
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence, Tuple

from ..alphabet import DNA, Alphabet, infer_alphabet
from ..bwt.fmindex import DEFAULT_SA_SAMPLE
from ..bwt.rankall import DEFAULT_SAMPLE_RATE
from ..core.kerrors import EDIT_ORDER, EditOccurrence
from ..core.matcher import (
    HIT_ORDER,
    KMismatchIndex,
    ReadHit,
    fold_search,
    observe_queries,
    record_search_metrics,
)
from ..core.types import Occurrence, SearchStats
from ..core.wildcard import DEFAULT_WILDCARD
from ..dna import reverse_complement
from ..engine.registry import REGISTRY
from ..errors import IndexCorruptionError, PatternError
from ..obs import OBS, new_trace_id, record_query_error
from .builder import build_shards_parallel, record_build_ms
from .manifest import (
    DEFAULT_MAX_K,
    DEFAULT_MAX_PATTERN,
    ShardManifest,
    ShardSpec,
    plan_shards,
)


class QueryRouter:
    """Fans queries across a :class:`ShardedIndex` and merges the hits.

    Parameters
    ----------
    sharded:
        The index whose shards are routed over.
    workers / chunk_size:
        Batch knobs.  Batch queries hand the whole batch to one
        :class:`~repro.engine.BatchExecutor` per shard, with
        ``workers`` an upper bound exactly as for an unsharded batch:
        the shared-memory process pool when the batch is large enough
        for at least two workers, serial otherwise — each shard's
        workers hydrate that shard's binary blob zero-copy.  Single
        queries visit the shards serially.

    Merging is a projection onto shard ownership: a hit found by shard
    ``i`` survives iff its global start lies in shard ``i``'s core.
    The seam overlap guarantees the owner saw the full window, so the
    union over shards equals the unsharded result exactly (and each hit
    is produced once — no cross-shard comparison needed).
    """

    def __init__(
        self,
        sharded: "ShardedIndex",
        workers: int = 0,
        chunk_size: Optional[int] = None,
    ):
        self._sharded = sharded
        self.workers = max(0, int(workers))
        self.chunk_size = chunk_size

    # -- single-query fan-out ---------------------------------------------------

    def search_with_stats(
        self, pattern: str, k: int, method: str = "algorithm_a"
    ) -> Tuple[List[Occurrence], SearchStats]:
        """Route one k-mismatch query across every shard and merge."""
        return self._route(
            pattern, k,
            lambda index: index.search_with_stats(pattern, k, method),
            engine=REGISTRY.canonical_name(method),
            observe=True,
        )

    def search_edit(self, pattern: str, k: int) -> List[EditOccurrence]:
        """Route one k-errors (Levenshtein) query; windows reach ``m + k``."""
        occurrences, _ = self._route(
            pattern, k,
            lambda index: (index.search_edit(pattern, k), SearchStats()),
            engine="kerrors",
            window=len(pattern) + k,
            rebase=lambda occ, offset: EditOccurrence(
                occ.start + offset, occ.length, occ.distance
            ),
            order=EDIT_ORDER,  # windows of several lengths share a start
        )
        return occurrences

    def search_wildcard(
        self, pattern: str, k: int = 0, wildcard: str = DEFAULT_WILDCARD
    ) -> List[Occurrence]:
        """Route one wildcard query across every shard and merge."""
        occurrences, _ = self._route(
            pattern, k,
            lambda index: (index.search_wildcard(pattern, k, wildcard=wildcard),
                           SearchStats()),
            engine="wildcard",
        )
        return occurrences

    def _route(self, pattern, k, shard_fn, engine, window=None, rebase=None,
               observe=False, order=attrgetter("start")):
        """Fan ``shard_fn`` out over the shards; merge owned hits globally.

        ``window`` is the longest target window a hit may cover
        (defaults to ``len(pattern)``, the k-mismatch case); shards too
        short to hold one window contribute nothing without being
        searched.  ``rebase`` maps ``(occurrence, global_offset)`` to a
        globally-positioned occurrence (defaults to the
        :class:`Occurrence` shape).  Shard legs do no query telemetry;
        the router writes the query's one record and folds the merged
        stats and owned hits into ``search.*`` once.  ``observe`` marks
        a k-mismatch query, which is also observed in the ``query.*``
        families, and whose ``search.*`` fold carries Algorithm A's memo
        summed over the shards.  ``order`` is the merge's sort key (by
        default the start, which an owned k-mismatch hit has alone).

        A raised routed query — seam-budget rejection, a shard failing
        mid-fanout — is counted in ``query.errors{engine,k,kind}``
        before re-raising (idempotently: per-shard facades count their
        own failures first and tag the exception).
        """
        trace_id = new_trace_id() if OBS.enabled else None
        try:
            return self._route_inner(pattern, k, shard_fn, engine, window,
                                     rebase, observe, order, trace_id)
        except Exception as exc:
            record_query_error(engine, k, exc, m=len(pattern), trace_id=trace_id)
            raise

    def _route_inner(self, pattern, k, shard_fn, engine, window, rebase,
                     observe, order, trace_id):
        sharded = self._sharded
        window = window if window is not None else len(pattern)
        sharded.check_seam_budget(window)
        if rebase is None:
            def rebase(occ, offset):
                return Occurrence(occ.start + offset, occ.mismatches)

        def run_shard(item):
            shard_id, spec, index = item
            if window > index.text_length:
                # No window starting in this core fits the target at all
                # (the seam containment argument: if one did, it would
                # fit the shard text too) — skip the search outright.
                return shard_id, spec, [], SearchStats(), 0.0
            start_ns = perf_counter_ns()
            with OBS.span("router.shard", shard=shard_id):
                occurrences, stats = shard_fn(index)
            return (
                shard_id, spec, occurrences, stats,
                (perf_counter_ns() - start_ns) / 1e6,
            )

        items = [
            (i, spec, index)
            for i, (spec, index) in enumerate(zip(sharded.manifest.shards, sharded.shards))
        ]
        start_ns = perf_counter_ns()
        with OBS.span(
            "router.fanout", engine=engine, k=k, m=len(pattern),
            shards=len(items),
        ) as span:
            outcomes = [run_shard(item) for item in items]
            merged = []
            stats = SearchStats()
            for shard_id, spec, occurrences, shard_stats, _ in outcomes:
                stats.merge(shard_stats)
                merged.extend(
                    rebase(occ, spec.start)
                    for occ in occurrences
                    if spec.owns(occ.start + spec.start)
                )
            merged.sort(key=order)
            span.set(occurrences=len(merged))
        if OBS.enabled:
            for shard_id, _, occurrences, _, shard_ms in outcomes:
                OBS.metrics.histogram(
                    "query.shard_ms", engine=engine, k=k, shard=shard_id
                ).observe(shard_ms)
                OBS.metrics.counter(
                    "query.shard_occurrences", engine=engine, k=k, shard=shard_id
                ).inc(len(occurrences))
            duration_ms = (perf_counter_ns() - start_ns) / 1e6
            if not observe:
                record_search_metrics(engine, k, stats, len(merged), tree=False)
            else:
                observe_queries(engine, k, len(merged), duration_ms)
                spec = REGISTRY.resolve(engine)
                if spec.kind == "index":
                    fold_search([index.engine(spec.name) for index in sharded.shards],
                                k, stats, len(merged))
            # ``shards`` > 0 marks the routed query; its legs wrote none.
            OBS.record_event(
                "query",
                engine=engine,
                k=k,
                m=len(pattern),
                duration_ms=duration_ms,
                occurrences=len(merged),
                shards=len(items),
                trace_id=trace_id,
                stats=stats.to_dict(),
                spans=span.to_dict() if OBS.tracer.enabled else None,
            )
        return merged, stats

    # -- batch fan-out ----------------------------------------------------------

    def run_batch(
        self, kind: str, items: Sequence[str], k: int, method: str = "algorithm_a"
    ) -> Tuple[List[object], SearchStats]:
        """Route a batch: one :class:`BatchExecutor` pass per shard.

        Every shard sees the whole batch (a hit can live in any shard);
        per-item results are merged by ownership exactly as in the
        single-query path, and results stay input-ordered.  Worker
        telemetry (``engine.worker.*``) from each per-shard pass carries
        that shard's ``{shard}`` label.
        """
        from ..engine.executor import BatchExecutor

        engine = REGISTRY.canonical_name(method)
        try:
            merged, stats = self._run_batch_inner(BatchExecutor, kind, items, k, method)
        except Exception as exc:
            record_query_error(engine, k, exc)
            raise
        if OBS.enabled:
            # A mapped read is two strand queries, as on an unsharded
            # index.  Batch items are not timed one by one across shards,
            # so they add no latency observation.
            observe_queries(
                engine, k, sum(len(bucket) for bucket in merged),
                n=len(items) * (2 if kind == "map" else 1),
            )
        return merged, stats

    def _run_batch_inner(self, BatchExecutor, kind, items, k, method):
        sharded = self._sharded
        window = max((len(item) for item in items), default=0)
        if kind == "map":
            sharded.require_dna("map_reads")
        sharded.check_seam_budget(window)
        merged: List[list] = [[] for _ in items]
        stats = SearchStats()
        specs = sharded.manifest.shards
        with OBS.span(
            "router.batch", kind=kind, shards=len(specs), items=len(items),
            workers=self.workers,
        ):
            for shard_id, (spec, index) in enumerate(zip(specs, sharded.shards)):
                executor = BatchExecutor(
                    workers=self.workers, chunk_size=self.chunk_size, shard=shard_id,
                )
                if kind == "search":
                    batch = executor.run_search(index, items, k, method=method)
                else:
                    batch = executor.run_map(index, items, k, method=method)
                stats.merge(batch.stats)
                for j, shard_out in enumerate(batch.results):
                    merged[j].extend(
                        self._rebase_result(entry, spec)
                        for entry in shard_out
                        if spec.owns(self._result_start(entry) + spec.start)
                    )
        order = HIT_ORDER if kind == "map" else attrgetter("start")
        for bucket in merged:
            bucket.sort(key=order)
        return merged, stats

    @staticmethod
    def _result_start(entry) -> int:
        return entry.occurrence.start if isinstance(entry, ReadHit) else entry.start

    @staticmethod
    def _rebase_result(entry, spec: ShardSpec):
        if isinstance(entry, ReadHit):
            occ = entry.occurrence
            return ReadHit(Occurrence(occ.start + spec.start, occ.mismatches), entry.strand)
        return Occurrence(entry.start + spec.start, entry.mismatches)


class ShardedIndex:
    """A k-mismatch index over a target split into routed shards.

    Construct with :meth:`build` (split a text in memory), or
    :meth:`open` a saved ``REPROSHD`` manifest whose per-shard
    ``REPROIDX`` files are then memory-mapped zero-copy.
    ``KMismatchIndex.open()`` dispatches here automatically for
    manifest files.
    """

    def __init__(
        self,
        manifest: ShardManifest,
        shards: Sequence[KMismatchIndex],
        router: Optional[QueryRouter] = None,
    ):
        if len(shards) != manifest.n_shards:
            raise IndexCorruptionError(
                f"manifest names {manifest.n_shards} shard(s), "
                f"{len(shards)} index(es) supplied"
            )
        self._manifest = manifest
        self._shards = list(shards)
        for shard_id, index in enumerate(self._shards):
            index.shard = shard_id
        self._alphabet = Alphabet(manifest.alphabet)
        self._text: Optional[str] = None
        self.router = router or QueryRouter(self)
        #: Facade parity with :class:`KMismatchIndex` (per-query M-tree
        #: recording is not routed across shards).
        self.last_mtree = None

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(
        cls,
        text: str,
        n_shards: int,
        max_pattern: int = DEFAULT_MAX_PATTERN,
        max_k: int = DEFAULT_MAX_K,
        alphabet: Optional[Alphabet] = None,
        occ_sample_rate: int = DEFAULT_SAMPLE_RATE,
        sa_sample_rate: int = DEFAULT_SA_SAMPLE,
        build_workers: int = 0,
    ) -> "ShardedIndex":
        """Split ``text`` into ``n_shards`` seam-overlapped shard indexes.

        ``max_pattern``/``max_k`` fix the seam budget: queries with
        ``m - 1 + k`` beyond ``max_pattern - 1 + max_k`` are rejected at
        query time (the overlap cannot prove them complete).  Every
        shard is built over the *whole-text* alphabet so queries probe
        identical code spaces regardless of which characters a shard's
        slice happens to contain.

        ``build_workers`` is an upper bound, as for batches: the shards
        are built over ``min(build_workers, usable CPUs, shards)`` pool
        workers (:mod:`repro.shard.builder`) when that is at least 2,
        and serially in-process otherwise (``0``, the default, always
        builds serially).  On the pool the text ships down through one
        shared-memory segment, each built shard's ``REPROIDX`` blob
        ships back through another, and the result — the deterministic
        writer guarantees it — is byte-identical to a serial build.
        """
        if not text:
            raise PatternError("target text must be non-empty")
        if max_pattern < 1:
            raise PatternError(f"max_pattern must be positive, got {max_pattern}")
        if max_k < 0:
            raise PatternError(f"max_k must be non-negative, got {max_k}")
        if build_workers < 0:
            raise PatternError(
                f"build_workers must be non-negative, got {build_workers}"
            )
        if alphabet is None:
            alphabet = DNA if DNA.contains(text) else infer_alphabet(text)
        overlap = max_pattern - 1 + max_k
        plan = plan_shards(len(text), n_shards, overlap)
        specs = [
            ShardSpec(
                file=f"shard{i:04d}.fmbin",
                start=start,
                length=length,
                core_start=core_start,
                core_end=core_end,
            )
            for i, (start, length, core_start, core_end) in enumerate(plan)
        ]
        from ..engine import executor

        workers = min(build_workers, executor.usable_cpus(), len(plan))
        with OBS.span("shard.build", length=len(text), shards=n_shards,
                      overlap=overlap, build_workers=build_workers):
            shards = None
            if workers >= 2:
                shards = build_shards_parallel(
                    text, plan, alphabet, occ_sample_rate, sa_sample_rate,
                    workers,
                )
            if shards is None:
                shards = []
                for i, (start, length, core_start, core_end) in enumerate(plan):
                    begin = perf_counter_ns()
                    shards.append(KMismatchIndex(
                        text[start:start + length],
                        alphabet=alphabet,
                        occ_sample_rate=occ_sample_rate,
                        sa_sample_rate=sa_sample_rate,
                    ))
                    record_build_ms(i, (perf_counter_ns() - begin) / 1e6)
        manifest = ShardManifest(
            total_length=len(text),
            overlap=overlap,
            max_pattern=max_pattern,
            max_k=max_k,
            alphabet="".join(alphabet.symbols),
            shards=tuple(specs),
        )
        instance = cls(manifest, shards)
        instance._text = text
        return instance

    def save(self, path) -> int:
        """Write the manifest to ``path`` and one ``REPROIDX`` file per
        shard next to it (``<stem>.shard0000.fmbin``, ...); returns
        total bytes written."""
        path = Path(path)
        stem = path.name.rsplit(".", 1)[0] or path.name
        specs = []
        written = 0
        for i, (spec, index) in enumerate(zip(self._manifest.shards, self._shards)):
            name = f"{stem}.shard{i:04d}.fmbin"
            written += index.save(path.parent / name)
            specs.append(ShardSpec(
                file=name, start=spec.start, length=spec.length,
                core_start=spec.core_start, core_end=spec.core_end,
            ))
        manifest = ShardManifest(
            total_length=self._manifest.total_length,
            overlap=self._manifest.overlap,
            max_pattern=self._manifest.max_pattern,
            max_k=self._manifest.max_k,
            alphabet=self._manifest.alphabet,
            shards=tuple(specs),
        )
        written += manifest.save(path)
        self._manifest = manifest
        return written

    @classmethod
    def open(cls, path, mmap: bool = True) -> "ShardedIndex":
        """Open a saved manifest, memory-mapping every shard index.

        Load cost is O(shards) headers.  Each shard file must exist
        (relative to the manifest) and match the geometry the manifest
        records for it — a shard/manifest length mismatch is corruption,
        named as such, never a silently misrouted coordinate space.
        """
        path = Path(path)
        manifest = ShardManifest.load(path)
        shards = []
        with OBS.span("shard.open", shards=manifest.n_shards, mmap=mmap):
            for i, spec in enumerate(manifest.shards):
                shard_path = path.parent / spec.file
                if not shard_path.is_file():
                    raise IndexCorruptionError(
                        f"{path}: shard {i} file: {spec.file!r} does not exist "
                        f"next to the manifest"
                    )
                index = KMismatchIndex.load(shard_path, mmap=mmap)
                if index.text_length != spec.length:
                    raise IndexCorruptionError(
                        f"{path}: shard {i} length: manifest records {spec.length} "
                        f"bp at offset {spec.start}, {spec.file!r} holds "
                        f"{index.text_length} bp (shard/manifest offset mismatch)"
                    )
                if "".join(index.alphabet.symbols) != manifest.alphabet:
                    raise IndexCorruptionError(
                        f"{path}: shard {i} alphabet: manifest records "
                        f"{manifest.alphabet!r}, {spec.file!r} holds "
                        f"{''.join(index.alphabet.symbols)!r}"
                    )
                shards.append(index)
        if OBS.enabled:
            OBS.metrics.counter("shard.opens").inc()
            OBS.metrics.gauge("shard.count").set(manifest.n_shards)
        return cls(manifest, shards)

    # -- introspection ----------------------------------------------------------

    @property
    def manifest(self) -> ShardManifest:
        """The shard geometry this index routes over."""
        return self._manifest

    @property
    def shards(self) -> List[KMismatchIndex]:
        """The per-shard indexes, in core order.

        Each is stamped with its shard id, so it runs as a shard leg —
        no query telemetry but its own failures — even when it is
        searched directly."""
        return self._shards

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def alphabet(self) -> Alphabet:
        """The (whole-target) alphabet every shard was built over."""
        return self._alphabet

    @property
    def text_length(self) -> int:
        """Length of the full target, seam overlaps not double-counted."""
        return self._manifest.total_length

    @property
    def text(self) -> str:
        """The full target, reassembled from the shard cores and cached."""
        if self._text is None:
            self._text = "".join(
                index.text[: spec.core_end - spec.core_start]
                for spec, index in zip(self._manifest.shards, self._shards)
            )
        return self._text

    def nbytes(self) -> int:
        """Total payload across shards (seam overlaps counted — they are
        genuinely stored twice; that is the price of seam-local routing)."""
        return sum(index.nbytes() for index in self._shards)

    # -- guards -----------------------------------------------------------------

    def check_seam_budget(self, window: int) -> None:
        """Reject queries whose windows could straddle past the overlap.

        ``window`` is the longest target window a hit may cover (``m``
        for k-mismatch, ``m + k`` for k-errors).  For multi-shard
        indexes it must satisfy ``window - 1 <= overlap``; beyond that a
        hit could start in one core and end past the owner's text, and
        the routed answer could silently miss it — so this raises
        instead.
        """
        if len(self._shards) > 1 and window - 1 > self._manifest.overlap:
            raise PatternError(
                f"query window of {window} exceeds this sharded index's seam "
                f"overlap ({self._manifest.overlap}: max_pattern="
                f"{self._manifest.max_pattern}, max_k={self._manifest.max_k}); "
                f"rebuild the shards with a larger --max-pattern/--max-k budget"
            )

    def require_dna(self, what: str) -> None:
        if self._alphabet != DNA:
            raise PatternError(f"{what} requires a DNA target")

    # -- queries ----------------------------------------------------------------

    def search(
        self, pattern: str, k: int, method: str = "algorithm_a"
    ) -> List[Occurrence]:
        """All occurrences within Hamming distance ``k``, in global
        coordinates — exactly the unsharded answer."""
        occurrences, _ = self.search_with_stats(pattern, k, method)
        return occurrences

    def search_with_stats(
        self, pattern: str, k: int, method: str = "algorithm_a"
    ) -> Tuple[List[Occurrence], SearchStats]:
        """Like :meth:`search`, plus shard-merged search statistics."""
        try:
            self._alphabet.validate(pattern)
        except Exception as exc:
            # The router never runs for an invalid pattern; count the
            # rejection here so sharded serving has the same error
            # accounting as the unsharded facade.
            record_query_error(REGISTRY.canonical_name(method), k, exc,
                               m=len(pattern))
            raise
        return self.router.search_with_stats(pattern, k, method)

    def count(self, pattern: str, k: int = 0, method: str = "algorithm_a") -> int:
        """Number of occurrences of ``pattern`` within distance ``k``."""
        self._alphabet.validate(pattern)
        if k == 0:
            self.check_seam_budget(len(pattern))
            return sum(
                1
                for spec, index in zip(self._manifest.shards, self._shards)
                if len(pattern) <= index.text_length
                for start in index.locate_exact(pattern)
                if spec.owns(start + spec.start)
            )
        return len(self.search(pattern, k, method))

    def contains(self, pattern: str, k: int = 0) -> bool:
        """True when the pattern occurs within distance ``k``."""
        if k == 0:
            return self.count(pattern, 0) > 0
        return bool(self.search(pattern, k))

    def locate_exact(self, pattern: str) -> List[int]:
        """Exact occurrence starts (k = 0 fast path), global coordinates."""
        if not pattern:
            raise PatternError("pattern must be non-empty")
        self._alphabet.validate(pattern)
        self.check_seam_budget(len(pattern))
        return sorted(
            start + spec.start
            for spec, index in zip(self._manifest.shards, self._shards)
            if len(pattern) <= index.text_length
            for start in index.locate_exact(pattern)
            if spec.owns(start + spec.start)
        )

    def search_edit(self, pattern: str, k: int) -> List[EditOccurrence]:
        """k-errors (Levenshtein) windows over the sharded target."""
        self._alphabet.validate(pattern)
        return self.router.search_edit(pattern, k)

    def search_wildcard(
        self, pattern: str, k: int = 0, wildcard: str = DEFAULT_WILDCARD
    ) -> List[Occurrence]:
        """k-mismatch search with don't-care positions, routed."""
        return self.router.search_wildcard(pattern, k, wildcard=wildcard)

    # -- read mapping ------------------------------------------------------------

    def map_read(self, read: str, k: int, method: str = "algorithm_a") -> List[ReadHit]:
        """Strand-aware mapping of one read (global coordinates)."""
        hits, _ = self.map_read_with_stats(read, k, method=method)
        return hits

    def map_read_with_stats(
        self, read: str, k: int, method: str = "algorithm_a"
    ) -> Tuple[List[ReadHit], SearchStats]:
        """Like :meth:`map_read`, also returning merged two-strand stats."""
        self.require_dna("map_read")
        with OBS.span("shard.map_read", m=len(read), k=k) as span:
            forward, stats = self.search_with_stats(read, k, method)
            reverse, reverse_stats = self.search_with_stats(
                reverse_complement(read), k, method
            )
            stats.merge(reverse_stats)
            hits = [ReadHit(occ, "+") for occ in forward]
            hits += [ReadHit(occ, "-") for occ in reverse]
            span.set(hits=len(hits))
        return sorted(hits, key=HIT_ORDER), stats

    def map_reads(
        self,
        reads: Sequence[str],
        k: int,
        method: str = "algorithm_a",
        workers: int = 0,
        chunk_size: Optional[int] = None,
    ) -> List[List[ReadHit]]:
        """Map a read batch; ``result[i]`` is read ``i``'s global hit list."""
        router = QueryRouter(self, workers=workers, chunk_size=chunk_size)
        results, _ = router.run_batch("map", list(reads), k, method=method)
        return results

    def search_batch(
        self,
        patterns: Sequence[str],
        k: int,
        method: str = "algorithm_a",
        workers: int = 0,
        chunk_size: Optional[int] = None,
    ) -> Dict[str, List[Occurrence]]:
        """Search many patterns; results keyed by pattern."""
        results, _ = self.search_batch_with_stats(
            patterns, k, method=method, workers=workers, chunk_size=chunk_size,
        )
        return results

    def search_batch_with_stats(
        self,
        patterns: Sequence[str],
        k: int,
        method: str = "algorithm_a",
        workers: int = 0,
        chunk_size: Optional[int] = None,
    ) -> Tuple[Dict[str, List[Occurrence]], SearchStats]:
        """Like :meth:`search_batch`, also returning batch-merged stats.

        Each shard serves the batch through one
        :class:`~repro.engine.BatchExecutor` (``workers``/``chunk_size``
        behave exactly as on the unsharded facade, shared-memory
        hydration included).
        """
        patterns = list(patterns)
        router = QueryRouter(self, workers=workers, chunk_size=chunk_size)
        results, stats = router.run_batch("search", patterns, k, method=method)
        return {pattern: occs for pattern, occs in zip(patterns, results)}, stats

    # -- self-checks -------------------------------------------------------------

    def verify(self) -> None:
        """Run every shard's internal checks plus seam consistency.

        Each shard verifies its own BWT/rank/SA invariants; on top, the
        seam text every pair of adjacent shards stores twice must agree
        byte-for-byte, or routing would answer differently depending on
        which side of a seam served a window.
        """
        for index in self._shards:
            index.verify()
        specs = self._manifest.shards
        for i in range(len(specs) - 1):
            left, right = specs[i], specs[i + 1]
            overlap_len = left.end - right.start
            if overlap_len <= 0:
                continue
            left_seam = self._shards[i].text[-overlap_len:]
            right_seam = self._shards[i + 1].text[:overlap_len]
            if left_seam != right_seam:
                raise IndexCorruptionError(
                    f"seam between shard {i} and {i + 1} disagrees over "
                    f"[{right.start}, {left.end}) — shard files do not come "
                    f"from one target"
                )


__all__ = ["ShardedIndex", "QueryRouter"]
