"""Public facade: :class:`KMismatchIndex`.

Builds the BWT array over the *reversed* target once (the paper's
``L = BWT(s̄)``, Sec. IV) and serves any number of k-mismatch queries
through either Algorithm A (default) or the S-tree baseline of [34].
Exact search (k = 0) and plain substring queries are served by the same
index.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..alphabet import DNA, Alphabet, infer_alphabet
from ..obs import COUNT_BUCKETS, OBS, new_trace_id, record_query_error
from ..bwt.fmindex import DEFAULT_SA_SAMPLE, FMIndex
from ..bwt.rankall import DEFAULT_SAMPLE_RATE
from ..dna import reverse_complement
from ..engine.registry import CAP_MISMATCH, REGISTRY, SearchEngine
from ..errors import PatternError, SerializationError
from .algorithm_a import AlgorithmASearcher
from .kerrors import EditOccurrence
from .types import Occurrence, SearchStats
from .wildcard import DEFAULT_WILDCARD


class ReadHit(NamedTuple):
    """One strand-aware mapping of a read (see :meth:`KMismatchIndex.map_read`).

    ``strand`` is ``'+'`` when the read matched the target as given and
    ``'-'`` when its reverse complement matched; ``occurrence`` is always
    in forward-target coordinates.  A named tuple ``(occurrence,
    strand)``, so hits sort by ``(start, mismatches, strand)``.
    """

    occurrence: Occurrence
    strand: str


def observe_queries(
    engine: str,
    k: int,
    occurrences: int,
    duration_ms: Optional[float] = None,
    n: int = 1,
) -> None:
    """Observe ``n`` served queries in the ``query.*`` families.

    ``query.count`` and ``query.occurrences``, each flat and per
    ``{engine,k}``; with ``duration_ms`` (one timed query), also
    ``query.latency_ms`` and ``query.search_ms{engine,k}``.  Called by
    the facade for an unsharded query and by the shard router once per
    routed query; callers check ``OBS.enabled``.
    """
    metrics = OBS.metrics
    if duration_ms is not None:
        metrics.histogram("query.latency_ms").observe(duration_ms)
        metrics.histogram("query.search_ms", engine=engine, k=k).observe(duration_ms)
    metrics.counter("query.count").inc(n)
    metrics.counter("query.count", engine=engine, k=k).inc(n)
    metrics.counter("query.occurrences").inc(occurrences)
    metrics.counter("query.occurrences", engine=engine, k=k).inc(occurrences)


def record_search_metrics(engine: str, k: int, stats: SearchStats, n_occurrences: int,
                          memo: Optional[Tuple[int, int]] = None, tree: bool = True) -> None:
    """Fold one served query's :class:`SearchStats` into ``search.*{engine,k}``.

    Runs once per served query, in the layer that serves it (facade,
    shard router, :class:`~repro.bench.MethodSuite`); engines write no
    metrics.  Every query adds ``search.queries`` and
    ``search.occurrences``; a ``tree`` search also the paper's n'
    ``search.leaves``, ``search.nodes_expanded`` and
    ``search.rank_queries``.  ``memo`` is Algorithm A's ``(entries,
    evicted)`` after the query, summed over its engines: it adds the
    derivation families (``search.reuse_hits``, ``.shared_reuse_hits``,
    ``.chars_replayed``, ``.derivation_jumps``, ``.memo_size``) and the
    ``algorithm_a.memo.entries`` gauge / ``.evicted`` counter.  Callers
    check ``OBS.enabled``.
    """
    counter, histogram = OBS.metrics.counter, OBS.metrics.histogram
    labels = {"engine": engine, "k": k}
    counter("search.queries", **labels).inc()
    histogram("search.occurrences", COUNT_BUCKETS, **labels).observe(n_occurrences)
    if not tree:
        return
    histogram("search.leaves", COUNT_BUCKETS, **labels).observe(stats.leaves)
    histogram("search.nodes_expanded", COUNT_BUCKETS, **labels).observe(stats.nodes_expanded)
    counter("search.rank_queries", **labels).inc(stats.rank_queries)
    if memo is None:
        return
    counter("search.reuse_hits", **labels).inc(stats.reuse_hits)
    counter("search.shared_reuse_hits", **labels).inc(stats.shared_reuse_hits)
    counter("search.chars_replayed", **labels).inc(stats.chars_replayed)
    counter("search.derivation_jumps", **labels).inc(stats.derivation_jumps)
    histogram("search.memo_size", COUNT_BUCKETS, **labels).observe(stats.memo_size)
    OBS.metrics.gauge("algorithm_a.memo.entries").set(memo[0])
    counter("algorithm_a.memo.evicted").inc(memo[1])


def fold_search(engines: Sequence[SearchEngine], k: int, stats: SearchStats,
                n_occurrences: int) -> None:
    """:func:`record_search_metrics` for a k-mismatch query its
    ``engines`` served (one, or one per shard), labelled with their
    ``engine_name``; the text baselines keep no search statistics."""
    engine = getattr(engines[0], "engine_name", None)
    if engine is None:
        return
    memo = None
    if isinstance(engines[0], AlgorithmASearcher):
        memo = (sum(e.memo_entries for e in engines), sum(e.last_evicted for e in engines))
    record_search_metrics(engine, k, stats, n_occurrences, memo)


#: The index-backed mismatch engines, in registry order — the method
#: names the paper's evaluation exercises.  :meth:`KMismatchIndex.search`
#: additionally accepts every other registered mismatch engine (the
#: baselines of :mod:`repro.baselines`); see ``docs/ENGINES.md``.
METHODS = REGISTRY.names(capability=CAP_MISMATCH, kind="index")


class KMismatchIndex:
    """An index over a target string answering k-mismatch queries.

    Parameters
    ----------
    text:
        The target string ``s`` (e.g. a genome).
    alphabet:
        Defaults to DNA when the text fits it, else the inferred minimal
        alphabet.
    occ_sample_rate / sa_sample_rate:
        Space/time knobs forwarded to the FM-index (paper Fig. 2 stores a
        rankall checkpoint every 4 BWT elements).

    >>> index = KMismatchIndex("acagaca")
    >>> [(o.start, o.mismatches) for o in index.search("tcaca", k=2)]
    [(0, (0, 3)), (2, (0, 1))]
    >>> index.count("aca", k=0)
    2
    """

    #: The shard id when this index serves as one shard of a
    #: :class:`~repro.shard.ShardedIndex` (stamped by it), else ``None``.
    #: A shard leg does no query telemetry: no trace id, no
    #: ``kmismatch.search`` span, no record, no ``query.*`` or
    #: ``search.*`` metric.  The router records and folds the routed
    #: query once; a leg still counts its own failure in
    #: ``query.errors`` (with ``shard`` on the error record).  The stamp
    #: is permanent, so a query sent straight to ``sharded.shards[i]``
    #: also runs as a shard leg.
    shard: Optional[int] = None

    def __init__(
        self,
        text: str,
        alphabet: Optional[Alphabet] = None,
        occ_sample_rate: int = DEFAULT_SAMPLE_RATE,
        sa_sample_rate: int = DEFAULT_SA_SAMPLE,
    ):
        if not text:
            raise PatternError("target text must be non-empty")
        if alphabet is None:
            alphabet = DNA if DNA.contains(text) else infer_alphabet(text)
        self._text = text
        self._alphabet = alphabet
        self._engines: Dict[tuple, SearchEngine] = {}
        #: M-tree of the most recent ``algorithm_a`` search with
        #: ``record_mtree=True`` (``None`` until then).
        self.last_mtree = None
        with OBS.span("kmismatch.build", length=len(text)):
            self._fm = FMIndex(
                text[::-1],
                alphabet,
                occ_sample_rate=occ_sample_rate,
                sa_sample_rate=sa_sample_rate,
            )

    # -- introspection ------------------------------------------------------------

    @property
    def text(self) -> str:
        """The indexed target string.

        Indexes loaded from the binary format do not store the text —
        it is recovered from the BWT on first access and cached (the
        index-backed engines never need it; only the scan baselines do).
        """
        if self._text is None:
            self._text = self._fm.reconstruct_text()[::-1]
        return self._text

    @property
    def alphabet(self) -> Alphabet:
        """The index's alphabet."""
        return self._alphabet

    @property
    def fm_index(self) -> FMIndex:
        """The underlying FM-index (over the reversed target)."""
        return self._fm

    @property
    def text_length(self) -> int:
        """Length of the indexed target (sentinel excluded).

        Part of the query facade shared with
        :class:`~repro.shard.ShardedIndex` — prefer this over
        ``fm_index.text_length`` in code that accepts either.
        """
        return self._fm.text_length

    def nbytes(self) -> int:
        """Approximate index payload in bytes."""
        return self._fm.nbytes()

    # -- queries -------------------------------------------------------------------

    def search(
        self,
        pattern: str,
        k: int,
        method: str = "algorithm_a",
    ) -> List[Occurrence]:
        """All occurrences of ``pattern`` within Hamming distance ``k``.

        ``method`` names any registered mismatch engine:
        ``"algorithm_a"`` (the paper's contribution), ``"stree"`` /
        ``"stree_nophi"`` (the baseline of [34]), the ablation variants,
        or a comparison method from :mod:`repro.baselines` (``"naive"``,
        ``"amir"``, ``"cole"``, ...).  See ``docs/ENGINES.md``.
        """
        occurrences, _ = self.search_with_stats(pattern, k, method)
        return occurrences

    def search_with_stats(
        self,
        pattern: str,
        k: int,
        method: str = "algorithm_a",
        record_mtree: bool = False,
    ) -> Tuple[List[Occurrence], SearchStats]:
        """Like :meth:`search`, also returning the search statistics.

        When observability is on, each query reports both the flat
        totals (``query.latency_ms``, ``query.count``, ...) and the
        dimensional series the paper's evaluation plots —
        ``query.search_ms{engine,k}``, labelled ``query.count`` /
        ``query.occurrences`` children and the ``search.*`` fold of its
        :class:`SearchStats` — plus, while a ``--wide-events`` sink is
        open, one telemetry record carrying a fresh ``trace_id``.
        Engine labels use the registry's canonical name, so ``"A()"``
        and ``"algorithm_a"`` land in one series.  A shard leg (:attr:`shard` set) validates,
        counts its own failure in ``query.errors`` and searches; the
        router records the routed query.
        """
        if not OBS.enabled or self.shard is not None:
            try:
                self._alphabet.validate(pattern)
                occurrences, stats, _ = self._dispatch(pattern, k, method, record_mtree)
            except Exception as exc:
                if OBS.enabled:
                    record_query_error(REGISTRY.canonical_name(method), k, exc,
                                       m=len(pattern), shard=self.shard)
                raise
            return occurrences, stats
        engine_name = REGISTRY.canonical_name(method)
        recording = OBS.wide_log is not None
        trace_id = new_trace_id() if recording else None
        start_ns = perf_counter_ns()
        # A raised query is a served query too: classify and count it in
        # query.errors{engine,k,kind} before re-raising (idempotently —
        # the executor and shard router wrap this same path).
        try:
            with OBS.span("kmismatch.search", method=engine_name,
                          m=len(pattern), k=k) as span:
                self._alphabet.validate(pattern)
                occurrences, stats, engine = self._dispatch(pattern, k, method, record_mtree)
                span.set(occurrences=len(occurrences))
        except Exception as exc:
            record_query_error(engine_name, k, exc, m=len(pattern), trace_id=trace_id)
            raise
        duration_ms = (perf_counter_ns() - start_ns) / 1e6
        observe_queries(engine_name, k, len(occurrences), duration_ms)
        fold_search((engine,), k, stats, len(occurrences))
        if recording:
            OBS.record_event(
                "query",
                engine=engine_name,
                k=k,
                m=len(pattern),
                duration_ms=duration_ms,
                occurrences=len(occurrences),
                trace_id=trace_id,
                stats=stats.to_dict(),
                spans=span.to_dict() if OBS.tracer.enabled else None,
            )
        return occurrences, stats

    def engine(self, method: str, fresh: bool = False, **knobs) -> SearchEngine:
        """The engine instance serving ``method`` on this index.

        Engines are resolved through the process-wide registry
        (:data:`repro.engine.REGISTRY`) and **cached per (method, knobs)**
        — repeated queries reuse one instance, which is what lets
        Algorithm A's persistent pair memo derive range continuations
        recorded while serving earlier queries, and lets per-target
        baselines (Cole's suffix tree, the q-gram index) amortise their
        preprocessing.

        Engine instances are stateful and not thread-safe; pass
        ``fresh=True`` to obtain a private, uncached instance.
        """
        spec = REGISTRY.resolve(method)
        if fresh or not spec.cacheable:
            return spec.factory(self, **knobs)
        key = (spec.name, tuple(sorted(knobs.items())))
        engine = self._engines.get(key)
        if engine is None:
            engine = self._engines[key] = spec.factory(self, **knobs)
        return engine

    def _dispatch(
        self, pattern: str, k: int, method: str, record_mtree: bool
    ) -> Tuple[List[Occurrence], SearchStats, SearchEngine]:
        spec = REGISTRY.resolve(method)
        if CAP_MISMATCH not in spec.capabilities:
            raise PatternError(
                f"method {spec.name!r} does not answer k-mismatch queries; "
                f"expected one of {REGISTRY.names(capability=CAP_MISMATCH)}"
            )
        knobs = {"record_mtree": True} if record_mtree and spec.supports_mtree else {}
        engine = self.engine(spec.name, **knobs)
        occurrences, stats = engine.search(pattern, k)
        if spec.supports_mtree:
            self.last_mtree = getattr(engine, "last_mtree", None)
        return occurrences, stats, engine

    def count(self, pattern: str, k: int = 0, method: str = "algorithm_a") -> int:
        """Number of occurrences of ``pattern`` within distance ``k``."""
        # Validate on the k = 0 fast path too: every query entry point
        # rejects out-of-alphabet patterns the same way `search` does.
        self._alphabet.validate(pattern)
        if k == 0:
            # Exact counting never needs the tree search: one backward pass.
            return self._fm.count(pattern[::-1])
        return len(self.search(pattern, k, method))

    def contains(self, pattern: str, k: int = 0) -> bool:
        """True when the pattern occurs within distance ``k``."""
        self._alphabet.validate(pattern)
        if k == 0:
            return self._fm.contains(pattern[::-1])
        return bool(self.search(pattern, k))

    def locate_exact(self, pattern: str) -> List[int]:
        """Exact occurrence starts (k = 0 fast path)."""
        if not pattern:
            raise PatternError("pattern must be non-empty")
        self._alphabet.validate(pattern)
        n, m = self._fm.text_length, len(pattern)
        return sorted(n - p - m for p in self._fm.locate(pattern[::-1]))

    # -- problem variants (paper Sec. II taxonomy) -----------------------------------

    def search_edit(self, pattern: str, k: int) -> List[EditOccurrence]:
        """String matching with k *errors* (Levenshtein) over the same index.

        Returns every target window within edit distance ``k`` of the
        pattern; see :mod:`repro.core.kerrors` for semantics and
        :func:`repro.core.kerrors.best_per_start` to reduce per start.
        """
        try:
            self._alphabet.validate(pattern)
            occurrences, stats = self.engine("kerrors").search(pattern, k)
        except Exception as exc:
            # A shard leg leaves the count to the router.
            if OBS.enabled and self.shard is None:
                record_query_error("kerrors", k, exc, m=len(pattern))
            raise
        if OBS.enabled and self.shard is None:
            record_search_metrics("kerrors", k, stats, len(occurrences), tree=False)
        return occurrences

    def search_wildcard(
        self, pattern: str, k: int = 0, wildcard: str = DEFAULT_WILDCARD
    ) -> List[Occurrence]:
        """k-mismatch search where ``wildcard`` pattern positions match anything."""
        try:
            occurrences, stats = self.engine("wildcard", wildcard=wildcard).search(pattern, k)
        except Exception as exc:
            # A shard leg leaves the count to the router.
            if OBS.enabled and self.shard is None:
                record_query_error("wildcard", k, exc, m=len(pattern))
            raise
        if OBS.enabled and self.shard is None:
            record_search_metrics("wildcard", k, stats, len(occurrences), tree=False)
        return occurrences

    # -- read mapping -------------------------------------------------------------------

    def map_read(self, read: str, k: int, method: str = "algorithm_a") -> List[ReadHit]:
        """Map a read against both strands of the target.

        Searches the read as given (``'+'`` hits) and its reverse
        complement (``'-'`` hits), the way the paper's evaluation handles
        wgsim's strand-flipped reads.  DNA targets only.
        """
        hits, _ = self.map_read_with_stats(read, k, method=method)
        return hits

    def map_read_with_stats(
        self, read: str, k: int, method: str = "algorithm_a"
    ) -> Tuple[List[ReadHit], SearchStats]:
        """Like :meth:`map_read`, also returning merged two-strand stats."""
        if self._alphabet != DNA:
            raise PatternError("map_read requires a DNA target")
        with OBS.span("kmismatch.map_read", m=len(read), k=k) as span:
            forward, stats = self.search_with_stats(read, k, method)
            reverse, reverse_stats = self.search_with_stats(
                reverse_complement(read), k, method
            )
            stats.merge(reverse_stats)
            new = tuple.__new__
            hits = [new(ReadHit, (occ, "+")) for occ in forward]
            hits += [new(ReadHit, (occ, "-")) for occ in reverse]
            span.set(hits=len(hits))
        if OBS.enabled:
            OBS.metrics.counter("map_read.count").inc()
            OBS.metrics.counter("map_read.hits").inc(len(hits))
        hits.sort()
        return hits, stats

    def map_reads(
        self,
        reads: Sequence[str],
        k: int,
        method: str = "algorithm_a",
        workers: int = 0,
        chunk_size: Optional[int] = None,
    ) -> List[List[ReadHit]]:
        """Map a read batch; ``result[i]`` is read ``i``'s hit list.

        ``workers`` is an upper bound on process-pool workers (see
        :func:`repro.engine.executor.pool_size`): the batch fans chunks
        out over ``min(workers, usable CPUs, len(reads) //
        MIN_ITEMS_PER_WORKER)`` workers when that is at least 2.
        Otherwise it runs serially, every read through the one cached
        engine, so Algorithm A's persistent memo carries derivations
        across the whole batch.  Result order matches input order
        either way.
        """
        from ..engine.executor import BatchExecutor

        executor = BatchExecutor(workers=workers, chunk_size=chunk_size)
        return executor.run_map(self, reads, k, method=method).results

    def search_batch(
        self,
        patterns: Sequence[str],
        k: int,
        method: str = "algorithm_a",
        workers: int = 0,
        chunk_size: Optional[int] = None,
    ) -> Dict[str, List[Occurrence]]:
        """Search many patterns over the one index; results keyed by pattern."""
        results, _ = self.search_batch_with_stats(
            patterns, k, method=method, workers=workers, chunk_size=chunk_size
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

        The batch is executed through :class:`repro.engine.BatchExecutor`,
        with ``workers`` an upper bound as in :meth:`map_reads`:
        chunked over the process pool when the batch is large enough
        for at least two workers, else serially over the cached engine.
        Results are deterministic and input-ordered either way.
        """
        from ..engine.executor import BatchExecutor

        executor = BatchExecutor(workers=workers, chunk_size=chunk_size)
        return executor.search_batch(self, patterns, k, method=method)

    # -- self-checks ------------------------------------------------------------------------

    def verify(self) -> None:
        """Run the index's internal consistency checks.

        Verifies every rank checkpoint, inverts the BWT back to the
        target, and recomputes the suffix array to audit every sampled
        entry.  Raises :class:`~repro.errors.IndexCorruptionError` on any
        drift; intended for use after loading a persisted index from
        untrusted storage.  Cost: O(n) for the checks plus one suffix
        array construction.
        """
        from ..errors import IndexCorruptionError
        from ..suffix import suffix_array

        self._fm._rank.verify()
        reversed_text = self.text[::-1]
        if self._fm.reconstruct_text() != reversed_text:
            raise IndexCorruptionError("BWT does not invert to the indexed text")
        sa = suffix_array(reversed_text, self._alphabet)
        for row, pos in self._fm._sampled_sa.items():
            if not 0 <= row < len(sa) or sa[row] != pos:
                raise IndexCorruptionError(f"sampled suffix-array entry drifted at row {row}")

    # -- persistence ----------------------------------------------------------------------

    _MAGIC = "repro-kmismatch-index"
    _VERSION = 1

    def dumps(self) -> str:
        """Serialize the index (JSON).  The target text is *not* stored —
        it is recovered from the BWT on load."""
        return json.dumps(
            {"magic": self._MAGIC, "version": self._VERSION, "fm": self._fm.to_dict()}
        )

    @classmethod
    def loads(cls, data: str) -> "KMismatchIndex":
        """Rebuild an index from :meth:`dumps` output."""
        try:
            payload = json.loads(data)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"invalid index payload: {exc}") from None
        if payload.get("magic") != cls._MAGIC:
            raise SerializationError("not a serialized KMismatchIndex")
        if payload.get("version") != cls._VERSION:
            raise SerializationError(f"unsupported version {payload.get('version')}")
        fm = FMIndex.from_dict(payload["fm"])
        instance = cls.__new__(cls)
        instance._fm = fm
        instance._alphabet = fm.alphabet
        instance._text = fm.reconstruct_text()[::-1]
        instance._engines = {}
        instance.last_mtree = None
        try:
            instance._alphabet.validate(instance._text)
        except Exception:
            raise SerializationError("payload BWT does not invert to a valid text") from None
        return instance

    # -- binary persistence (repro.io.binfmt; see docs/INDEX_FORMAT.md) ---------

    @classmethod
    def _wrap_fm(cls, fm: FMIndex) -> "KMismatchIndex":
        """A facade around an already-loaded FM-index (text stays lazy)."""
        instance = cls.__new__(cls)
        instance._fm = fm
        instance._alphabet = fm.alphabet
        instance._text = None
        instance._engines = {}
        instance.last_mtree = None
        return instance

    def to_binary(self) -> bytes:
        """The index as one zero-copy-loadable binary blob."""
        return self._fm.to_binary()

    @classmethod
    def from_binary(cls, buffer, verify_checksums: bool = False) -> "KMismatchIndex":
        """Wrap a :meth:`to_binary` blob (or a shared-memory view of one).

        O(header): no section is copied or scanned, so process-pool
        workers attaching a shared-memory segment re-hydrate in constant
        time regardless of genome size.
        """
        return cls._wrap_fm(FMIndex.from_binary(buffer, verify_checksums=verify_checksums))

    def save(self, path) -> int:
        """Write the binary index format to ``path``; returns bytes written."""
        return self._fm.save(path)

    @classmethod
    def load(cls, path, mmap: bool = True, verify_checksums: bool = False) -> "KMismatchIndex":
        """Load a binary index file (memory-mapped by default)."""
        return cls._wrap_fm(
            FMIndex.load(path, mmap=mmap, verify_checksums=verify_checksums)
        )

    @classmethod
    def open(cls, path, mmap: bool = True):
        """Load a saved index of any format, sniffing the file's magic.

        Binary files (``repro-cli index --format bin``) load zero-copy
        via :meth:`load`; ``REPROSHD`` shard manifests (``repro-cli
        index --shards N``) return a :class:`~repro.shard.ShardedIndex`
        serving the same query facade over routed shards; anything else
        is treated as the JSON compatibility format and parsed through
        :meth:`loads`.
        """
        from ..io import binfmt

        if binfmt.sniff_manifest(path):
            from ..shard import ShardedIndex

            return ShardedIndex.open(path, mmap=mmap)
        if binfmt.sniff(path):
            return cls.load(path, mmap=mmap)
        with open(path) as handle:
            return cls.loads(handle.read())
