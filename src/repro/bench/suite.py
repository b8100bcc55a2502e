"""Uniform runner for the four compared methods (paper Sec. V).

The paper times, per configuration, the *average matching time* of:

* **A( )** — Algorithm A (this paper),
* **BWT** — the BWT-based S-tree method of [34] (φ heuristic on),
* **Amir's** — break/marking/verification,
* **Cole's** — suffix-tree brute force.

:class:`MethodSuite` amortises per-target preprocessing the way the paper
does — index/suffix-tree construction time is excluded ("the time for
constructing BWT(s̄) is not included as it is completely independent of
r") — and reports per-read averages plus the search statistics of the
index-based methods.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..engine.registry import REGISTRY, SearchEngine
from ..core.matcher import KMismatchIndex, fold_search
from ..core.types import SearchStats
from ..obs import LATENCY_BUCKETS_MS, OBS, Histogram

#: The four methods of the paper's evaluation, in its naming.  These are
#: registry aliases; :meth:`MethodSuite.run` accepts any registered
#: mismatch engine name or alias.
PAPER_METHODS = ("A()", "BWT", "Amir's", "Cole's")


@dataclass
class MethodResult:
    """Aggregate outcome of running one method over a read batch."""

    method: str
    total_seconds: float
    n_reads: int
    n_occurrences: int
    stats: Optional[SearchStats] = None
    extra: Dict[str, float] = field(default_factory=dict)
    #: Per-read latency distribution (milliseconds), always populated by
    #: :meth:`MethodSuite.run` — feeds the percentile columns of
    #: :func:`repro.bench.reporting.format_percentiles`.
    latency_hist: Optional[Histogram] = None

    @property
    def avg_seconds(self) -> float:
        """Average matching time per read — the paper's reported metric."""
        return self.total_seconds / self.n_reads if self.n_reads else 0.0

    def to_dict(self) -> dict:
        """JSON-compatible summary (the regression gate's per-method row).

        Latency is reported in milliseconds (average plus histogram
        percentiles); work counters come from the merged
        :class:`SearchStats` — ``rank_queries`` is the probe count the
        gate compares, the machine-independent half of the check.
        """
        payload = {
            "method": self.method,
            "n_reads": self.n_reads,
            "n_occurrences": self.n_occurrences,
            "total_seconds": self.total_seconds,
            "avg_ms": self.avg_seconds * 1e3,
        }
        if self.latency_hist is not None and self.latency_hist.count:
            payload["latency_ms"] = {
                "p50": self.latency_hist.percentile(50),
                "p90": self.latency_hist.percentile(90),
                "p99": self.latency_hist.percentile(99),
                "max": self.latency_hist.max,
            }
        if self.stats is not None:
            payload["stats"] = self.stats.to_dict()
        if self.extra:
            payload["extra"] = dict(self.extra)
        return payload


class MethodSuite:
    """Run any of the compared methods over one target string.

    Construction builds the shared per-target structures (the BWT index
    and, lazily, the suffix tree); :meth:`run` then times one method over
    a read batch at a given ``k``.

    Parameters
    ----------
    text:
        The target (genome) string.
    methods:
        Which methods :meth:`run_all` exercises, in order.
    """

    def __init__(self, text: str, methods: Sequence[str] = PAPER_METHODS):
        self._text = text
        self._methods = tuple(methods)
        self._index = KMismatchIndex(text)

    @property
    def index(self) -> KMismatchIndex:
        """The shared BWT index."""
        return self._index

    # -- single-method timing --------------------------------------------------

    def run(self, method: str, reads: Sequence[str], k: int) -> MethodResult:
        """Time ``method`` over ``reads`` at mismatch bound ``k``.

        Each read is also timed individually into the result's
        ``latency_hist`` so reports can show tail percentiles next to the
        paper's average — averages hide exactly the reads the derivation
        machinery is supposed to help.  With observability on, each
        index-backed read is folded into ``search.*`` once, outside its
        own latency.
        """
        engine, runner = self._runner_for(method, k)
        # A full collection owed to earlier allocations (tens of ms on a
        # large heap) must not land inside one method's few-ms timing.
        gc.collect()
        last_stats: Optional[SearchStats] = None
        n_occurrences = 0
        latency_hist = Histogram("suite.latency_ms", LATENCY_BUCKETS_MS)
        with OBS.span("suite.run", method=method, k=k, n_reads=len(reads)) as span:
            start = time.perf_counter()
            for read in reads:
                read_start = time.perf_counter()
                occurrences, stats = runner(read)
                latency_hist.observe((time.perf_counter() - read_start) * 1e3)
                n_occurrences += len(occurrences)
                if stats is not None:
                    if OBS.enabled:
                        fold_search((engine,), k, stats, len(occurrences))
                    last_stats = stats if last_stats is None else last_stats.merge(stats)
            elapsed = time.perf_counter() - start
            span.set(seconds=round(elapsed, 6), occurrences=n_occurrences)
        if OBS.enabled:
            # One dimensional family, per-engine/per-k children — the cut
            # the paper's Fig. 11(a) plots, reproducible straight from a
            # ``--stats-json`` trace.  (The name-mangled
            # suite.<method>.latency_ms twin is retired; see
            # docs/OBSERVABILITY.md.)
            OBS.metrics.histogram(
                "suite.latency_ms", engine=REGISTRY.canonical_name(method), k=k
            ).merge(latency_hist)
        return MethodResult(
            method=method,
            total_seconds=elapsed,
            n_reads=len(reads),
            n_occurrences=n_occurrences,
            stats=last_stats,
            latency_hist=latency_hist,
        )

    def run_all(self, reads: Sequence[str], k: int) -> List[MethodResult]:
        """Time every configured method; results in configuration order."""
        return [self.run(method, reads, k) for method in self._methods]

    def run_json(self, reads: Sequence[str], k: int, **meta) -> dict:
        """One JSON document for a full :meth:`run_all` pass.

        The shape consumed by :mod:`repro.bench.regression` — workload
        metadata (so baselines refuse to compare across different
        set-ups) plus one :meth:`MethodResult.to_dict` row per method.
        """
        results = self.run_all(reads, k)
        return {
            "format": "repro-bench",
            "version": 1,
            "workload": {
                "target_bp": len(self._text),
                "n_reads": len(reads),
                "read_length": len(reads[0]) if reads else 0,
                "k": k,
                **meta,
            },
            "methods": {result.method: result.to_dict() for result in results},
        }

    # -- method registry ----------------------------------------------------------

    def _runner_for(self, method: str, k: int) -> Tuple[SearchEngine, Callable]:
        """Resolve ``method`` through the engine registry: its engine and
        a per-read runner.

        The engine instance comes from the index's per-(method, knobs)
        cache, so per-target preprocessing (Cole's suffix tree, the
        q-gram table, Algorithm A's persistent pair memo) is amortised
        across the batch — the paper's accounting, extended to every
        registered engine.  Index-backed engines report their
        :class:`SearchStats`; text baselines report ``None`` (their
        adapters return empty stats, normalised here so result rows keep
        the historical shape).
        """
        spec = REGISTRY.resolve(method)
        engine = self._index.engine(spec.name)
        if spec.kind == "index":
            return engine, lambda read: engine.search(read, k)
        return engine, lambda read: (engine.search(read, k)[0], None)
