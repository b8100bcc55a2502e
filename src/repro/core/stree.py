"""The S-tree search: the BWT-based baseline of [34] (paper Sec. IV-A).

A *search tree* (S-tree) node is a pair ``<x, [α, β]>`` — a character and
a BWT row range.  The root is the whole BWT; a node's children are every
character with a non-empty sub-range.  Branches accumulating more than
``k`` mismatches against the pattern are cut; paths surviving to depth
``m`` are occurrences.

The baseline's only refinement is the φ(i) heuristic: ``φ(i)`` is the
number of consecutive, disjoint substrings of ``r[i..m-1]`` that do not
occur in the target at all; each such substring forces at least one
mismatch, so a subtree whose remaining budget is below φ can be cut
immediately.  The paper argues this heuristic is weak (it reasons about
the whole target, not the branch being explored) — the ablation benchmark
quantifies that claim.

The searcher operates over an FM-index of the *reversed* target so the
pattern is consumed left-to-right (paper Sec. IV: ``L = BWT(s̄)``).
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from typing import Iterator, List, Sequence, Tuple

from ..bwt.fmindex import FMIndex, Range
from ..errors import PatternError
from ..obs import COUNT_BUCKETS, OBS
from .types import Occurrence, SearchStats


def record_search_metrics(
    engine: str, stats: SearchStats, n_occurrences: int, k: int = 0
) -> None:
    """Fold one search's :class:`SearchStats` into the metrics registry.

    Shared by every tree searcher so the per-query distributions (the
    paper's n' leaf counts, node totals) accumulate under uniform
    dimensional families — ``search.leaves{engine,k}``,
    ``search.nodes_expanded{engine,k}``, ``search.occurrences{engine,k}``,
    ``search.queries{engine,k}``, ``search.rank_queries{engine,k}`` —
    that let a dashboard reproduce the paper's per-k cuts (Fig. 11(a))
    from one scrape.  (The name-mangled ``search.<engine>.*`` flat twins
    these families replaced are retired; see the deprecation note in
    docs/OBSERVABILITY.md.)  No-op while tracing is disabled.
    """
    metrics = OBS.metrics
    metrics.histogram("search.leaves", COUNT_BUCKETS, engine=engine, k=k).observe(
        stats.leaves
    )
    metrics.histogram(
        "search.nodes_expanded", COUNT_BUCKETS, engine=engine, k=k
    ).observe(stats.nodes_expanded)
    metrics.histogram(
        "search.occurrences", COUNT_BUCKETS, engine=engine, k=k
    ).observe(n_occurrences)
    metrics.counter("search.queries", engine=engine, k=k).inc()
    metrics.counter("search.rank_queries", engine=engine, k=k).inc(stats.rank_queries)


def compute_phi(fm_reverse: FMIndex, pattern_codes: Sequence[int]) -> List[int]:
    """The paper's φ table for one pattern.

    ``phi[i]`` = the largest number of disjoint substrings of
    ``pattern[i:]`` that do not occur in the target.  One right-to-left
    chain answers every offset at once: ``s_1`` is the largest ``s`` with
    ``pattern[s:m]`` absent, ``s_2`` the largest ``s`` with
    ``pattern[s:s_1]`` absent, and so on; ``phi[i]`` counts the ``s_c``
    at or after ``i``.  Taking the latest-starting absent substring first
    is optimal for every suffix at once (the interval-scheduling exchange
    argument, docs/ALGORITHM.md §2).  For a fixed end, absence is
    monotone in the start, so each ``s_c`` is found by galloping down from
    the end and then binary search, each test an early-exit forward
    extension on the reversed-text index: O(m log m) backward-search steps
    instead of the O(m²) of restarting a search at every offset.

    The returned list has length ``m + 1`` with ``phi[m] = 0``.

    >>> from repro.alphabet import DNA
    >>> fm = FMIndex("acagaca"[::-1], DNA)
    >>> compute_phi(fm, DNA.encode("tcaca"))
    [2, 1, 0, 0, 0, 0]
    """
    m = len(pattern_codes)
    full = fm_reverse.full_range()
    extend = fm_reverse.extend

    def absent(start: int, end: int) -> bool:
        rng = full
        for pos in range(start, end):
            rng = extend(rng, pattern_codes[pos])
            if rng.is_empty:
                return True
        return False

    def latest_absent_start(end: int) -> int:
        """Largest ``s`` with ``pattern[s:end]`` absent, or -1 if none is."""
        # Gallop: widen pattern[end - step : end] until it is absent ...
        present, step = end, 1
        while True:
            start = max(end - step, 0)
            if absent(start, end):
                break
            if start == 0:
                return -1
            present, step = start, step * 2
        # ... then binary search between the absent and present starts.
        while present - start > 1:
            mid = (start + present) // 2
            if absent(mid, end):
                start = mid
            else:
                present = mid
        return start

    phi = [0] * (m + 1)
    start = latest_absent_start(m)
    while start >= 0:
        phi[start] = 1
        start = latest_absent_start(start)
    for i in range(m - 1, -1, -1):
        phi[i] += phi[i + 1]
    return phi


# Searches currently inside recursion_headroom, and the limit to restore
# when the last of them leaves.  Module-level because the recursion limit
# itself is process-wide.
_headroom_lock = threading.Lock()
_headroom_users = 0
_headroom_saved = 0


@contextmanager
def recursion_headroom(depth: int) -> Iterator[None]:
    """Raise the recursion limit for a DFS of ``depth`` levels, then restore it.

    Searches may overlap on several threads; a lock-guarded count of the
    searches inside keeps the limit raised until the last one leaves, and
    then restores the limit found when the first one entered.
    """
    global _headroom_users, _headroom_saved
    needed = depth * 4 + 2000
    with _headroom_lock:
        if _headroom_users == 0:
            _headroom_saved = sys.getrecursionlimit()
        _headroom_users += 1
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)
    try:
        yield
    finally:
        with _headroom_lock:
            _headroom_users -= 1
            if _headroom_users == 0:
                sys.setrecursionlimit(_headroom_saved)


class STreeSearcher:
    """Brute-force k-mismatch search over a BWT array (method of [34]).

    Parameters
    ----------
    fm_reverse:
        FM-index built over the *reversed* target.
    use_phi:
        Apply the φ(i) cut-off heuristic (the distinguishing feature of
        [34]; disable for the ablation).

    >>> from repro.alphabet import DNA
    >>> fm = FMIndex("acagaca"[::-1], DNA)
    >>> occs, stats = STreeSearcher(fm).search("tcaca", k=2)
    >>> [(o.start, o.mismatches) for o in occs]
    [(0, (0, 3)), (2, (0, 1))]
    """

    #: Canonical engine-registry name; spans are ``<engine_name>.search``
    #: and metrics ``search.<engine_name>.*`` (the obs naming contract).
    engine_name = "stree"

    def __init__(self, fm_reverse: FMIndex, use_phi: bool = True):
        self._fm = fm_reverse
        self._use_phi = use_phi

    @property
    def use_phi(self) -> bool:
        """Whether the φ(i) cut-off heuristic is active."""
        return self._use_phi

    def search(self, pattern: str, k: int) -> Tuple[List[Occurrence], SearchStats]:
        """All occurrences of ``pattern`` with at most ``k`` mismatches.

        Returns the occurrences sorted by start position, plus the search
        statistics (node/leaf counts feeding the paper's Table 2 axis).
        """
        fm = self._fm
        m = len(pattern)
        if m == 0:
            raise PatternError("pattern must be non-empty")
        if k < 0:
            raise PatternError(f"k must be non-negative, got {k}")
        stats = SearchStats()
        if m > fm.text_length:
            return [], stats
        with recursion_headroom(m), OBS.span(
            self.engine_name + ".search", m=m, k=k, phi=self._use_phi
        ) as span:
            self._n = fm.text_length
            self._m = m
            self._k = k
            self._pcodes = fm.alphabet.encode(pattern)
            self._phi = compute_phi(fm, self._pcodes) if self._use_phi else None
            self._stats = stats
            self._occurrences: List[Occurrence] = []
            self._path_mm: List[int] = []
            # Prebound so the per-leaf hot path pays one None check when
            # tracing is off (the paper's S-tree depth distribution).
            self._leaf_depth = (
                OBS.metrics.histogram(
                    "search.leaf_depth", COUNT_BUCKETS, engine=self.engine_name, k=k
                )
                if OBS.enabled
                else None
            )

            self._expand(fm.full_range(), 0, 0)
            span.set(leaves=stats.leaves, occurrences=len(self._occurrences))
        if OBS.enabled:
            record_search_metrics(self.engine_name, stats, len(self._occurrences), k)
        return sorted(self._occurrences), stats

    # -- internals -----------------------------------------------------------

    def _emit(self, rng: Range) -> None:
        fm = self._fm
        mm = tuple(self._path_mm)
        for row in range(rng.lo, rng.hi):
            start = self._n - fm.suffix_position(row) - self._m
            self._stats.rows_located += 1
            self._occurrences.append(Occurrence(start, mm))

    def _expand(self, rng: Range, i: int, used: int) -> None:
        """Explore all continuations of ``rng`` at pattern offset ``i``."""
        stats = self._stats
        if i == self._m:
            stats.leaves += 1
            stats.completed_paths += 1
            if self._leaf_depth is not None:
                self._leaf_depth.observe(i)
            self._emit(rng)
            return
        if self._phi is not None and self._k - used < self._phi[i]:
            stats.leaves += 1
            stats.phi_pruned += 1
            if self._leaf_depth is not None:
                self._leaf_depth.observe(i)
            return
        stats.rank_queries += 1
        children = self._fm.children(rng)
        if not children:
            stats.leaves += 1
            stats.dead_ends += 1
            if self._leaf_depth is not None:
                self._leaf_depth.observe(i)
            return
        pcode = self._pcodes[i]
        for code, child_rng in children:
            if code == pcode:
                stats.nodes_expanded += 1
                self._expand(child_rng, i + 1, used)
            elif used < self._k:
                stats.nodes_expanded += 1
                self._path_mm.append(i)
                self._expand(child_rng, i + 1, used + 1)
                self._path_mm.pop()
            else:
                stats.leaves += 1
                stats.budget_pruned += 1
                if self._leaf_depth is not None:
                    self._leaf_depth.observe(i)
