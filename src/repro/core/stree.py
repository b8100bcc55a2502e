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

:func:`tree_search` is the package's one tree search: a loop over an
explicit stack.  :class:`STreeSearcher` runs it as is; Algorithm A
(:mod:`repro.core.algorithm_a`) runs it with a memo hook.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

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


#: A path's mismatches: ``(pattern offset, code)`` pairs in offset order;
#: its length is the mismatch budget the path has spent.
Mismatches = Tuple[Tuple[int, int], ...]
#: Children of a node: ``(code, range)`` pairs, as :meth:`FMIndex.children`.
Children = List[Tuple[int, Range]]
#: ``hook(rng, i, mm) -> (i, mm, children, derived)``: see :func:`tree_search`.
Hook = Callable[[Range, int, Mismatches], Tuple[int, Mismatches, Children, bool]]
#: ``on_leaf(depth, mm)``: called once per leaf; see :func:`tree_search`.
LeafCallback = Callable[[int, Mismatches], None]


def tree_search(
    fm: FMIndex,
    pattern_codes: Sequence[int],
    k: int,
    phi: Optional[Sequence[int]],
    stats: SearchStats,
    hook: Optional[Hook] = None,
    min_width: int = 1,
    on_leaf: Optional[LeafCallback] = None,
) -> List[Occurrence]:
    """The S-tree search: every path of at most ``k`` mismatches, depth first.

    The one tree search behind both :class:`STreeSearcher` and Algorithm A.
    It walks an explicit stack of frames ``(range, offset, mismatches)``,
    so its depth is bounded by memory, not by the recursion limit.  A
    frame at offset ``m`` is a completed path: its rows are located and
    reported.  Otherwise the φ cut applies, then the node's children are
    scored against ``pattern[offset]``: a match keeps the budget, a
    mismatch spends one unit, and a mismatch with no budget left is a
    budget-cut leaf.  Children are pushed in reverse so they are explored
    in code order.

    ``hook``, when given, replaces ``fm.children`` on ranges at least
    ``min_width`` rows wide.  It returns ``(offset, mismatches, children,
    derived)`` for a node on the same path — the frame's own node, or a
    deeper one when it has scored stored characters itself (Algorithm A's
    memo).  Children kept from the index count in ``nodes_expanded``;
    ``derived`` children, taken from the memo, count in
    ``chars_replayed``.  ``on_leaf(depth, mismatches)`` is called once per
    leaf; a budget-cut leaf passes the mismatch that was cut as its last
    pair.

    Counts are added to ``stats``; the occurrences come back unsorted.
    """
    m = len(pattern_codes)
    n = fm.text_length
    children_of = fm.children
    locate = fm.suffix_position
    occurrences: List[Occurrence] = []
    report = occurrences.append
    nodes = replayed = probes = rows = completed = phi_cuts = dead = budget_cuts = 0
    stack: List[Tuple[Range, int, Mismatches]] = [(fm.full_range(), 0, ())]
    pop = stack.pop
    push = stack.append
    while stack:
        rng, i, mm = pop()
        if i == m:
            completed += 1
            lo, hi = rng
            rows += hi - lo
            positions = tuple([pos for pos, _ in mm])
            for row in range(lo, hi):
                report(Occurrence(n - locate(row) - m, positions))
            if on_leaf is not None:
                on_leaf(i, mm)
            continue
        used = len(mm)
        if phi is not None and k - used < phi[i]:
            phi_cuts += 1
            if on_leaf is not None:
                on_leaf(i, mm)
            continue
        if hook is not None and rng[1] - rng[0] >= min_width:
            i, mm, children, derived = hook(rng, i, mm)
            used = len(mm)
        else:
            probes += 1
            children = children_of(rng)
            derived = False
        if not children:
            dead += 1
            if on_leaf is not None:
                on_leaf(i, mm)
            continue
        want = pattern_codes[i]
        deeper = i + 1
        kept = 0
        for code, child in reversed(children):
            if code == want:
                push((child, deeper, mm))
            elif used < k:
                push((child, deeper, mm + ((i, code),)))
            else:
                budget_cuts += 1
                if on_leaf is not None:
                    on_leaf(i, mm + ((i, code),))
                continue
            kept += 1
        if derived:
            replayed += kept
        else:
            nodes += kept
    stats.nodes_expanded += nodes
    stats.chars_replayed += replayed
    stats.rank_queries += probes
    stats.rows_located += rows
    stats.completed_paths += completed
    stats.phi_pruned += phi_cuts
    stats.dead_ends += dead
    stats.budget_pruned += budget_cuts
    stats.leaves += completed + phi_cuts + dead + budget_cuts
    return occurrences


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
        with OBS.span(self.engine_name + ".search", m=m, k=k, phi=self._use_phi) as span:
            pattern_codes = fm.alphabet.encode(pattern)
            phi = compute_phi(fm, pattern_codes) if self._use_phi else None
            on_leaf = None
            if OBS.enabled:
                # The paper's S-tree leaf-depth distribution.
                depths = OBS.metrics.histogram(
                    "search.leaf_depth", COUNT_BUCKETS, engine=self.engine_name, k=k
                )

                def on_leaf(depth: int, mm: Mismatches) -> None:
                    depths.observe(depth)

            occurrences = tree_search(fm, pattern_codes, k, phi, stats, on_leaf=on_leaf)
            span.set(leaves=stats.leaves, occurrences=len(occurrences))
        if OBS.enabled:
            record_search_metrics(self.engine_name, stats, len(occurrences), k)
        return sorted(occurrences), stats
