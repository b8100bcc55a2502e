"""Algorithm A: k-mismatch search with mismatch-information derivation.

This is the paper's contribution (Sec. IV-C/D): the S-tree search of [34]
plus a **hash table of visited pairs** keyed by BWT row range.  The
continuation of a range in the index is *identical* wherever the range
recurs — only the pattern offset it is aligned against differs — so on a
repeat visit the stored continuation is re-scored instead of re-searched.

Here that is literally the S-tree loop (:func:`~repro.core.stree.tree_search`)
plus one hook, called on every range at least ``min_memo_width`` rows wide:

* on a miss the hook asks the index for the range's children and records
  them; a range with a single child instead extends a *chain* — the codes
  and ranges of a unary run of the index, up to the next branch point;
* on a hit it hands stored children back to the loop, or re-scores a
  stored chain against the current offset and hands back the node where
  the chain ends, or where the budget runs out.  A chain that this same
  query recorded at another offset, with more than ``_DIRECT_SCAN_LIMIT``
  characters to score, is re-scored by the paper's ``merge()``: kangaroo
  jumps over the pattern's self-mismatches (the information of the tables
  ``R_1..R_{m-1}``) interleaved with the chain's own recorded mismatches,
  O(1) per mismatch rather than per character.  Any other chain is
  compared character by character.

Leaves, φ and budget cuts, locating and the M-tree all stay in the loop,
so the answer set is exactly the S-tree's (the property tests pin both
against the naive scan).

Complexity: O(k·n' + n + m log m) with ``n'`` the number of M-tree leaves
(paper Sec. IV-D); preprocessing builds the ``R`` tables once per pattern.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from typing import Iterator, List, Optional, Sequence, Tuple

from ..bwt.fmindex import FMIndex, Range
from ..errors import PatternError
from ..mismatch.tables import MismatchTables
from ..obs import COUNT_BUCKETS, OBS
from .mtree import MTree
from .stree import Hook, LeafCallback, Mismatches, compute_phi, record_search_metrics, tree_search
from .types import Occurrence, SearchStats

#: Chains with at most this many characters to score are compared
#: directly; longer ones recorded by the same query use the kangaroo
#: merge.  Pure constant-factor tuning: in CPython, generator setup costs
#: more than ~a dozen integer comparisons.
_DIRECT_SCAN_LIMIT = 24

#: Soft bound on memo entries.  After each search the oldest entries are
#: dropped down to it; the entries the search itself recorded are kept,
#: so one very large search may leave the memo above the bound.
MEMO_LIMIT = 200_000


class _Chain:
    """A unary run of the index, recorded by the memo hook.

    ``codes[j]`` leads from ``ranges[j]`` to ``ranges[j + 1]``, and every
    range but the last has that single child.  The recording query scored
    ``codes[j]`` against ``pattern[offset + j]``; ``mm_rel`` lists the
    ``j`` where that comparison failed (what the kangaroo merge needs).
    """

    __slots__ = ("offset", "codes", "ranges", "mm_rel")

    def __init__(self, offset: int, head: Range):
        self.offset = offset
        self.codes: List[int] = []
        self.ranges: List[Range] = [head]
        self.mm_rel: List[int] = []


class AlgorithmASearcher:
    """The paper's Algorithm A over an FM-index of the reversed target.

    The pair hash table persists across calls to :meth:`search` on one
    instance: a range recorded while serving one read is reused when a
    later read reaches it (``stats.shared_reuse_hits``).  A range's
    continuation depends only on the target, so stored records stay valid
    for every pattern; records from an earlier query are re-scored
    directly (the kangaroo merge needs the same pattern).
    :meth:`clear_memo` gives a cold start, and the table is held near
    :data:`MEMO_LIMIT` entries by dropping the oldest.

    Parameters
    ----------
    fm_reverse:
        FM-index built over the *reversed* target string.
    record_mtree:
        When True, :attr:`last_mtree` holds the explicit mismatching tree
        of the most recent search (Sec. IV-D structure; used by the worked
        examples and tests — adds overhead).
    enable_reuse:
        When False, the pair hash table is disabled and the search is the
        plain S-tree loop — the ablation baseline isolating the paper's
        derivation idea.
    use_phi:
        Additionally apply the φ(i) cut-off of [34] (sound,
        context-independent pruning; the paper's Algorithm A does not use
        it, but at reduced target scales φ is far more selective than at
        genome scale, so it is on by default here — the ablation
        benchmarks isolate its effect).
    min_memo_width:
        Ranges narrower than this bypass the hash table.  A width-1 range
        is a single text position; its subtree is a thin path whose
        re-derivation saves almost nothing, while recording it costs a
        hash insert per character.  The paper's literal behaviour (every
        pair recorded) is ``min_memo_width=1``; the ablation benchmark
        sweeps this knob.

    >>> from repro.alphabet import DNA
    >>> fm = FMIndex("acagaca"[::-1], DNA)
    >>> occs, stats = AlgorithmASearcher(fm).search("tcaca", k=2)
    >>> [(o.start, o.mismatches) for o in occs]
    [(0, (0, 3)), (2, (0, 1))]
    """

    #: Canonical engine-registry name; spans are ``<engine_name>.search``
    #: and metrics ``search.<engine_name>.*`` (the obs naming contract).
    engine_name = "algorithm_a"

    def __init__(
        self,
        fm_reverse: FMIndex,
        record_mtree: bool = False,
        enable_reuse: bool = True,
        use_phi: bool = True,
        min_memo_width: int = 4,
    ):
        if min_memo_width < 1:
            raise PatternError("min_memo_width must be >= 1")
        self._fm = fm_reverse
        self._record_mtree = record_mtree
        self._enable_reuse = enable_reuse
        self._use_phi = use_phi
        self._min_memo_width = min_memo_width
        #: Range -> ``(record, t, gen)``: ``record`` is the range's children
        #: (``t == -1``) or the :class:`_Chain` holding it at ``ranges[t]``;
        #: ``gen`` is the query that recorded it.  Insertion order is age.
        self._memo: dict = {}
        self._generation = 0
        self._pattern: Optional[str] = None
        self._k = 0
        self._tables_cache: Optional[MismatchTables] = None
        #: M-tree of the most recent search (when ``record_mtree``).
        self.last_mtree: Optional[MTree] = None

    @property
    def memo_entries(self) -> int:
        """Live entries in the pair hash table."""
        return len(self._memo)

    def clear_memo(self) -> None:
        """Drop every retained range pair (the next search starts cold)."""
        self._memo.clear()

    # -- public API ------------------------------------------------------------

    def search(self, pattern: str, k: int) -> Tuple[List[Occurrence], SearchStats]:
        """All occurrences of ``pattern`` with at most ``k`` mismatches.

        Returns occurrences sorted by start position plus search
        statistics; ``stats.leaves`` is the paper's n'.
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
        with OBS.span(
            self.engine_name + ".search", m=m, k=k, reuse=self._enable_reuse, phi=self._use_phi
        ) as span:
            pattern_codes = fm.alphabet.encode(pattern)
            phi = compute_phi(fm, pattern_codes) if self._use_phi else None
            # Preprocessing (paper's O(m log m) term): the R tables and the
            # kangaroo oracle behind them, built lazily by ``tables`` — only
            # the kangaroo merge consults them, and most searches never do.
            self._pattern = pattern
            self._k = k
            self._tables_cache = None
            self._generation += 1
            recorded_before = len(self._memo)
            mtree = MTree(m) if self._record_mtree else None
            hook = self._memo_hook(pattern_codes, k, stats) if self._enable_reuse else None
            occurrences = tree_search(
                fm,
                pattern_codes,
                k,
                phi,
                stats,
                hook,
                self._min_memo_width,
                None if mtree is None else _mtree_recorder(mtree, fm.alphabet.symbol),
            )
            stats.memo_size = len(self._memo)
            evicted = self._evict_memo(recorded_before)
            span.set(
                leaves=stats.leaves,
                reuse_hits=stats.reuse_hits,
                shared_reuse_hits=stats.shared_reuse_hits,
                memo_size=stats.memo_size,
                occurrences=len(occurrences),
            )
        if OBS.enabled:
            record_search_metrics(self.engine_name, stats, len(occurrences), k)
            # Derivation-machinery families, labelled {engine,k} like every
            # other search series (the flat search.algorithm_a.* names they
            # replace are retired — see docs/OBSERVABILITY.md).
            metrics = OBS.metrics
            engine = self.engine_name
            metrics.counter("search.reuse_hits", engine=engine, k=k).inc(stats.reuse_hits)
            metrics.counter("search.shared_reuse_hits", engine=engine, k=k).inc(
                stats.shared_reuse_hits
            )
            metrics.counter("search.chars_replayed", engine=engine, k=k).inc(
                stats.chars_replayed
            )
            metrics.counter("search.derivation_jumps", engine=engine, k=k).inc(
                stats.derivation_jumps
            )
            metrics.histogram("search.memo_size", COUNT_BUCKETS, engine=engine, k=k).observe(
                stats.memo_size
            )
            metrics.counter(self.engine_name + ".memo.evicted").inc(evicted)
            metrics.gauge(self.engine_name + ".memo.entries").set(len(self._memo))
        self.last_mtree = mtree
        return sorted(occurrences), stats

    def _evict_memo(self, recorded_before: int) -> int:
        """Drop the oldest entries down to :data:`MEMO_LIMIT`.

        The memo's first ``recorded_before`` entries predate the search
        that just finished; only those may go.  One O(dropped) sweep
        between queries, no per-hit bookkeeping.
        """
        drop = min(len(self._memo) - MEMO_LIMIT, recorded_before)
        if drop <= 0:
            return 0
        for key in list(islice(self._memo, drop)):
            del self._memo[key]
        return drop

    @property
    def tables(self) -> Optional[MismatchTables]:
        """The R tables of the most recent search (built on first use)."""
        if self._pattern is None:
            return None
        if self._tables_cache is None:
            self._tables_cache = MismatchTables(self._pattern, self._k)
        return self._tables_cache

    # -- the memo hook -------------------------------------------------------------

    def _memo_hook(self, pattern_codes: Sequence[int], k: int, stats: SearchStats) -> Hook:
        """The hook :func:`tree_search` calls on wide ranges for one query."""
        memo = self._memo
        gen = self._generation
        m = len(pattern_codes)
        children_of = self._fm.children
        merge = self._iter_replay_mismatches
        # The chain whose last recorded child is the frame the loop pops
        # next (it pushes children last-first), or None.  Every call resets
        # it, so only that child can extend the chain.
        open_chain: Optional[_Chain] = None

        def hook(rng: Range, i: int, mm: Mismatches):
            nonlocal open_chain
            chain, open_chain = open_chain, None
            hit = memo.get(rng)
            if hit is None:
                stats.rank_queries += 1
                children = children_of(rng)
                if len(children) != 1:
                    memo[rng] = (children, -1, gen)
                    return i, mm, children, False
                if chain is None or chain.ranges[-1] is not rng:
                    chain = _Chain(i, rng)
                t = len(chain.codes)
                code, child = children[0]
                chain.codes.append(code)
                chain.ranges.append(child)
                if code != pattern_codes[i]:
                    chain.mm_rel.append(t)
                memo[rng] = (chain, t, gen)
                open_chain = chain
                return i, mm, children, False
            record, t, recorded = hit
            stats.reuse_hits += 1
            if recorded != gen:
                stats.shared_reuse_hits += 1
            if t < 0:
                return i, mm, record, True
            # Score the chain here up to its last character (or the
            # pattern's end); the loop scores that one, or the first
            # mismatch the budget cannot pay for.
            codes = record.codes
            n = min(len(codes) - t, m - i) - 1
            if n > 0:
                if recorded == gen and n > _DIRECT_SCAN_LIMIT:
                    mismatches = merge(record, t, i, n, pattern_codes, stats)
                else:
                    mismatches = [
                        (o, code)
                        for o, code in enumerate(codes[t:t + n])
                        if code != pattern_codes[i + o]
                    ]
                used = len(mm)
                for o, code in mismatches:
                    if used == k:
                        n = o
                        break
                    mm += ((i + o, code),)
                    used += 1
                stats.chars_replayed += n
                i += n
                t += n
            return i, mm, [(codes[t], record.ranges[t + 1])], True

        return hook

    def _iter_replay_mismatches(
        self,
        chain: _Chain,
        t: int,
        offset: int,
        window: int,
        pattern_codes: Sequence[int],
        stats: SearchStats,
    ) -> Iterator[Tuple[int, int]]:
        """Yield ``(o, code)`` for every ``o < window`` where the stored
        ``chain.codes[t + o]`` disagrees with ``pattern[offset + o]``.

        Two sorted streams are merged, mirroring the paper's merge():

        * kangaroo self-mismatch offsets between pattern suffixes
          ``chain.offset + t`` (where the chain was first scored) and
          ``offset`` — positions that *matched* at the first visit and now
          fall on a pattern self-disagreement;
        * the chain's original mismatch depths — stored characters compared
          directly against the new pattern position (paper step 4).
        """
        codes = chain.codes
        orig = chain.mm_rel
        qi = bisect_left(orig, t)
        kang = self.tables.oracle.iter_mismatch_offsets(chain.offset + t, offset, window)
        ko = next(kang, None)
        while True:
            oo = orig[qi] - t if qi < len(orig) else None
            if oo is not None and oo >= window:
                oo = None
            if ko is None and oo is None:
                return
            stats.derivation_jumps += 1
            if oo is None or (ko is not None and ko < oo):
                # Matched originally (stored char == pattern[a+o]); the
                # pattern disagrees with itself here, so it is a mismatch
                # against the new offset.
                yield ko, codes[t + ko]
                ko = next(kang, None)
            else:
                if ko is not None and ko == oo:
                    ko = next(kang, None)  # same depth; resolved directly
                code = codes[t + oo]
                if code != pattern_codes[offset + oo]:
                    yield oo, code
                qi += 1


def _mtree_recorder(mtree: MTree, symbol) -> LeafCallback:
    """A leaf callback adding each search path to ``mtree``."""

    def on_leaf(depth: int, mm: Mismatches) -> None:
        # A budget-cut path also covers the offset of the mismatch it cut.
        length = max(depth, mm[-1][0] + 1) if mm else depth
        mtree.add_path([(pos, symbol(code)) for pos, code in mm], length=length)

    return on_leaf
