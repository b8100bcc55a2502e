"""Algorithm A: k-mismatch search with mismatch-information derivation.

This is the paper's contribution (Sec. IV-C/D).  The search explores the
same conceptual S-tree as the baseline of [34], but maintains a **hash
table of visited pairs**: the key is the BWT row range of a node.  The
continuation of a range in the index is *identical* wherever the range
recurs — only the pattern offset it is aligned against differs — so on a
repeat visit the subtree is **derived** instead of re-searched:

* matching runs recorded at the first visit (offset ``i``) are re-scored
  against the new offset ``j`` with kangaroo jumps over the pattern's
  self-mismatch structure — the information carried by the tables
  ``R_1..R_{m-1}`` — at O(1) per mismatch rather than O(1) per character;
* characters that mismatched at the first visit are stored explicitly
  (the M-tree's ``<char, position>`` nodes) and re-compared directly;
* interleaving the two streams is exactly the paper's ``merge()`` /
  ``node-creation()`` step pattern (Sec. IV-B, Fig. 5).

Where the stored subtree ends before the new context does — the paper's
case ``i > j`` ("D[u] needs to be extended"), a budget-pruned stub, or a
dead branch that the new budget could pass — the search resumes live from
the stored BWT range, so the answer set is always exactly the k-mismatch
occurrence set (the property tests pin this against the naive scan).

Complexity: O(k·n' + n + m log m) with ``n'`` the number of M-tree leaves
(paper Sec. IV-D); preprocessing builds the ``R`` tables once per pattern.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, List, Optional, Tuple

from ..bwt.fmindex import FMIndex, Range
from ..errors import PatternError
from ..mismatch.tables import MismatchTables
from ..obs import COUNT_BUCKETS, OBS
from .mtree import MTree
from .stree import compute_phi, record_search_metrics, recursion_headroom
from .types import Occurrence, SearchStats

#: Stored segments at most this long are re-scored by direct comparison;
#: longer ones use the O(k) kangaroo-jump merge.  Pure constant-factor
#: tuning: in CPython, generator setup costs more than ~a dozen integer
#: comparisons.
_DIRECT_SCAN_LIMIT = 24


class _Run:
    """A stored S-tree path segment (unary chain of consumed characters).

    ``codes[d]`` / ``ranges[d]`` give the character consumed at relative
    depth ``d`` and the BWT range reached after consuming it; at first
    exploration ``codes[d]`` was compared against
    ``pattern[start_offset + d]``, and ``mm_rel`` lists the relative depths
    where that comparison failed.  ``status`` records how the segment
    ends:

    ========  =======================================================
    'open'    still being explored (transient)
    'inner'   ends at a branch point; ``children`` holds the branches
    'dead'    the index has no continuation
    'end'     the pattern was exhausted at first exploration
    'stub'    never explored — the first visit's budget was spent
    'ref'     continuation is another memoised entry (``ref``)
    ========  =======================================================

    ``gen`` is the searcher query generation that recorded the segment;
    replays from a *later* generation (persistent cross-query memo) skip
    the kangaroo merge — ``mm_rel``/``start_offset`` describe comparisons
    against an earlier pattern — and re-score the stored characters
    directly instead.
    """

    __slots__ = ("start_offset", "codes", "ranges", "mm_rel", "status", "children", "ref", "gen")

    def __init__(
        self,
        start_offset: int,
        codes: List[int],
        ranges: List[Range],
        mm_rel: List[int],
        gen: int = 0,
    ):
        self.start_offset = start_offset
        self.codes = codes
        self.ranges = ranges
        self.mm_rel = mm_rel
        self.status = "open"
        self.children: List["_Run"] = []
        self.ref: Optional[Tuple["_Run", int]] = None
        self.gen = gen


class AlgorithmASearcher:
    """The paper's Algorithm A over an FM-index of the reversed target.

    Parameters
    ----------
    fm_reverse:
        FM-index built over the *reversed* target string.
    record_mtree:
        When True, :attr:`last_mtree` holds the explicit mismatching tree
        of the most recent search (Sec. IV-D structure; used by the worked
        examples and tests — adds overhead).
    enable_reuse:
        When False, the pair hash table is disabled and every subtree is
        searched live — the ablation baseline isolating the paper's
        derivation idea.
    use_phi:
        Additionally apply the φ(i) cut-off of [34] (sound,
        context-independent pruning; the paper's Algorithm A does not use
        it, but at reduced target scales φ is far more selective than at
        genome scale, so it is on by default here — the ablation
        benchmarks isolate its effect).
    min_memo_width:
        Ranges narrower than this are explored with a lean, non-recording
        DFS instead of being entered into the hash table.  A width-1
        range is a single text position; its subtree is a thin path whose
        re-derivation saves almost nothing, while recording it costs a
        hash insert plus node storage per character.  The paper's literal
        behaviour (every pair recorded) is ``min_memo_width=1``; the
        ablation benchmark sweeps this knob.
    persistent_memo:
        When True (default) the pair hash table survives across calls to
        :meth:`search` on this instance: a range pair recorded while
        serving one read is derived — never re-searched — when a later
        read reaches the same BWT range.  The continuation of a range in
        the index depends only on the *target*, so stored segments stay
        valid for every future pattern; replays of segments recorded by
        an earlier query re-score the stored characters directly (the
        kangaroo merge needs same-pattern self-mismatch structure).
        Cross-query hits are counted in ``stats.shared_reuse_hits``.
    memo_limit:
        Soft bound on persistent hash-table entries.  After each search,
        entries recorded by the oldest generations are evicted until the
        table fits (the current query's entries are never evicted, so one
        very large query may transiently exceed the bound).  Eviction and
        occupancy are exported via ``OBS`` under ``algorithm_a.memo.*``.

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
        persistent_memo: bool = True,
        memo_limit: int = 200_000,
    ):
        if min_memo_width < 1:
            raise PatternError("min_memo_width must be >= 1")
        if memo_limit < 1:
            raise PatternError("memo_limit must be >= 1")
        self._fm = fm_reverse
        self._record_mtree = record_mtree
        self._enable_reuse = enable_reuse
        self._use_phi = use_phi
        self._min_memo_width = min_memo_width
        self._persistent_memo = persistent_memo
        self._memo_limit = memo_limit
        self._memo: dict = {}
        self._generation = 0
        #: M-tree of the most recent search (when ``record_mtree``).
        self.last_mtree: Optional[MTree] = None

    @property
    def memo_entries(self) -> int:
        """Live entries in the (persistent) pair hash table."""
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
        with recursion_headroom(m), OBS.span(
            self.engine_name + ".search", m=m, k=k, reuse=self._enable_reuse, phi=self._use_phi
        ) as span:
            self._n = fm.text_length
            self._m = m
            self._k = k
            self._pcodes = fm.alphabet.encode(pattern)
            # Preprocessing (paper's O(m log m) term): the R tables and the
            # kangaroo oracle that backs their unbounded extension.  Built
            # lazily — only derivations over segments longer than the direct-
            # scan threshold consult them, and many searches never do.
            self._pattern = pattern
            self._tables_cache: Optional[MismatchTables] = None
            self._phi = compute_phi(fm, self._pcodes) if self._use_phi else None
            if not self._persistent_memo:
                self._memo = {}
            self._generation += 1
            self._stats = stats
            self._occurrences: List[Occurrence] = []
            self._path: List[Tuple[int, int]] = []  # (pattern offset, code) per mismatch
            self._mtree = MTree(m) if self._record_mtree else None

            self._continue_live(fm.full_range(), 0, 0)

            stats.memo_size = len(self._memo)
            evicted = self._evict_memo() if self._persistent_memo else 0
            span.set(
                leaves=stats.leaves,
                reuse_hits=stats.reuse_hits,
                shared_reuse_hits=stats.shared_reuse_hits,
                memo_size=stats.memo_size,
                occurrences=len(self._occurrences),
            )
        if OBS.enabled:
            record_search_metrics(self.engine_name, stats, len(self._occurrences), k)
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
        self.last_mtree = self._mtree
        return sorted(self._occurrences), stats

    def _evict_memo(self) -> int:
        """Enforce ``memo_limit`` by dropping oldest-generation entries.

        Generation granularity keeps this out of the per-node hot path: a
        single O(table) sweep between queries, no per-hit LRU bookkeeping.
        Entries recorded by the just-finished query are never dropped, so
        the bound is soft for a single oversized search.
        """
        excess = len(self._memo) - self._memo_limit
        if excess <= 0:
            return 0
        per_gen: dict = {}
        for entry in self._memo.values():
            gen = entry[0].gen
            per_gen[gen] = per_gen.get(gen, 0) + 1
        cutoff = -1
        drop = 0
        for gen in sorted(per_gen):
            if gen == self._generation or drop >= excess:
                break
            drop += per_gen[gen]
            cutoff = gen
        if cutoff < 0:
            return 0
        self._memo = {
            key: value for key, value in self._memo.items() if value[0].gen > cutoff
        }
        return drop

    @property
    def tables(self) -> Optional[MismatchTables]:
        """The R tables of the most recent search (built on first use)."""
        if getattr(self, "_pattern", None) is None:
            return None
        if self._tables_cache is None:
            self._tables_cache = MismatchTables(self._pattern, self._k)
        return self._tables_cache

    @property
    def _oracle(self):
        return self.tables.oracle

    # -- path recording -----------------------------------------------------------

    def _record_complete(self, rng: Range) -> None:
        stats = self._stats
        stats.leaves += 1
        stats.completed_paths += 1
        mm = tuple(pos for pos, _ in self._path)
        fm = self._fm
        for row in range(rng.lo, rng.hi):
            start = self._n - fm.suffix_position(row) - self._m
            stats.rows_located += 1
            self._occurrences.append(Occurrence(start, mm))
        if self._mtree is not None:
            self._mtree.add_path(self._decorated_path())

    def _record_dead(self, length: int) -> None:
        self._stats.leaves += 1
        self._stats.dead_ends += 1
        if self._mtree is not None:
            self._mtree.add_path(self._decorated_path(), length=length)

    def _record_budget_cut(self, pos: int, code: int) -> None:
        self._stats.leaves += 1
        self._stats.budget_pruned += 1
        if self._mtree is not None:
            extra = self._decorated_path() + [(pos, self._fm.alphabet.symbol(code))]
            self._mtree.add_path(extra, length=pos + 1)

    def _record_phi_cut(self, length: int) -> None:
        self._stats.leaves += 1
        self._stats.phi_pruned += 1
        if self._mtree is not None:
            self._mtree.add_path(self._decorated_path(), length=length)

    def _decorated_path(self) -> List[Tuple[int, str]]:
        symbol = self._fm.alphabet.symbol
        return [(pos, symbol(code)) for pos, code in self._path]

    # -- live exploration -----------------------------------------------------------

    def _continue_live(self, rng: Range, offset: int, used: int) -> None:
        """Match ``pattern[offset:]`` from ``rng`` (offset < m), memo-aware."""
        if rng.hi - rng.lo < self._min_memo_width:
            self._light(rng, offset, used)
            return
        if self._phi is not None and self._k - used < self._phi[offset]:
            self._record_phi_cut(offset)
            return
        key = (rng.lo, rng.hi)
        hit = self._memo.get(key) if self._enable_reuse else None
        if hit is not None:
            self._stats.reuse_hits += 1
            if hit[0].gen != self._generation:
                self._stats.shared_reuse_hits += 1
            self._replay(hit[0], hit[1], offset, used)
            return
        self._stats.rank_queries += 1
        branches = self._fm.children(rng)
        pseudo = _Run(offset, [], [rng], [], self._generation)
        if self._enable_reuse:
            self._memo[key] = (pseudo, -1)
        if not branches:
            pseudo.status = "dead"
            self._record_dead(offset)
            return
        self._expand_branches(pseudo, branches, offset, used)

    def _light(self, rng: Range, offset: int, used: int) -> None:
        """Lean non-recording DFS for ranges below the memo threshold.

        Identical pruning and leaf accounting to the recording path, but
        no hash-table inserts and no stored structure — these subtrees are
        thin and their re-derivation would save (almost) nothing.
        """
        if offset == self._m:
            self._record_complete(rng)
            return
        if self._phi is not None and self._k - used < self._phi[offset]:
            self._record_phi_cut(offset)
            return
        self._stats.rank_queries += 1
        children = self._fm.children(rng)
        if not children:
            self._record_dead(offset)
            return
        stats = self._stats
        pcode = self._pcodes[offset]
        k = self._k
        path = self._path
        for code, crng in children:
            if code == pcode:
                stats.nodes_expanded += 1
                self._light(crng, offset + 1, used)
            elif used < k:
                stats.nodes_expanded += 1
                path.append((offset, code))
                self._light(crng, offset + 1, used + 1)
                path.pop()
            else:
                self._record_budget_cut(offset, code)

    def _expand_branches(self, parent: _Run, branches: List[Tuple[int, Range]], offset: int, used: int) -> None:
        """Attach and explore one child per branch.

        Children recorded for derivation become :class:`_Run` nodes;
        budget stubs and below-threshold ("light") children stay as raw
        ``(code, range)`` tuples — the replay machinery re-scores the one
        character directly and resumes live from the stored range.
        """
        # Attach the (mutable) list before exploring so concurrent replays
        # (range recurrence along this very path) see a valid, if partial,
        # tree.
        kids: List[object] = []
        parent.children = kids
        parent.status = "inner"
        pcode = self._pcodes[offset]
        k = self._k
        threshold = self._min_memo_width
        path = self._path
        for code, crng in branches:
            is_mm = code != pcode
            if used + is_mm > k:
                kids.append((code, crng))
                self._record_budget_cut(offset, code)
                continue
            self._stats.nodes_expanded += 1
            if is_mm:
                path.append((offset, code))
            if crng.hi - crng.lo < threshold:
                kids.append((code, crng))
                self._light(crng, offset + 1, used + is_mm)
            else:
                child = _Run(offset, [code], [crng], [0] if is_mm else [], self._generation)
                kids.append(child)
                self._fill_run(child, used + is_mm)
            if is_mm:
                path.pop()

    def _fill_run(self, run: _Run, used: int) -> None:
        """Extend ``run`` along unary continuations; recurse at branch points.

        On entry the run holds exactly one consumed character whose
        mismatch (if any) is already reflected in ``used`` and
        ``self._path``.
        """
        fm = self._fm
        memo = self._memo
        pcodes = self._pcodes
        m, k = self._m, self._k
        stats = self._stats
        pushed = 0
        t = 0
        while True:
            rng = run.ranges[t]
            nxt = run.start_offset + t + 1
            if nxt == m:
                run.status = "end"
                self._record_complete(rng)
                break
            if self._phi is not None and k - used < self._phi[nxt]:
                run.status = "phi"
                self._record_phi_cut(nxt)
                break
            key = (rng.lo, rng.hi)
            if self._enable_reuse:
                hit = memo.get(key)
                if hit is not None:
                    run.status = "ref"
                    run.ref = hit
                    stats.reuse_hits += 1
                    if hit[0].gen != self._generation:
                        stats.shared_reuse_hits += 1
                    self._replay(hit[0], hit[1], nxt, used)
                    break
            stats.rank_queries += 1
            branches = fm.children(rng)
            if not branches:
                run.status = "dead"
                if self._enable_reuse:
                    memo[key] = (run, t)
                self._record_dead(nxt)
                break
            if len(branches) == 1:
                code, crng = branches[0]
                is_mm = code != pcodes[nxt]
                if used + is_mm <= k and crng.hi - crng.lo >= self._min_memo_width:
                    if self._enable_reuse:
                        memo[key] = (run, t)
                    run.codes.append(code)
                    run.ranges.append(crng)
                    stats.nodes_expanded += 1
                    if is_mm:
                        run.mm_rel.append(t + 1)
                        self._path.append((nxt, code))
                        pushed += 1
                        used += 1
                    t += 1
                    continue
            if self._enable_reuse:
                memo[key] = (run, t)
            self._expand_branches(run, branches, nxt, used)
            break
        for _ in range(pushed):
            self._path.pop()

    # -- derivation (replay of memoised subtrees) ------------------------------------

    def _replay(self, run: _Run, t: int, offset: int, used: int) -> None:
        """Re-score the stored continuation of ``run`` after index ``t``
        against pattern offset ``offset`` — the paper's node-creation().
        """
        m, k = self._m, self._k
        if self._phi is not None and k - used < self._phi[offset]:
            self._record_phi_cut(offset)
            return
        stored = len(run.codes) - (t + 1)
        need = m - offset
        window = min(stored, need)
        a = run.start_offset + t + 1  # original comparison offset
        pushed = 0
        cut = False
        if window > 0:
            if window <= _DIRECT_SCAN_LIMIT or run.gen != self._generation:
                # Direct compare loop: for short stored segments it beats
                # the kangaroo-jump setup cost; for segments recorded by an
                # *earlier query* (persistent memo) it is the only sound
                # option — the kangaroo merge interprets ``mm_rel`` against
                # the pattern the segment was first scored on.  Stored
                # codes themselves are pattern-independent, so comparing
                # them against the current pattern is exact either way.
                codes = run.codes
                pcodes = self._pcodes
                base = t + 1
                path = self._path
                for o in range(window):
                    code = codes[base + o]
                    if code != pcodes[offset + o]:
                        if used == k:
                            self._record_budget_cut(offset + o, code)
                            cut = True
                            break
                        used += 1
                        path.append((offset + o, code))
                        pushed += 1
            else:
                for o, code in self._iter_replay_mismatches(run, t, a, offset, window):
                    if used == k:
                        self._record_budget_cut(offset + o, code)
                        cut = True
                        break
                    used += 1
                    self._path.append((offset + o, code))
                    pushed += 1
            self._stats.chars_replayed += window
        if not cut:
            if need <= stored:
                # Paper case i < j: the stored subtree out-covers the new
                # context; the occurrence range is mid-run.
                self._record_complete(run.ranges[t + need])
            else:
                after = offset + stored
                status = run.status
                if status == "inner":
                    for child in run.children:
                        if type(child) is _Run:
                            self._replay(child, -1, after, used)
                        else:
                            self._replay_slot(child[0], child[1], after, used)
                elif status == "dead":
                    self._record_dead(after)
                elif status == "ref":
                    self._stats.reuse_hits += 1
                    if run.ref[0].gen != self._generation:
                        self._stats.shared_reuse_hits += 1
                    self._replay(run.ref[0], run.ref[1], after, used)
                else:
                    # 'end' (paper case i > j: extend), 'stub' (first visit
                    # had no budget), 'phi' (first visit cut by φ), 'light'
                    # (below-threshold subtree, re-walked leanly), or
                    # 'open' (range recurrence along the path under
                    # construction): resume a live search.
                    self._continue_live(run.ranges[-1], after, used)
        for _ in range(pushed):
            self._path.pop()

    def _replay_slot(self, code: int, crng: Range, offset: int, used: int) -> None:
        """Re-score an unrecorded child slot (stub or light) at ``offset``."""
        is_mm = code != self._pcodes[offset]
        if used + is_mm > self._k:
            self._record_budget_cut(offset, code)
            return
        if is_mm:
            self._path.append((offset, code))
        if offset + 1 == self._m:
            self._record_complete(crng)
        else:
            self._continue_live(crng, offset + 1, used + is_mm)
        if is_mm:
            self._path.pop()

    def _iter_replay_mismatches(
        self, run: _Run, t: int, a: int, offset: int, window: int
    ) -> Iterator[Tuple[int, int]]:
        """Yield ``(o, code)`` for every relative depth ``o < window`` where
        the stored character disagrees with ``pattern[offset + o]``.

        Two sorted streams are merged, mirroring the paper's merge():

        * kangaroo self-mismatch offsets between pattern suffixes ``a``
          and ``offset`` — positions that *matched* at the first visit and
          now fall on a pattern self-disagreement;
        * the run's original mismatch depths — stored characters compared
          directly against the new pattern position (paper step 4).
        """
        pcodes = self._pcodes
        codes = run.codes
        orig = run.mm_rel
        stats = self._stats
        qi = bisect_right(orig, t)
        kang = (
            self._oracle.iter_mismatch_offsets(a, offset, window)
            if a != offset
            else iter(())
        )
        ko = next(kang, None)
        while True:
            oo = orig[qi] - (t + 1) if qi < len(orig) else None
            if oo is not None and oo >= window:
                oo = None
            if ko is None and oo is None:
                return
            stats.derivation_jumps += 1
            if oo is None or (ko is not None and ko < oo):
                # Matched originally (stored char == pattern[a+o]); the
                # pattern disagrees with itself here, so it is a mismatch
                # against the new offset.
                yield ko, codes[t + 1 + ko]
                ko = next(kang, None)
            else:
                if ko is not None and ko == oo:
                    ko = next(kang, None)  # same depth; resolved directly
                code = codes[t + 1 + oo]
                if code != pcodes[offset + oo]:
                    yield oo, code
                qi += 1
