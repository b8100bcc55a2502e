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
(:mod:`repro.core.algorithm_a`) runs it with its memo (:class:`Memo`).
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from ..bwt.fmindex import FMIndex
from ..errors import PatternError
from ..obs import OBS
from .types import Occurrence, SearchStats


def compute_phi(
    fm_reverse: FMIndex,
    pattern_codes: Sequence[int],
    cap: Optional[int] = None,
    stats: Optional[SearchStats] = None,
) -> List[int]:
    """The paper's φ table for one pattern, capped at ``cap``.

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
    instead of the O(m²) of restarting a search at every offset.  Each
    step is ``lf(code, ·)`` = ``C[code] + occ(code, ·)`` at both ends of
    the range, through :meth:`FMIndex.lf_parts`.

    A search with budget ``k`` only asks whether ``k - used < φ``, which
    decides the same for ``min(φ, k + 1)``; the searchers pass
    ``cap = k + 1``.  The chain stops after ``cap`` links, which leaves
    exactly ``min(φ, cap)``.  Before it, the pattern is cut into ``cap``
    disjoint blocks, tested right to left up to the first that occurs.
    If none occurs they are ``cap`` disjoint absent substrings, so
    ``φ(0) >= cap`` (the pigeonhole filter: a window with fewer
    mismatches than blocks matches one block exactly), and the table
    counts the blocks instead of building the chain.  So every entry is
    a sound lower bound on φ, ``phi[0] >= min(φ(0), cap)``, and whenever
    ``phi[0] < cap`` the table is ``min(φ, cap)`` at every offset.
    Without a cap the table is φ itself.

    The returned list has length ``m + 1`` with ``phi[m] = 0``.  With
    ``stats``, the LF steps taken (block tests included) are added to
    ``stats.phi_steps``.

    >>> from repro.alphabet import DNA
    >>> fm = FMIndex("acagaca"[::-1], DNA)
    >>> compute_phi(fm, DNA.encode("tcaca"))
    [2, 1, 0, 0, 0, 0]
    >>> compute_phi(fm, DNA.encode("tcaca"), cap=1)  # the one block is absent
    [1, 0, 0, 0, 0, 0]
    """
    m = len(pattern_codes)
    n_rows = fm_reverse.n_rows
    _, lf = fm_reverse.lf_parts()
    steps = 0

    def absent(start: int, end: int) -> bool:
        nonlocal steps
        lo, hi = 0, n_rows
        for pos in range(start, end):
            code = pattern_codes[pos]
            lo = lf(code, lo)
            hi = lf(code, hi)
            if hi <= lo:
                steps += pos - start + 1
                return True
        steps += end - start
        return False

    def latest_absent_start(end: int, present: int) -> int:
        """Largest ``s`` with ``pattern[s:end]`` absent, or -1 if none is;
        ``pattern[present:end]`` is known to occur."""
        # Gallop: widen pattern[end - step : end] past the known present
        # start until it is absent ...
        step = 2 * (end - present) or 1
        while present > 0:
            start = max(end - step, 0)
            if absent(start, end):
                break
            present, step = start, step * 2
        else:
            return -1
        # ... then binary search between the absent and present starts.
        while present - start > 1:
            mid = (start + present) // 2
            if absent(mid, end):
                start = mid
            else:
                present = mid
        return start

    # No more than m disjoint substrings fit in the pattern.
    cap = m if cap is None else min(cap, m)
    bounds = [j * m // cap for j in range(cap + 1)] if cap > 0 else [0]
    block = cap
    while block > 0 and absent(bounds[block - 1], bounds[block]):
        block -= 1
    starts = bounds[:-1]
    if block > 0:
        # The chain's first link may skip the last block if it occurs.
        present = bounds[cap - 1] if block == cap else m
        starts = []
        start = m
        while len(starts) < cap:
            start = latest_absent_start(start, present)
            if start < 0:
                break
            starts.append(start)
            present = start
    phi = [0] * (m + 1)
    for start in starts:
        phi[start] = 1
    for i in range(m - 1, -1, -1):
        phi[i] += phi[i + 1]
    if stats is not None:
        stats.phi_steps += steps
    return phi


#: A path's mismatches: ``(pattern offset, code)`` pairs in offset order;
#: its length is the mismatch budget the path has spent.
Mismatches = Tuple[Tuple[int, int], ...]
#: Children of a node: ``(code, lo, hi)`` triples, highest code first, as
#: :meth:`FMIndex.children` returns them.
Children = Tuple[Tuple[int, int, int], ...]
#: ``on_leaf(depth, mm)``: called once per leaf; see :func:`tree_search`.
LeafCallback = Callable[[int, Mismatches], None]


class Memo(NamedTuple):
    """Algorithm A's hash table of visited pairs, as :func:`tree_search`
    probes it during one search.

    ``table`` maps a range ``[lo, hi)`` at least ``min_width`` rows wide,
    keyed by the int ``lo * (n_rows + 1) + hi``, to one of two records,
    each ending in ``gen``, the search that recorded it:

    * ``(code, lo, hi, code, lo, hi, ..., gen)``: the range's children,
      the triples :meth:`FMIndex.children` returned laid end to end.  One
      tuple of ints, so the first garbage collection it survives untracks
      it; nested tuples would take one collection per level;
    * ``(chain, t, gen)``: the range has one child and is step ``t`` of a
      unary chain of the index (:class:`repro.core.algorithm_a._Chain`).
      Only a chain record has three items; a children record has
      ``3n + 1``.

    The loop records a miss itself, except one with exactly one child:
    that extends a chain through ``extend(key, lo, hi, i, children)``.  A chain
    hit is handed to ``replay(record, i, mm)``, which scores the stored
    characters it can and returns ``(i, mm, children)`` for the node
    where it stops, on the same path.
    """

    table: dict
    gen: int
    extend: Callable[[int, int, int, int, Children], None]
    replay: Callable[[tuple, int, Mismatches], Tuple[int, Mismatches, Children]]


def tree_search(
    fm: FMIndex,
    pattern_codes: Sequence[int],
    k: int,
    phi: Optional[Sequence[int]],
    stats: SearchStats,
    memo: Optional[Memo] = None,
    min_width: int = 1,
    on_leaf: Optional[LeafCallback] = None,
) -> List[Occurrence]:
    """The S-tree search: every path of at most ``k`` mismatches, depth first.

    The one tree search behind both :class:`STreeSearcher` and Algorithm A.
    It walks an explicit stack of frames ``(lo, hi, offset, mismatches)``,
    ``[lo, hi)`` the node's BW row range, so its depth is bounded by
    memory, not by the recursion limit.  A frame at offset ``m`` is a
    completed path: its rows are located and reported.  Otherwise the
    node's children are scored against ``pattern[offset]``: a match keeps
    the budget, a mismatch spends one unit, and a mismatch with no budget
    left is a budget-cut leaf.  A child whose remaining budget is below
    ``phi`` at its offset is a φ-cut leaf: it counts as a node but is
    never pushed.  The root is φ-tested once, before the loop.  Children
    come highest code first and are pushed in that order, so they are
    explored in code order.

    ``memo``, when given, is Algorithm A's table (:class:`Memo`), probed
    with one ``dict.get`` on ranges at least ``min_width`` rows wide.  A
    children hit is read straight off the flat record; a chain hit may
    move the frame to a deeper node on the same path.  Both count in
    ``reuse_hits`` (and in ``shared_reuse_hits`` when an earlier search
    recorded them), and their children count in ``chars_replayed``.  A
    miss calls ``fm.children`` and records the result flat.  Children
    taken from the index count in ``nodes_expanded``.
    ``on_leaf(depth, mismatches)`` is called once per leaf; a budget-cut
    leaf passes the mismatch that was cut as its last pair.

    A range one row wide that the memo does not take is one text
    position, so its only continuation is ``L[row]`` and its next row is
    one LF step.  Such a range is walked in place, row by row, rather than
    expanded through ``fm.children``.  Its single child would be popped
    next anyway, so the nodes, leaves and ``on_leaf`` calls are the ones
    the stack would make.  Each row walked counts in ``lf_steps`` where a
    ``children()`` call would have counted in ``rank_queries``.

    Counts are added to ``stats``; the occurrences come back unsorted.
    """
    m = len(pattern_codes)
    end = fm.text_length - m  # a row at text position p starts at end - p
    children_of = fm.children
    char_code_at, lf = fm.lf_parts()
    locate_rows = fm.locate_rows
    if memo is not None:
        table, gen, extend, replay = memo
        probe = table.get
        stride = fm.n_rows + 1
    new = tuple.__new__
    occurrences: List[Occurrence] = []
    report = occurrences.append
    nodes = replayed = probes = rows = completed = phi_cuts = dead = budget_cuts = 0
    lf_steps = locate_steps = reuse = shared = 0
    stack: List[Tuple[int, int, int, Mismatches]] = [(0, fm.n_rows, 0, ())]
    if phi is not None and k < phi[0]:
        stack.clear()
        phi_cuts += 1
        if on_leaf is not None:
            on_leaf(0, ())
    pop = stack.pop
    push = stack.append
    while stack:
        lo, hi, i, mm = pop()
        if i == m:
            completed += 1
            rows += hi - lo
            positions = tuple([pos for pos, _ in mm])
            located, walked = locate_rows(lo, hi)
            locate_steps += walked
            occurrences += [new(Occurrence, (end - pos, positions)) for pos in located]
            if on_leaf is not None:
                on_leaf(i, mm)
            continue
        used = len(mm)
        if memo is not None and hi - lo >= min_width:
            key = lo * stride + hi
            record = probe(key)
            if record is None:
                probes += 1
                children = children_of((lo, hi))
                if len(children) == 1:
                    extend(key, lo, hi, i, children)
                else:
                    table[key] = sum(children, ()) + (gen,)
                derived = False
            else:
                reuse += 1
                if record[-1] != gen:
                    shared += 1
                if len(record) == 3:
                    i, mm, children = replay(record, i, mm)
                    used = len(mm)
                elif len(record) == 1:  # (gen,): a one-row range on the sentinel
                    children = ()
                else:
                    it = iter(record)
                    children = zip(it, it, it)
                derived = True
        elif hi - lo == 1:
            row = lo
            while True:
                lf_steps += 1
                code = char_code_at(row)
                if not code:  # the sentinel: the text ends here
                    dead += 1
                    break
                if code != pattern_codes[i]:
                    mm += ((i, code),)
                    if used >= k:
                        budget_cuts += 1
                        break
                    used += 1
                row = lf(code, row)
                i += 1
                nodes += 1
                if i == m:
                    completed += 1
                    rows += 1
                    located, walked = locate_rows(row, row + 1)
                    locate_steps += walked
                    report(new(Occurrence, (end - located[0], tuple([pos for pos, _ in mm]))))
                    break
                if phi is not None and k - used < phi[i]:
                    phi_cuts += 1
                    break
            if on_leaf is not None:
                on_leaf(i, mm)
            continue
        else:
            probes += 1
            children = children_of((lo, hi))
            derived = False
        if not children:
            dead += 1
            if on_leaf is not None:
                on_leaf(i, mm)
            continue
        want = pattern_codes[i]
        deeper = i + 1
        # Budget left over φ at the children's offset: below 0 every
        # child is φ-cut, at 0 every mismatching one.
        slack = k - used - (phi[deeper] if phi is not None else 0)
        kept = 0
        for code, clo, chi in children:
            if code == want:
                child_mm = mm
                cut = slack < 0
            elif used < k:
                child_mm = mm + ((i, code),)
                cut = slack <= 0
            else:
                budget_cuts += 1
                if on_leaf is not None:
                    on_leaf(i, mm + ((i, code),))
                continue
            kept += 1
            if cut:
                phi_cuts += 1
                if on_leaf is not None:
                    on_leaf(deeper, child_mm)
            else:
                push((clo, chi, deeper, child_mm))
        if derived:
            replayed += kept
        else:
            nodes += kept
    stats.nodes_expanded += nodes
    stats.chars_replayed += replayed
    stats.rank_queries += probes
    stats.reuse_hits += reuse
    stats.shared_reuse_hits += shared
    stats.lf_steps += lf_steps
    stats.locate_steps += locate_steps
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
    #: and the ``engine`` label of this engine's ``search.*`` series.
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
            phi = compute_phi(fm, pattern_codes, k + 1, stats) if self._use_phi else None
            occurrences = tree_search(fm, pattern_codes, k, phi, stats)
            span.set(leaves=stats.leaves, occurrences=len(occurrences))
        occurrences.sort()
        return occurrences, stats
