"""String matching with k errors (Levenshtein) over the BWT array.

Paper Sec. II distinguishes three inexact-matching problems: k mismatches
(Hamming — the paper's subject), **k errors** (Levenshtein, "d_{i,j} =
min{...}" dynamic programming), and don't-cares.  This module extends the
same BWT-array machinery to the k-errors problem, the natural companion
feature a production release of the paper's system would ship: the index
search tree is walked exactly as in the S-tree, but each node carries a
banded row of the edit-distance DP between the consumed target substring
and the pattern.

Semantics: :func:`KErrorsSearcher.search` reports every target substring
``s[start : start+length]`` whose edit distance to the pattern is at most
``k``, as :class:`EditOccurrence` records.  Because insertions/deletions
change the window length, several lengths can match at one start;
:func:`best_per_start` reduces to the closest window per start position.

Complexity: O(k) work per node of the pruned search tree (the DP band has
2k+1 cells), matching the banded-DP tradition the paper cites ([47]-style
O(kn) expected behaviour on the text side).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Sequence, Tuple

from ..bwt.fmindex import FMIndex
from ..errors import PatternError
from ..obs import OBS
from .types import SearchStats

_INF = float("inf")


@dataclass(frozen=True, order=True)
class EditOccurrence:
    """One approximate occurrence under edit distance.

    ``length`` is the matched window's length in the target (it may
    differ from the pattern length by up to ``k``); ``distance`` is the
    Levenshtein distance between the window and the pattern.
    """

    start: int
    length: int
    distance: int

    def end(self) -> int:
        """Exclusive end position of the window."""
        return self.start + self.length


#: Sort key for k-errors windows: ``(start, length, distance)``, exactly
#: :class:`EditOccurrence`'s dataclass order, read in C.
EDIT_ORDER = attrgetter("start", "length", "distance")


def edit_distance(a: str, b: str) -> int:
    """Plain O(|a||b|) Levenshtein distance (testing/verification oracle).

    >>> edit_distance("acagaca", "acgaca")
    1
    """
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,          # delete from a
                    current[j - 1] + 1,       # insert into a
                    previous[j - 1] + (ch_a != ch_b),
                )
            )
        previous = current
    return previous[-1]


class KErrorsSearcher:
    """k-errors search over an FM-index of the *reversed* target.

    Mirrors :class:`~repro.core.stree.STreeSearcher`'s tree walk, with a
    banded edit-distance row per node instead of a mismatch counter.

    >>> from repro.alphabet import DNA
    >>> fm = FMIndex("acagaca"[::-1], DNA)
    >>> occs = KErrorsSearcher(fm).search("acgaca", 1)
    >>> (0, 7, 1) in {(o.start, o.length, o.distance) for o in occs}
    True
    """

    def __init__(self, fm_reverse: FMIndex):
        self._fm = fm_reverse

    def search(self, pattern: str, k: int) -> List[EditOccurrence]:
        """All windows of the target within edit distance ``k`` of ``pattern``."""
        return self.search_with_stats(pattern, k)[0]

    def search_with_stats(
        self, pattern: str, k: int
    ) -> Tuple[List[EditOccurrence], SearchStats]:
        """Like :meth:`search`, also returning the locate counts
        (``rows_located``, ``locate_steps``)."""
        if not pattern:
            raise PatternError("pattern must be non-empty")
        if k < 0:
            raise PatternError(f"k must be non-negative, got {k}")
        fm = self._fm
        m = len(pattern)
        stats = SearchStats()
        with OBS.span("kerrors.search", m=m, k=k) as span:
            out = self._walk(fm.alphabet.encode(pattern), k, stats)
            span.set(occurrences=len(out))
        return sorted(out, key=EDIT_ORDER), stats

    # -- internals ------------------------------------------------------------

    def _walk(
        self, pattern_codes: Sequence[int], k: int, stats: SearchStats
    ) -> List[EditOccurrence]:
        """The S-tree walk over an explicit stack of ``(rlo, rhi, depth,
        row)`` frames, ``[rlo, rhi)`` the frame's BW row range.

        ``row[j]`` is the edit distance between the consumed target
        substring and ``pattern[:j]``, or infinity above ``k``.  At depth
        ``d`` only cells with ``|j - d| <= k`` can be finite, so each row is
        computed on that band of 2k+1 cells.  A frame whose last cell is
        within ``k`` ends a window at every row of its range, all of the
        frame's depth, so the range is located at once.
        """
        fm = self._fm
        m = len(pattern_codes)
        n = fm.text_length
        out: List[EditOccurrence] = []
        seen: set = set()
        # Depth 0: row[j] = j (delete j pattern characters), banded at k.
        root = [j if j <= k else _INF for j in range(m + 1)]
        stack: List[Tuple[int, int, int, List[float]]] = [(0, fm.n_rows, 0, root)]
        while stack:
            rlo, rhi, depth, row = stack.pop()
            if row[m] <= k and depth > 0:
                located, walked = fm.locate_rows(rlo, rhi)
                stats.rows_located += len(located)
                stats.locate_steps += walked
                for pos in located:
                    start = n - pos - depth
                    if (start, depth) not in seen:
                        seen.add((start, depth))
                        out.append(EditOccurrence(start, depth, int(row[m])))
            # The matched window never needs to exceed m + k characters.
            if depth >= m + k:
                continue
            d = depth + 1
            lo, hi = max(1, d - k), min(m, d + k)
            for code, clo, chi in fm.children((rlo, rhi)):
                new_row: List[float] = [_INF] * (m + 1)
                # First column: d target characters vs the empty pattern
                # prefix = d deletions from the target window.
                if d <= k:
                    new_row[0] = d
                for j in range(lo, hi + 1):
                    best = min(
                        row[j] + 1,                                   # extra target char
                        new_row[j - 1] + 1,                           # extra pattern char
                        row[j - 1] + (code != pattern_codes[j - 1]),  # (mis)match
                    )
                    if best <= k:
                        new_row[j] = best
                if min(new_row[lo - 1:hi + 1]) <= k:
                    stack.append((clo, chi, d, new_row))
        return out


def best_per_start(occurrences: List[EditOccurrence]) -> List[EditOccurrence]:
    """Reduce to the lowest-distance (then shortest) window per start.

    >>> occs = [EditOccurrence(3, 9, 1), EditOccurrence(3, 10, 0)]
    >>> best_per_start(occs)
    [EditOccurrence(start=3, length=10, distance=0)]
    """
    best: Dict[int, EditOccurrence] = {}
    for occ in occurrences:
        kept = best.get(occ.start)
        if kept is None or (occ.distance, occ.length) < (kept.distance, kept.length):
            best[occ.start] = occ
    return sorted(best.values(), key=EDIT_ORDER)


def naive_kerrors_search(text: str, pattern: str, k: int) -> List[EditOccurrence]:
    """Direct per-window k-errors scan (testing oracle).

    Checks every ``(start, length)`` window with ``length`` within ``k``
    of the pattern length.  O(n · k · m²) — fine for the property tests,
    not for production use.
    """
    if not pattern:
        raise PatternError("pattern must be non-empty")
    if k < 0:
        raise PatternError(f"k must be non-negative, got {k}")
    m = len(pattern)
    out = []
    for start in range(len(text)):
        for length in range(max(0, m - k), min(m + k, len(text) - start) + 1):
            if length == 0:
                continue
            window = text[start:start + length]
            distance = edit_distance(window, pattern)
            if distance <= k:
                out.append(EditOccurrence(start, length, distance))
    return sorted(out)
