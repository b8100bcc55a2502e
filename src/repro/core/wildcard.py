"""String matching with don't-care symbols over the BWT array.

The third inexact-matching variant of paper Sec. II: the pattern may
contain wild cards that match any target character.  The paper notes the
match relation stops being transitive under wild cards, which breaks
KMP/Boyer–Moore shifting — but the BWT tree search absorbs them
naturally: a wild-card position simply branches to *every* child without
spending mismatch budget.  Combined with the mismatch budget ``k`` this
gives "k mismatches + don't-cares" in one walk.

In DNA practice the wild card is the IUPAC ``n`` base (unknown
nucleotide), the default here.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..bwt.fmindex import FMIndex
from ..errors import PatternError
from ..obs import OBS
from .types import Occurrence, SearchStats

#: Default wild-card character (IUPAC "any nucleotide").
DEFAULT_WILDCARD = "n"


class WildcardSearcher:
    """k-mismatch search with don't-care pattern positions.

    >>> from repro.alphabet import DNA
    >>> fm = FMIndex("acagaca"[::-1], DNA)
    >>> [o.start for o in WildcardSearcher(fm).search("ana", 0)]
    [0, 2, 4]
    """

    def __init__(self, fm_reverse: FMIndex, wildcard: str = DEFAULT_WILDCARD):
        if len(wildcard) != 1:
            raise PatternError("wildcard must be a single character")
        self._fm = fm_reverse
        self._wildcard = wildcard

    def search(self, pattern: str, k: int = 0) -> List[Occurrence]:
        """Occurrences of ``pattern`` with ≤ ``k`` mismatches at non-wild
        positions; wild-card positions match anything for free.

        The reported mismatch offsets never include wild-card positions.
        """
        return self.search_with_stats(pattern, k)[0]

    def search_with_stats(
        self, pattern: str, k: int = 0
    ) -> Tuple[List[Occurrence], SearchStats]:
        """Like :meth:`search`, also returning the locate counts
        (``rows_located``, ``locate_steps``)."""
        if not pattern:
            raise PatternError("pattern must be non-empty")
        if k < 0:
            raise PatternError(f"k must be non-negative, got {k}")
        fm = self._fm
        m = len(pattern)
        stats = SearchStats()
        if m > fm.text_length:
            return [], stats
        with OBS.span("wildcard.search", m=m, k=k, wildcard=self._wildcard) as span:
            # None marks a wild-card slot.
            wanted: List[Optional[int]] = [
                None if ch == self._wildcard else fm.alphabet.code(ch) for ch in pattern
            ]
            out = self._walk(wanted, k, stats)
            span.set(occurrences=len(out))
        out.sort()
        return out, stats

    # -- internals -----------------------------------------------------------

    def _walk(
        self, wanted: List[Optional[int]], k: int, stats: SearchStats
    ) -> List[Occurrence]:
        """The S-tree walk over an explicit stack of ``(lo, hi, offset,
        mismatch offsets)`` frames; a wild card takes every child free.
        A completed path's rows are located as one range."""
        fm = self._fm
        m = len(wanted)
        end = fm.text_length - m
        new = tuple.__new__
        out: List[Occurrence] = []
        stack: List[Tuple[int, int, int, Tuple[int, ...]]] = [(0, fm.n_rows, 0, ())]
        while stack:
            lo, hi, offset, mm = stack.pop()
            if offset == m:
                located, walked = fm.locate_rows(lo, hi)
                stats.rows_located += len(located)
                stats.locate_steps += walked
                out += [new(Occurrence, (end - pos, mm)) for pos in located]
                continue
            want = wanted[offset]
            for code, clo, chi in fm.children((lo, hi)):
                if want is None or code == want:
                    stack.append((clo, chi, offset + 1, mm))
                elif len(mm) < k:
                    stack.append((clo, chi, offset + 1, mm + (offset,)))
        return out


def naive_wildcard_search(
    text: str, pattern: str, k: int, wildcard: str = DEFAULT_WILDCARD
) -> List[Occurrence]:
    """Direct wild-card-aware scan (testing oracle)."""
    if not pattern:
        raise PatternError("pattern must be non-empty")
    m = len(pattern)
    out: List[Occurrence] = []
    for start in range(len(text) - m + 1):
        mismatches: List[int] = []
        for offset in range(m):
            if pattern[offset] == wildcard:
                continue
            if text[start + offset] != pattern[offset]:
                mismatches.append(offset)
                if len(mismatches) > k:
                    break
        else:
            out.append(tuple.__new__(Occurrence, (start, tuple(mismatches))))
    return out
