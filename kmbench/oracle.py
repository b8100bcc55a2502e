"""Independent brute-force oracle for the correctness gate.

A Hamming scan over *every* window of the target that shares no code
with the index: per-character bitsets of the target (Python ints, bit i
= position i) and k+1 saturating bit-parallel "at least t mismatches"
counters, one pattern column at a time.  Once few windows are still
within the budget, those are finished by direct comparison; the
windows that never exceed k mismatches are exactly the k-mismatch
occurrences.

``check_against_naive`` cross-checks this scan with
``repro.baselines.naive`` so the oracle is itself verified on every run.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

_COMPLEMENT = str.maketrans("acgt", "tgca")

#: A canonical occurrence: ``(start, mismatch offsets)``.
Hit = Tuple[int, Tuple[int, ...]]

#: Switch from bit-parallel columns to direct comparison once at most
#: this many windows are still within the budget (checked every 4 columns).
DIRECT_WINDOWS = 64


def revcomp(seq: str) -> str:
    """Reverse complement over ``acgt`` (the oracle's own, not the program's)."""
    return seq.translate(_COMPLEMENT)[::-1]


class HammingScan:
    """All-windows k-mismatch scan of one target."""

    def __init__(self, text: str):
        self.text = text
        self._masks: Dict[str, int] = {}
        reversed_bytes = text[::-1].encode("ascii")
        for ch in set(text):
            table = bytes(0x31 if b == ord(ch) else 0x30 for b in range(256))
            self._masks[ch] = int(reversed_bytes.translate(table), 2)

    def search(self, pattern: str, k: int) -> List[Hit]:
        """Every window within Hamming distance ``k``, sorted by start."""
        text = self.text
        n, m = len(text), len(pattern)
        if m == 0 or m > n:
            return []
        full = (1 << (n - m + 1)) - 1
        at_least = [0] * (k + 1)  # at_least[t]: windows with > t mismatches
        for j, ch in enumerate(pattern):
            miss = ~(self._masks.get(ch, 0) >> j) & full
            for t in range(k, 0, -1):
                at_least[t] |= at_least[t - 1] & miss
            at_least[0] |= miss
            if j % 4 == 3 and (~at_least[k] & full).bit_count() <= DIRECT_WINDOWS:
                break
        bits = format(~at_least[k] & full, "b")[::-1]
        hits = []
        start = bits.find("1")
        while start != -1:
            window = text[start:start + m]
            mismatches = tuple(j for j in range(m) if window[j] != pattern[j])
            if len(mismatches) <= k:
                hits.append((start, mismatches))
            start = bits.find("1", start + 1)
        return hits

    def map_read(self, read: str, k: int) -> List[Tuple[int, Tuple[int, ...], str]]:
        """Both-strand hits as ``(start, mismatches, strand)``, in the
        order ``KMismatchIndex.map_read`` promises."""
        hits = [(s, mm, "+") for s, mm in self.search(read, k)]
        hits += [(s, mm, "-") for s, mm in self.search(revcomp(read), k)]
        return sorted(hits)


def check_against_naive(scan: HammingScan, pattern: str, k: int) -> bool:
    """True when the bitset scan equals ``repro.baselines.naive`` on ``pattern``."""
    from repro.baselines.naive import naive_search

    expected = [(o.start, o.mismatches) for o in naive_search(scan.text, pattern, k)]
    return scan.search(pattern, k) == expected
