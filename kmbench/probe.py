"""Host-speed probe: a frozen k-mismatch search plus an integer loop.

Each probe runs the same small S-tree search (backward search over a
BWT with full occurrence tables, pure Python) over the same fixed
8 kbp text, then a fixed integer loop, and returns the wall time of
both.  It shares no code with the program, so a change to the program
never changes the probe, while the search half does the same kind of
work as the program (list indexing, tuple churn, a DFS over BWT row
ranges).  On the 2-core host this was built on, the program's S-tree
search time divided by the probe time varied by 3.4% (coefficient of
variation across 4 s windows) against 3.7% for the loop alone and
8.7% undivided; in a noisier stretch, with the program's own search in
place of the frozen one, 4.4% against 6.2% and 17%.
"""

from __future__ import annotations

import random
from time import perf_counter_ns
from typing import List, Tuple

ALPHABET = "$acgt"
TEXT_LENGTH = 8_000
PATTERN_LENGTH = 30
MISMATCHES = 3
LOOP_ITERATIONS = 25_000


class ProbeIndex:
    """A minimal FM-index over a fixed random text."""

    def __init__(self):
        rng = random.Random(0)
        text = "".join(rng.choice("acgt") for _ in range(TEXT_LENGTH)) + "$"
        # 64-character sort keys keep the build small (full suffixes would
        # briefly hold ~30 MB and show in the pass's peak RSS); on random
        # text they order the suffixes exactly like the full suffixes.
        order = sorted(range(len(text)), key=lambda i: text[i:i + 64])
        bwt = [ALPHABET.index(text[i - 1]) for i in order]
        self.occ: List[List[int]] = []
        for code in range(len(ALPHABET)):
            running, column = 0, [0]
            for value in bwt:
                running += value == code
                column.append(running)
            self.occ.append(column)
        starts, total = [], 0
        for code in range(len(ALPHABET)):
            starts.append(total)
            total += self.occ[code][-1]
        self.starts = starts
        self.rows = len(text)
        self.pattern = [ALPHABET.index(ch) for ch in text[1000:1000 + PATTERN_LENGTH]]
        self.pattern[5] = self.pattern[5] % 4 + 1

    def search(self) -> int:
        """Count k-mismatch occurrences of the fixed pattern (DFS)."""
        occ, starts, pattern = self.occ, self.starts, self.pattern
        found = 0
        stack: List[Tuple[int, int, int, int]] = [(0, self.rows, len(pattern) - 1, 0)]
        while stack:
            lo, hi, depth, used = stack.pop()
            if depth < 0:
                found += hi - lo
                continue
            want = pattern[depth]
            for code in range(1, len(ALPHABET)):
                column = occ[code]
                a = starts[code] + column[lo]
                b = starts[code] + column[hi]
                if a < b:
                    cost = used + (code != want)
                    if cost <= MISMATCHES:
                        stack.append((a, b, depth - 1, cost))
        return found

    def time_ms(self) -> float:
        """Wall time (ms) of one probe: the search, then the loop."""
        start = perf_counter_ns()
        self.search()
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i & 7
        return (perf_counter_ns() - start) / 1e6
