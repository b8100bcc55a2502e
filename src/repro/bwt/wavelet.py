"""Wavelet-tree rank structure: an alternative occ backend.

The paper's rankall arrays (Fig. 2) store one cumulative count per
character per checkpoint — O(σ) words per checkpoint.  The standard
alternative in the FM-index literature is the **wavelet tree**: a binary
decomposition of the alphabet where each node holds one rank-indexed
bitvector, answering ``occ(c, i)`` in O(log σ) bitvector ranks with
n·log σ bits total, independent of σ.

This module provides:

* :class:`BitVector` — an immutable bitmap with O(1) ``rank1`` via 64-bit
  words and per-word prefix counts;
* :class:`WaveletTree` — balanced code-range decomposition with
  ``rank``/``access``;
* :class:`WaveletRank` — an adapter exposing the same interface as
  :class:`~repro.bwt.rankall.RankAll`, so
  :class:`~repro.bwt.fmindex.FMIndex` can use either backend
  (``rank_backend="wavelet"``); the ablation benchmark compares them.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Sequence

from ..alphabet import Alphabet
from ..errors import IndexCorruptionError
from ..obs import OBS

_WORD = 64


class BitVector:
    """An immutable bitmap with constant-time rank.

    >>> bv = BitVector([1, 0, 1, 1, 0])
    >>> bv.rank1(4)
    3
    >>> bv[3]
    1
    """

    __slots__ = ("_words", "_prefix", "_length", "_total")

    def __init__(self, bits: Iterable[int]):
        words = array("Q")
        current = 0
        offset = 0
        length = 0
        for bit in bits:
            if bit:
                current |= 1 << offset
            offset += 1
            length += 1
            if offset == _WORD:
                words.append(current)
                current = 0
                offset = 0
        if offset:
            words.append(current)
        prefix = array("L", [0] * (len(words) + 1))
        running = 0
        for w, word in enumerate(words):
            prefix[w] = running
            running += bin(word).count("1")
        prefix[len(words)] = running
        self._words = words
        self._prefix = prefix
        self._length = length
        self._total = running

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._length:
            raise IndexError("BitVector index out of range")
        return (self._words[i // _WORD] >> (i % _WORD)) & 1

    def rank1(self, i: int) -> int:
        """Number of set bits in the prefix ``[:i]``."""
        if not 0 <= i <= self._length:
            raise IndexError(f"rank prefix {i} out of range 0..{self._length}")
        w, r = divmod(i, _WORD)
        count = self._prefix[w]
        if r:
            count += bin(self._words[w] & ((1 << r) - 1)).count("1")
        return count

    def rank0(self, i: int) -> int:
        """Number of clear bits in the prefix ``[:i]``."""
        return i - self.rank1(i)

    @property
    def n_set(self) -> int:
        """Total number of set bits."""
        return self._total

    def nbytes(self) -> int:
        """Payload bytes: bitmap words plus prefix counts."""
        return len(self._words) * 8 + len(self._prefix) * self._prefix.itemsize


class _Node:
    __slots__ = ("lo", "hi", "bits", "left", "right")

    def __init__(self, lo: int, hi: int, bits: BitVector):
        self.lo = lo
        self.hi = hi
        self.bits = bits
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None


class WaveletTree:
    """A balanced wavelet tree over integer codes ``0 .. n_codes-1``.

    >>> wt = WaveletTree([1, 2, 3, 0, 2, 1, 1, 1], 5)
    >>> wt.rank(1, 8)   # occurrences of code 1 in the whole sequence
    4
    >>> wt.access(2)
    3
    """

    def __init__(self, codes: Sequence[int], n_codes: int):
        if n_codes < 1:
            raise IndexCorruptionError("n_codes must be positive")
        self._length = len(codes)
        self._n_codes = n_codes
        self._root = self._build(list(codes), 0, max(n_codes, 2))

    def _build(self, codes: List[int], lo: int, hi: int) -> Optional[_Node]:
        if hi - lo <= 1 or not codes:
            return None
        mid = (lo + hi) // 2
        bits = BitVector(1 if c >= mid else 0 for c in codes)
        node = _Node(lo, hi, bits)
        node.left = self._build([c for c in codes if c < mid], lo, mid)
        node.right = self._build([c for c in codes if c >= mid], mid, hi)
        return node

    def __len__(self) -> int:
        return self._length

    def rank(self, code: int, i: int) -> int:
        """Occurrences of ``code`` in the prefix ``[:i]``."""
        if not 0 <= i <= self._length:
            raise IndexError(f"rank prefix {i} out of range 0..{self._length}")
        node = self._root
        while node is not None:
            mid = (node.lo + node.hi) // 2
            if code >= mid:
                i = node.bits.rank1(i)
                node = node.right
            else:
                i = node.bits.rank0(i)
                node = node.left
        return i

    def access(self, i: int) -> int:
        """The code at position ``i``."""
        if not 0 <= i < self._length:
            raise IndexError("access out of range")
        node = self._root
        lo, hi = 0, max(self._n_codes, 2)
        while node is not None:
            mid = (node.lo + node.hi) // 2
            if node.bits[i]:
                i = node.bits.rank1(i)
                lo, node = mid, node.right
            else:
                i = node.bits.rank0(i)
                hi, node = mid, node.left
        return lo

    def nbytes(self) -> int:
        """Total bitvector payload bytes."""
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            total += node.bits.nbytes()
            stack.extend((node.left, node.right))
        return total


class WaveletRank:
    """Drop-in occ backend over a wavelet tree (RankAll-compatible API)."""

    __slots__ = ("_tree", "_alphabet", "_size", "_length", "_totals")

    def __init__(self, bwt: str, alphabet: Alphabet, sample_rate: int = 0):
        # ``sample_rate`` accepted for interface parity; unused.
        self._alphabet = alphabet
        self._size = alphabet.size
        self._length = len(bwt)
        with OBS.span("wavelet.build", length=self._length, n_codes=alphabet.size):
            codes = alphabet.encode(bwt)
            self._tree = WaveletTree(codes, alphabet.size)
            self._totals = [0] * alphabet.size
            for c in codes:
                self._totals[c] += 1

    def __len__(self) -> int:
        return self._length

    @property
    def sample_rate(self) -> int:
        """Interface parity with RankAll; wavelet trees have no checkpoints."""
        return 0

    def char_code_at(self, i: int) -> int:
        """Integer code of ``L[i]``."""
        return self._tree.access(i)

    def occ(self, code: int, i: int) -> int:
        """Occurrences of ``code`` in ``L[:i]`` (O(log σ) bit ranks)."""
        return self._tree.rank(code, i)

    def counts_at(self, i: int) -> List[int]:
        """Per-code prefix counts at ``i`` (σ rank walks)."""
        return [self._tree.rank(code, i) for code in range(self._size)]

    def occ_range(self, code: int, lo: int, hi: int) -> int:
        """Occurrences of ``code`` in ``L[lo:hi]``."""
        return self.occ(code, hi) - self.occ(code, lo)

    def total(self, code: int) -> int:
        """Occurrences of ``code`` in the whole BWT."""
        return self._totals[code]

    def present_codes(self, lo: int, hi: int) -> List[int]:
        """Codes occurring in ``L[lo:hi]``."""
        return [c for c in range(self._size) if self.occ_range(c, lo, hi) > 0]

    def nbytes(self) -> int:
        """Payload bytes of the wavelet tree."""
        return self._tree.nbytes()

    def verify(self) -> None:
        """Spot-check ranks against totals; raise on drift."""
        for code in range(self._size):
            if self._tree.rank(code, self._length) != self._totals[code]:
                raise IndexCorruptionError(f"wavelet rank drift for code {code}")
