"""The paper's "rankall" occurrence structure (Sec. III-A, Fig. 2).

For each alphabet character ``x`` the paper keeps an array ``A_x`` with
``A_x[k]`` = number of ``x`` occurrences in ``L[0..k]``, so a sub-range
lookup inside any ``L[i..j]`` becomes two array probes instead of a scan.
To "reduce the space overhead, at cost of some more searches" the arrays
are checkpoint-sampled: one cumulative count per character every
``sample_rate`` positions (the paper stores one rankall value per 4
elements of ``L``), with the tail recovered by scanning ``L`` itself.

:class:`RankAll` exposes:

* ``occ(code, i)`` — occurrences of one character in the prefix ``L[:i]``
  (the FM backward-search primitive);
* ``counts_at(i)`` — the full per-character prefix-count row at ``i``;
* ``children(lo, hi, C)`` — the S-tree branching step: every character's
  sub-range of ``[lo, hi)`` from two row reads total instead of two
  probes per character, as ``(code, lo', hi')`` triples.

Checkpoints are stored row-major by block (one row = all characters), so
a row read is a single C-level slice.  The BWT itself is kept twice: a
2-bit-style :class:`~repro.sequence.PackedSequence` (the representation
the paper's space accounting uses — see :meth:`nbytes`) and a ``bytes``
shadow that pure Python can scan at C speed; a C implementation would
scan the packed words directly.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple

from ..alphabet import Alphabet
from ..errors import IndexCorruptionError
from ..obs import OBS
from ..sequence import PackedSequence, bits_needed

#: The paper's Fig. 2 stores one checkpoint per 4 BWT elements.
DEFAULT_SAMPLE_RATE = 4


def _slice_counter(buf):
    """A ``bytes.count``-compatible tail counter for buffers without it.

    ``memoryview`` (the zero-copy load path wraps mmap and shared-memory
    sections in one) has no ``count``; the tail between two checkpoints
    is copied out of the view and counted at C speed.
    """

    def count(code: int, lo: int, hi: int) -> int:
        return buf[lo:hi].tolist().count(code)

    return count


class RankAll:
    """Checkpoint-sampled per-character cumulative counts over a BWT array.

    Parameters
    ----------
    bwt:
        The BWT string ``L`` (sentinel included).
    alphabet:
        Alphabet the BWT is over; the sentinel is handled automatically.
        At most 256 distinct codes are supported.
    sample_rate:
        Distance between checkpoints.  1 stores a full rankall array
        (fastest, largest); larger values trade probes for scans.

    >>> from repro.alphabet import DNA
    >>> ra = RankAll("acg$caaa", DNA)
    >>> ra.occ(DNA.code("a"), 8)   # number of 'a' in the whole BWT
    4
    >>> ra.occ(DNA.code("c"), 5)   # 'c' occurrences in L[:5] = 'acg$c'
    2
    """

    __slots__ = (
        "_packed",
        "_codes_bytes",
        "_alphabet",
        "_size",
        "_sample_rate",
        "_flat",
        "_length",
        "_totals",
        "_tail_count",
    )

    def __init__(self, bwt: str, alphabet: Alphabet, sample_rate: int = DEFAULT_SAMPLE_RATE):
        if sample_rate < 1:
            raise IndexCorruptionError("sample_rate must be >= 1")
        if alphabet.size > 256:
            raise IndexCorruptionError("alphabets larger than 256 symbols are not supported")
        self._alphabet = alphabet
        self._size = alphabet.size
        self._sample_rate = sample_rate
        self._length = len(bwt)
        with OBS.span("rankall.build", length=self._length, sample_rate=sample_rate):
            codes = alphabet.encode(bwt)
            self._packed = PackedSequence(bits_needed(alphabet.size), codes)
            self._codes_bytes = bytes(codes)

            n_codes = self._size
            n_blocks = self._length // sample_rate + 1
            # Row-major: flat[block * n_codes + code] = count of `code` in
            # L[: block * sample_rate].
            flat = array("i")  # 32-bit checkpoint values, as in the paper's Fig. 2
            running = [0] * n_codes
            for block in range(n_blocks):
                flat.extend(running)
                lo = block * sample_rate
                hi = min(lo + sample_rate, self._length)
                for i in range(lo, hi):
                    running[codes[i]] += 1
            self._flat = flat
            self._totals = running
            self._tail_count = self._codes_bytes.count

    @classmethod
    def from_parts(
        cls,
        alphabet: Alphabet,
        sample_rate: int,
        length: int,
        packed: PackedSequence,
        codes,
        checkpoints,
        totals: List[int],
    ) -> "RankAll":
        """Wrap pre-built buffers without re-deriving anything.

        This is the zero-copy deserialization path: ``packed`` wraps the
        2-bit BWT words, ``codes`` the byte shadow (``bytes`` or a
        ``memoryview`` over an mmap section), ``checkpoints`` the flat
        int32 row-major checkpoint table and ``totals`` the per-code
        grand totals.  No buffer is copied or scanned.
        """
        if sample_rate < 1:
            raise IndexCorruptionError("sample_rate must be >= 1")
        if alphabet.size > 256:
            raise IndexCorruptionError("alphabets larger than 256 symbols are not supported")
        instance = cls.__new__(cls)
        instance._alphabet = alphabet
        instance._size = alphabet.size
        instance._sample_rate = sample_rate
        instance._length = length
        instance._packed = packed
        instance._codes_bytes = codes
        instance._flat = checkpoints
        instance._totals = list(totals)
        instance._tail_count = (
            codes.count if isinstance(codes, (bytes, bytearray)) else _slice_counter(codes)
        )
        return instance

    # -- primitives ---------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def sample_rate(self) -> int:
        """Distance between checkpoints."""
        return self._sample_rate

    def char_code_at(self, i: int) -> int:
        """Integer code of ``L[i]``."""
        return self._codes_bytes[i]

    def codes_slice(self, lo: int, hi: int):
        """The integer codes of ``L[lo:hi]``, front to back (a slice of
        the byte shadow: ``bytes`` or a memoryview)."""
        return self._codes_bytes[lo:hi]

    def occ(self, code: int, i: int) -> int:
        """Occurrences of character ``code`` in the prefix ``L[:i]``."""
        if not 0 <= i <= self._length:
            raise IndexError(f"prefix length {i} out of range 0..{self._length}")
        block_start = i - i % self._sample_rate
        count = self._flat[(i // self._sample_rate) * self._size + code]
        if i > block_start:
            count += self._tail_count(code, block_start, i)
        return count

    def counts_at(self, i: int) -> List[int]:
        """Prefix counts of *every* code at position ``i`` (one row).

        ``counts_at(i)[c] == occ(c, i)`` for every code ``c``; a single
        checkpoint-row slice plus at most ``sample_rate - 1`` tail reads.
        """
        size = self._size
        base = (i // self._sample_rate) * size
        row = self._flat[base:base + size].tolist()
        block_start = i - i % self._sample_rate
        if i > block_start:
            for code in self._codes_bytes[block_start:i]:
                row[code] += 1
        return row

    def children(
        self, lo: int, hi: int, c_array: Sequence[int]
    ) -> Tuple[Tuple[int, int, int], ...]:
        """``(code, C[code] + occ(code, lo), C[code] + occ(code, hi))`` for
        every non-sentinel ``code`` occurring in ``L[lo:hi]``, highest code
        first; ``lo < hi``.

        The backward-search step for every character at once, and the
        paper's branching test "whether ``A_x[i-1] = A_x[j]``" for each:
        the two checkpoint rows are sliced and the tails scanned once
        each, not per character.  The triples hold only ints, so the
        garbage collector untracks them and a tuple of them.

        >>> from repro.alphabet import DNA
        >>> RankAll("acg$caaa", DNA).children(1, 5, [0, 1, 5, 7, 8, 8])
        ((3, 7, 8), (2, 5, 7))
        """
        rate = self._sample_rate
        size = self._size
        flat = self._flat
        codes = self._codes_bytes
        block = lo // rate
        row_lo = flat[block * size:(block + 1) * size].tolist()
        for code in codes[block * rate:lo]:
            row_lo[code] += 1
        block = hi // rate
        row_hi = flat[block * size:(block + 1) * size].tolist()
        for code in codes[block * rate:hi]:
            row_hi[code] += 1
        out = []
        for code in range(size - 1, 0, -1):
            a = row_lo[code]
            b = row_hi[code]
            if b > a:
                base = c_array[code]
                out.append((code, base + a, base + b))
        return tuple(out)

    def occ_range(self, code: int, lo: int, hi: int) -> int:
        """Occurrences of ``code`` in ``L[lo:hi]``."""
        return self.occ(code, hi) - self.occ(code, lo)

    def total(self, code: int) -> int:
        """Occurrences of ``code`` in the whole BWT."""
        return self._totals[code]

    # -- raw buffers (binary serialization) -----------------------------------

    @property
    def packed(self) -> PackedSequence:
        """The bit-packed BWT (the paper's 2-bit representation)."""
        return self._packed

    @property
    def codes_buffer(self):
        """The one-byte-per-code BWT shadow (``bytes`` or memoryview)."""
        return self._codes_bytes

    @property
    def checkpoints(self):
        """The flat row-major int32 checkpoint table (``array('i')`` or
        memoryview); ``checkpoints[block * alphabet.size + code]``."""
        return self._flat

    @property
    def totals_list(self) -> List[int]:
        """Per-code totals over the whole BWT (a copy)."""
        return list(self._totals)

    def iter_codes(self):
        """Iterate the BWT's integer codes front to back."""
        return iter(self._codes_bytes)

    def nbytes(self) -> int:
        """Payload size of the paper's representation.

        Counts the bit-packed BWT plus the checkpoint rows — i.e. what a
        C implementation would store; the Python-only ``bytes`` scan
        shadow is excluded (see the module docstring).
        """
        return self._packed.nbytes() + self._flat.itemsize * len(self._flat)

    # -- validation ----------------------------------------------------------

    def verify(self) -> None:
        """Recompute every checkpoint from scratch; raise on any drift."""
        n_codes = self._size
        running = [0] * n_codes
        n_blocks = self._length // self._sample_rate + 1
        for block in range(n_blocks):
            for c in range(n_codes):
                if self._flat[block * n_codes + c] != running[c]:
                    raise IndexCorruptionError(f"checkpoint drift at block {block}, code {c}")
            lo = block * self._sample_rate
            hi = min(lo + self._sample_rate, self._length)
            for i in range(lo, hi):
                if self._packed[i] != self._codes_bytes[i]:
                    raise IndexCorruptionError(f"packed/shadow drift at position {i}")
                running[self._codes_bytes[i]] += 1
        if running != self._totals:
            raise IndexCorruptionError("total counts drifted")
