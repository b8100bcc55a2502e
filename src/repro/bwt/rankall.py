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
* ``children(lo, hi, C)`` — the S-tree branching step: every character's
  sub-range of ``[lo, hi)`` from two row reads total instead of two
  probes per character, as ``(code, lo', hi')`` triples.

The BWT is held once, one byte per code, which pure Python scans at C
speed.  Checkpoints are stored row-major by block, one int32 per
non-sentinel code: the sentinel occurs once, so ``occ(0, i)`` is just
``i > sentinel_row``.  A single int32 pad leads the table, so the slice
``flat[b*(σ-1) : b*(σ-1)+σ]`` is a σ-slot row whose slot ``c`` is block
``b``'s count of code ``c`` for every ``c >= 1``; slot 0 (the pad, or
the previous row's last count) only absorbs the sentinel when a tail
holds it, and nothing reads it.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence, Tuple

from ..alphabet import Alphabet
from ..errors import IndexCorruptionError
from ..obs import OBS

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


def _checkpoint_table(codes, size: int, sample_rate: int) -> Tuple[array, List[int]]:
    """``(flat, totals)`` for the code sequence ``codes``: the padded
    row-major checkpoint table and every code's count over the whole BWT.

    ``flat[b*(size-1) + c]`` counts code ``c >= 1`` in
    ``codes[: b*sample_rate]``; ``flat[0]`` is the pad.
    """
    length = len(codes)
    flat = array("i", [0])  # 32-bit checkpoint values, as in the paper's Fig. 2
    running = [0] * size
    for lo in range(0, length // sample_rate * sample_rate + 1, sample_rate):
        flat.extend(running[1:])
        for code in codes[lo:lo + sample_rate]:
            running[code] += 1
    return flat, running


class RankAll:
    """Checkpoint-sampled per-character cumulative counts over a BWT array.

    Parameters
    ----------
    bwt:
        The BWT string ``L`` (one sentinel included).
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
    >>> ra.occ(0, 4), ra.sentinel_row   # the sentinel is L[3]
    (1, 3)
    """

    __slots__ = (
        "_codes_bytes",
        "_alphabet",
        "_size",
        "_width",
        "_sample_rate",
        "_flat",
        "_length",
        "_totals",
        "_sentinel_row",
        "_tail_count",
    )

    def __init__(self, bwt: str, alphabet: Alphabet, sample_rate: int = DEFAULT_SAMPLE_RATE):
        _check_shape(alphabet, sample_rate)
        with OBS.span("rankall.build", length=len(bwt), sample_rate=sample_rate):
            codes = bytes(alphabet.encode(bwt))
            if codes.count(0) != 1:
                raise IndexCorruptionError(
                    f"a BWT holds the sentinel exactly once, found {codes.count(0)}"
                )
            flat, totals = _checkpoint_table(codes, alphabet.size, sample_rate)
            self._init(alphabet, sample_rate, codes, flat, totals, codes.index(0))

    @classmethod
    def from_parts(
        cls,
        alphabet: Alphabet,
        sample_rate: int,
        codes,
        checkpoints,
        totals: List[int],
        sentinel_row: int,
    ) -> "RankAll":
        """Wrap pre-built buffers without re-deriving anything.

        This is the zero-copy deserialization path: ``codes`` is the byte
        BWT (``bytes`` or a ``memoryview`` over an mmap section),
        ``checkpoints`` the padded int32 row-major checkpoint table,
        ``totals`` the per-code grand totals and ``sentinel_row`` the row
        whose code is 0.  No buffer is copied or scanned.
        """
        _check_shape(alphabet, sample_rate)
        instance = cls.__new__(cls)
        instance._init(alphabet, sample_rate, codes, checkpoints, totals, sentinel_row)
        return instance

    def _init(self, alphabet, sample_rate, codes, flat, totals, sentinel_row) -> None:
        self._alphabet = alphabet
        self._size = alphabet.size
        self._width = alphabet.size - 1
        self._sample_rate = sample_rate
        self._length = len(codes)
        self._codes_bytes = codes
        self._flat = flat
        self._totals = list(totals)
        self._sentinel_row = sentinel_row
        self._tail_count = (
            codes.count if isinstance(codes, (bytes, bytearray)) else _slice_counter(codes)
        )

    # -- primitives ---------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def sample_rate(self) -> int:
        """Distance between checkpoints."""
        return self._sample_rate

    @property
    def sentinel_row(self) -> int:
        """The row ``i`` with ``L[i]`` the sentinel."""
        return self._sentinel_row

    def char_code_at(self, i: int) -> int:
        """Integer code of ``L[i]``."""
        return self._codes_bytes[i]

    def codes_slice(self, lo: int, hi: int):
        """The integer codes of ``L[lo:hi]``, front to back (a slice of
        the byte BWT: ``bytes`` or a memoryview)."""
        return self._codes_bytes[lo:hi]

    def occ(self, code: int, i: int) -> int:
        """Occurrences of character ``code`` in the prefix ``L[:i]``."""
        if not 0 <= i <= self._length:
            raise IndexError(f"prefix length {i} out of range 0..{self._length}")
        if not code:
            return int(i > self._sentinel_row)
        block_start = i - i % self._sample_rate
        count = self._flat[(i // self._sample_rate) * self._width + code]
        if i > block_start:
            count += self._tail_count(code, block_start, i)
        return count

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
        width = self._width
        flat = self._flat
        codes = self._codes_bytes
        block = lo // rate
        row_lo = flat[block * width:block * width + size].tolist()
        for code in codes[block * rate:lo]:
            row_lo[code] += 1
        block = hi // rate
        row_hi = flat[block * width:block * width + size].tolist()
        for code in codes[block * rate:hi]:
            row_hi[code] += 1
        out = []
        for code in range(width, 0, -1):
            a = row_lo[code]
            b = row_hi[code]
            if b > a:
                base = c_array[code]
                out.append((code, base + a, base + b))
        return tuple(out)

    def total(self, code: int) -> int:
        """Occurrences of ``code`` in the whole BWT."""
        return self._totals[code]

    # -- raw buffers (binary serialization) -----------------------------------

    @property
    def codes_buffer(self):
        """The one-byte-per-code BWT (``bytes`` or memoryview)."""
        return self._codes_bytes

    @property
    def checkpoints(self):
        """The padded row-major int32 checkpoint table (``array('i')`` or
        memoryview); ``checkpoints[block * (alphabet.size - 1) + code]``
        for every ``code >= 1``."""
        return self._flat

    @property
    def totals_list(self) -> List[int]:
        """Per-code totals over the whole BWT (a copy)."""
        return list(self._totals)

    def iter_codes(self):
        """Iterate the BWT's integer codes front to back."""
        return iter(self._codes_bytes)

    def nbytes(self) -> int:
        """Bytes of the buffers every probe reads: the byte BWT plus the
        checkpoint table."""
        return len(self._codes_bytes) + self._flat.itemsize * len(self._flat)

    # -- validation ----------------------------------------------------------

    def verify(self) -> None:
        """Recompute every checkpoint and the sentinel's row from the byte
        BWT; raise on any drift."""
        codes = bytes(self._codes_bytes)
        if codes.count(0) != 1 or codes.index(0) != self._sentinel_row:
            raise IndexCorruptionError(f"sentinel row {self._sentinel_row} drifted")
        flat, totals = _checkpoint_table(codes, self._size, self._sample_rate)
        stored = self._flat.tolist()
        if len(stored) != len(flat):
            raise IndexCorruptionError(
                f"checkpoint table holds {len(stored)} values, expected {len(flat)}"
            )
        for i in range(1, len(flat)):
            if stored[i] != flat[i]:
                block, code = divmod(i - 1, self._width)
                raise IndexCorruptionError(f"checkpoint drift at block {block}, code {code + 1}")
        if totals != self._totals:
            raise IndexCorruptionError("total counts drifted")


def _check_shape(alphabet: Alphabet, sample_rate: int) -> None:
    if sample_rate < 1:
        raise IndexCorruptionError("sample_rate must be >= 1")
    if alphabet.size > 256:
        raise IndexCorruptionError("alphabets larger than 256 symbols are not supported")
