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
* ``lf(code, i)`` — ``C[code] + occ(code, i)``, the backward-search and
  LF-mapping step itself;
* ``children(lo, hi)`` — the S-tree branching step: every character's
  sub-range of ``[lo, hi)`` from two block reads total instead of two
  probes per character, as ``(code, lo', hi')`` triples.

The BWT is held once, one byte per code, which pure Python scans at C
speed.  The checkpoints form a two-level directory over the non-sentinel
codes (the sentinel occurs once, so ``occ(0, i)`` is just
``i > sentinel_row``):

* superblocks, one every :func:`superblock_span` rows (256, or the
  largest multiple of the sample rate at most 256), each an int32 row
  holding ``C[code] + occ(code, start)`` — the ``C`` array is folded in;
* blocks, one every ``sample_rate`` rows, each a uint8 row holding the
  code's count from the start of its superblock.  A block starts at
  most ``256 - sample_rate`` rows into its superblock, so a count fits.

Both are row-major, one entry per non-sentinel code behind a single pad
entry, so row ``r``'s entry for code ``c >= 1`` is at ``r*(σ-1) + c``.
The slice ``blocks[b*(σ-1) : b*(σ-1)+σ]`` is then a σ-slot row whose slot
``c`` is block ``b``'s count of code ``c``; slot 0 (the pad, or the
previous row's last count) only absorbs the sentinel when a tail holds
it, and nothing reads it.
"""

from __future__ import annotations

from array import array
from typing import List, Tuple

from ..alphabet import Alphabet
from ..errors import IndexCorruptionError
from ..obs import OBS

#: The paper's Fig. 2 stores one checkpoint per 4 BWT elements.
DEFAULT_SAMPLE_RATE = 4

#: Rows a superblock spans at most: a block's count from its superblock's
#: start then fits one byte.
MAX_SUPERBLOCK_SPAN = 256


def superblock_span(sample_rate: int) -> int:
    """Rows per superblock: the largest multiple of ``sample_rate`` that is
    at most 256, or ``sample_rate`` itself when that exceeds 256 (every
    block is then its own superblock and its counts are all 0)."""
    return max(MAX_SUPERBLOCK_SPAN // sample_rate, 1) * sample_rate


def _cumulative_counts(totals: List[int]) -> List[int]:
    """``C`` from per-code totals: ``C[code]`` = number of BWT characters
    with a smaller code = first row of that character's F interval (the
    paper's F_x start); ``len(C) == len(totals) + 1``."""
    c_array = [0] * (len(totals) + 1)
    for code, total in enumerate(totals):
        c_array[code + 1] = c_array[code] + total
    return c_array


def _slice_counter(buf):
    """A ``bytes.count``-compatible tail counter for buffers without it.

    ``memoryview`` (the zero-copy load path wraps mmap and shared-memory
    sections in one) has no ``count``; the tail between two checkpoints
    is copied out of the view and counted at C speed.
    """

    def count(code: int, lo: int, hi: int) -> int:
        return buf[lo:hi].tolist().count(code)

    return count


def _rank_tables(codes: bytes, size: int, sample_rate: int) -> Tuple[array, array, List[int]]:
    """``(blocks, superblocks, totals)`` for the code sequence ``codes``.

    ``superblocks[s*(size-1) + c]`` is ``C[c]`` plus the count of code
    ``c >= 1`` in ``codes[: s*span]``; ``blocks[b*(size-1) + c]`` is the
    count of ``c`` in ``codes[b*sample_rate - (b*sample_rate) % span :
    b*sample_rate]``.  Index 0 of each table is its pad.
    """
    totals = [codes.count(code) for code in range(size)]
    c_array = _cumulative_counts(totals)
    span = superblock_span(sample_rate)
    blocks = array("B", [0])
    superblocks = array("i", [0])  # 32-bit, as the paper's Fig. 2 checkpoints
    running = c_array[:size]
    within = [0] * size
    for lo in range(0, len(codes) // sample_rate * sample_rate + 1, sample_rate):
        if not lo % span:
            running = [r + w for r, w in zip(running, within)]
            within = [0] * size
            superblocks.extend(running[1:])
        blocks.extend(within[1:])
        for code in codes[lo:lo + sample_rate]:
            within[code] += 1
    return blocks, superblocks, totals


def _lf_kernel(codes, blocks, superblocks, sample_rate, width, sentinel_row, tail_count):
    """The ``lf(code, i)`` of one table, its buffers bound as locals."""
    span = superblock_span(sample_rate)

    def lf(code: int, i: int) -> int:
        """``C[code] + occ(code, i)`` for ``0 <= i <= len(rank)``.

        With ``code = L[i]`` this is the LF mapping of row ``i``; at both
        ends of a range it is one backward-search step.  It reads one
        superblock entry (``C`` folded in), one block entry and the tail.
        """
        if not code:
            return int(i > sentinel_row)
        block = i // sample_rate
        count = superblocks[i // span * width + code] + blocks[block * width + code]
        start = block * sample_rate
        if i > start:
            count += tail_count(code, start, i)
        return count

    return lf


def _children_kernel(codes, blocks, superblocks, sample_rate, width):
    """The ``children(lo, hi)`` of one table, its buffers bound as locals."""
    span = superblock_span(sample_rate)
    size = width + 1
    descending = tuple(range(width, 0, -1))  # the push order, built once

    def children(lo: int, hi: int) -> Tuple[Tuple[int, int, int], ...]:
        """``(code, lf(code, lo), lf(code, hi))`` for every non-sentinel
        ``code`` occurring in ``L[lo:hi]``, highest code first; ``lo < hi``.

        The backward-search step for every character at once, and the
        paper's branching test "whether ``A_x[i-1] = A_x[j]``" for each:
        the two block rows are sliced and the tails scanned once each, not
        per character.  When ``lo`` and ``hi`` share a superblock their
        block counts compare directly, and one superblock entry per
        emitted code supplies ``C[code]`` plus the superblock's count;
        only ranges crossing a superblock boundary read two.  The triples
        hold only ints, so the garbage collector untracks them and a
        tuple of them.
        """
        block = lo // sample_rate
        row_lo = blocks[block * width:block * width + size].tolist()
        for code in codes[block * sample_rate:lo]:
            row_lo[code] += 1
        block = hi // sample_rate
        row_hi = blocks[block * width:block * width + size].tolist()
        for code in codes[block * sample_rate:hi]:
            row_hi[code] += 1
        first = lo // span
        base = first * width
        out = []
        if first == hi // span:
            for code in descending:
                a = row_lo[code]
                b = row_hi[code]
                if b > a:
                    start = superblocks[base + code]
                    out.append((code, start + a, start + b))
        else:
            base_hi = hi // span * width
            for code in descending:
                a = superblocks[base + code] + row_lo[code]
                b = superblocks[base_hi + code] + row_hi[code]
                if b > a:
                    out.append((code, a, b))
        return tuple(out)

    return children


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

    The two probe kernels are attributes holding closures over the
    table's buffers, so a hot loop calls them without attribute lookups:

    * ``lf(code, i)`` is ``C[code] + occ(code, i)`` for ``0 <= i <=
      len(self)``;
    * ``children(lo, hi)`` is ``(code, lf(code, lo), lf(code, hi))`` for
      every non-sentinel code occurring in ``L[lo:hi]``, highest code
      first (``lo < hi``).

    >>> from repro.alphabet import DNA
    >>> ra = RankAll("acg$caaa", DNA)
    >>> ra.occ(DNA.code("a"), 8)   # number of 'a' in the whole BWT
    4
    >>> ra.occ(DNA.code("c"), 5)   # 'c' occurrences in L[:5] = 'acg$c'
    2
    >>> ra.occ(0, 4), ra.sentinel_row   # the sentinel is L[3]
    (1, 3)
    >>> ra.lf(DNA.code("c"), 5)    # C['c'] = 5, plus the two 'c' above
    7
    >>> ra.children(1, 5)          # L[1:5] = 'cg$c'
    ((3, 7, 8), (2, 5, 7))
    """

    __slots__ = (
        "_codes_bytes",
        "_alphabet",
        "_size",
        "_width",
        "_sample_rate",
        "_blocks",
        "_super",
        "_length",
        "_totals",
        "_c_array",
        "_sentinel_row",
        "lf",
        "children",
    )

    def __init__(self, bwt: str, alphabet: Alphabet, sample_rate: int = DEFAULT_SAMPLE_RATE):
        _check_shape(alphabet, sample_rate)
        with OBS.span("rankall.build", length=len(bwt), sample_rate=sample_rate):
            codes = bytes(alphabet.encode(bwt))
            if codes.count(0) != 1:
                raise IndexCorruptionError(
                    f"a BWT holds the sentinel exactly once, found {codes.count(0)}"
                )
            blocks, superblocks, totals = _rank_tables(codes, alphabet.size, sample_rate)
            self._init(alphabet, sample_rate, codes, blocks, superblocks, totals, codes.index(0))

    @classmethod
    def from_parts(
        cls,
        alphabet: Alphabet,
        sample_rate: int,
        codes,
        blocks,
        superblocks,
        totals: List[int],
        sentinel_row: int,
    ) -> "RankAll":
        """Wrap pre-built buffers without re-deriving anything.

        This is the zero-copy deserialization path: ``codes`` is the byte
        BWT (``bytes`` or a ``memoryview`` over an mmap section),
        ``blocks`` the padded uint8 block table, ``superblocks`` the
        padded int32 superblock table (``C`` folded in), ``totals`` the
        per-code grand totals and ``sentinel_row`` the row whose code is
        0.  No buffer is copied or scanned.
        """
        _check_shape(alphabet, sample_rate)
        instance = cls.__new__(cls)
        instance._init(alphabet, sample_rate, codes, blocks, superblocks, totals, sentinel_row)
        return instance

    def _init(self, alphabet, sample_rate, codes, blocks, superblocks, totals, sentinel_row) -> None:
        self._alphabet = alphabet
        self._size = alphabet.size
        self._width = alphabet.size - 1
        self._sample_rate = sample_rate
        self._length = len(codes)
        self._codes_bytes = codes
        self._blocks = blocks
        self._super = superblocks
        self._totals = list(totals)
        self._c_array = _cumulative_counts(self._totals)
        self._sentinel_row = sentinel_row
        tail_count = (
            codes.count if isinstance(codes, (bytes, bytearray)) else _slice_counter(codes)
        )
        self.lf = _lf_kernel(
            codes, blocks, superblocks, sample_rate, self._width, sentinel_row, tail_count
        )
        self.children = _children_kernel(codes, blocks, superblocks, sample_rate, self._width)

    # -- primitives ---------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def sample_rate(self) -> int:
        """Distance between checkpoints (blocks)."""
        return self._sample_rate

    @property
    def sentinel_row(self) -> int:
        """The row ``i`` with ``L[i]`` the sentinel."""
        return self._sentinel_row

    @property
    def c_array(self) -> List[int]:
        """``C[code]`` for every code, then the row count (a copy)."""
        return list(self._c_array)

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
        return self.lf(code, i) - self._c_array[code]

    def total(self, code: int) -> int:
        """Occurrences of ``code`` in the whole BWT."""
        return self._totals[code]

    # -- raw buffers (binary serialization) -----------------------------------

    @property
    def codes_buffer(self):
        """The one-byte-per-code BWT (``bytes`` or memoryview)."""
        return self._codes_bytes

    @property
    def blocks(self):
        """The padded row-major uint8 block table (``array('B')`` or
        memoryview); ``blocks[block * (alphabet.size - 1) + code]`` for
        every ``code >= 1``, counted from the block's superblock start."""
        return self._blocks

    @property
    def superblocks(self):
        """The padded row-major int32 superblock table (``array('i')`` or
        memoryview); ``superblocks[s * (alphabet.size - 1) + code]`` is
        ``C[code] + occ(code, s * superblock_span(sample_rate))`` for every
        ``code >= 1``."""
        return self._super

    @property
    def totals_list(self) -> List[int]:
        """Per-code totals over the whole BWT (a copy)."""
        return list(self._totals)

    def iter_codes(self):
        """Iterate the BWT's integer codes front to back."""
        return iter(self._codes_bytes)

    def nbytes(self) -> int:
        """Bytes of the buffers every probe reads: the byte BWT plus the
        block and superblock tables."""
        return (
            len(self._codes_bytes)
            + self._blocks.itemsize * len(self._blocks)
            + self._super.itemsize * len(self._super)
        )

    # -- validation ----------------------------------------------------------

    def verify(self) -> None:
        """Recompute both checkpoint tables and the sentinel's row from the
        byte BWT; raise on any drift."""
        codes = bytes(self._codes_bytes)
        if codes.count(0) != 1 or codes.index(0) != self._sentinel_row:
            raise IndexCorruptionError(f"sentinel row {self._sentinel_row} drifted")
        blocks, superblocks, totals = _rank_tables(codes, self._size, self._sample_rate)
        if totals != self._totals:
            raise IndexCorruptionError("total counts drifted")
        for name, built, stored in (
            ("superblock", superblocks, self._super),
            ("block", blocks, self._blocks),
        ):
            stored = stored.tolist()
            if len(stored) != len(built):
                raise IndexCorruptionError(
                    f"{name} table holds {len(stored)} values, expected {len(built)}"
                )
            for i, (value, expected) in enumerate(zip(stored, built)):
                if value != expected:
                    if not i:
                        raise IndexCorruptionError(f"{name} table pad drifted")
                    row, code = divmod(i - 1, self._width)
                    raise IndexCorruptionError(f"{name} drift at {name} {row}, code {code + 1}")


def _check_shape(alphabet: Alphabet, sample_rate: int) -> None:
    if sample_rate < 1:
        raise IndexCorruptionError("sample_rate must be >= 1")
    if alphabet.size > 256:
        raise IndexCorruptionError("alphabets larger than 256 symbols are not supported")
