"""FM-index: backward search over a BWT array (paper Sec. III-A).

The index is the paper's pair machinery made concrete:

* the first column ``F`` is kept as per-character intervals ``F_x``
  (``<x, [α, β]>`` pairs) via the cumulative ``C`` array;
* ``search(z, L_{<x,[α,β]>})`` — find the first/last rank of ``z`` inside
  the ``L`` range of a pair — is :meth:`FMIndex.extend`, answered with two
  rankall probes;
* occurrence positions come from a sampled suffix array plus LF-mapping
  walks (``locate``).

Ranges are half-open ``[lo, hi)`` row intervals of the conceptual
Burrows–Wheeler matrix; this maps to the paper's rank pairs ``[α, β]`` as
``lo = start(F_x) + α - 1``, ``hi = start(F_x) + β``.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..alphabet import SENTINEL, Alphabet, infer_alphabet
from ..errors import IndexCorruptionError, PatternError, SerializationError
from ..obs import OBS
from .. import suffix
from .rankall import DEFAULT_SAMPLE_RATE, RankAll


class Range(NamedTuple):
    """A half-open row interval ``[lo, hi)`` of the BW matrix."""

    lo: int
    hi: int

    def __len__(self) -> int:
        return max(0, self.hi - self.lo)

    @property
    def is_empty(self) -> bool:
        """True when the interval contains no rows."""
        return self.hi <= self.lo


#: The canonical empty range.
EMPTY_RANGE = Range(0, 0)

#: Default distance between sampled suffix-array entries.
DEFAULT_SA_SAMPLE = 8


class FMIndex:
    """A searchable BWT array over ``text + '$'``.

    Parameters
    ----------
    text:
        The target string ``s`` (no sentinel; it is appended internally).
    alphabet:
        Defaults to the smallest alphabet covering ``text``.
    occ_sample_rate:
        Checkpoint spacing of the rankall structure (paper Fig. 2 uses 4).
    sa_sample_rate:
        Every text position divisible by this is kept in the sampled
        suffix array; ``locate`` walks LF until it hits one.

    >>> fm = FMIndex("acagaca")
    >>> fm.count("aca")
    2
    >>> sorted(fm.locate("aca"))
    [0, 4]
    """

    def __init__(
        self,
        text: str,
        alphabet: Optional[Alphabet] = None,
        occ_sample_rate: int = DEFAULT_SAMPLE_RATE,
        sa_sample_rate: int = DEFAULT_SA_SAMPLE,
    ):
        if alphabet is None:
            alphabet = infer_alphabet(text) if text else Alphabet("a")
        codes = alphabet.encode_bytes(text)  # validated and encoded once
        if sa_sample_rate < 1:
            raise IndexCorruptionError("sa_sample_rate must be >= 1")
        self._alphabet = alphabet
        self._text_len = len(text)
        self._sa_sample_rate = sa_sample_rate

        with OBS.span("fmindex.build", length=len(text)) as build_span:
            with OBS.span("fmindex.suffix_array"):
                # Through the package attribute, which benchmarks wrap.
                sa = suffix.suffix_array(codes)
            with OBS.span("fmindex.bwt"):
                # Eq. (3): L[i] = s[H[i] - 1], the sentinel where H[i] = 0.
                # Behind a leading sentinel code, index H[i] holds exactly that.
                bwt = bytes(map((b"\x00" + codes).__getitem__, sa))
            with OBS.span("fmindex.rank_tables"):
                self._rank = RankAll.from_codes(bwt, alphabet, occ_sample_rate)
                self._bwt = None
                self._c_array = self._rank.c_array
            with OBS.span("fmindex.sample_sa", rate=sa_sample_rate):
                self._sampled_sa: Dict[int, int] = {
                    row: pos for row, pos in enumerate(sa) if pos % sa_sample_rate == 0
                }
            build_span.set(nbytes=self.nbytes())
        if OBS.enabled:
            OBS.metrics.counter("fmindex.builds").inc()
            OBS.metrics.gauge("fmindex.nbytes").set(self.nbytes())

    def _init_from_bwt(self, bwt: str, occ_sample_rate: int) -> None:
        self._bwt = bwt
        self._rank = RankAll(bwt, self._alphabet, occ_sample_rate)
        self._c_array = self._rank.c_array

    # -- introspection --------------------------------------------------------

    @property
    def alphabet(self) -> Alphabet:
        """The index's alphabet."""
        return self._alphabet

    @property
    def text_length(self) -> int:
        """Length of the indexed text, sentinel excluded."""
        return self._text_len

    @property
    def n_rows(self) -> int:
        """Number of BW-matrix rows (``text_length + 1``)."""
        return self._text_len + 1

    @property
    def bwt(self) -> str:
        """The BWT string ``L`` (sentinel included).

        Built indexes and those loaded from the binary format keep only
        the byte codes; the string form is decoded lazily on first access
        and cached.
        """
        if self._bwt is None:
            self._bwt = self._alphabet.decode(self._rank.iter_codes())
        return self._bwt

    @property
    def sa_sample_rate(self) -> int:
        """Sampling distance of the stored suffix-array entries."""
        return self._sa_sample_rate

    def f_interval(self, code: int) -> Range:
        """The F-column interval of character ``code`` (paper's ``F_x``)."""
        return Range(self._c_array[code], self._c_array[code + 1])

    def full_range(self) -> Range:
        """The range covering every row (the paper's virtual root pair)."""
        return Range(0, self.n_rows)

    def nbytes(self) -> int:
        """Bytes of what the index holds: the rankall structure (the byte
        BWT and the two checkpoint tables every probe reads) plus the
        sampled suffix array, counted as 32-bit positions with a one-bit
        sampled-row marker per row.
        """
        sampled_sa_bytes = len(self._sampled_sa) * 4 + (self.n_rows + 7) // 8
        return self._rank.nbytes() + sampled_sa_bytes

    # -- core search primitives ------------------------------------------------

    def extend(self, rng: Range, code: int) -> Range:
        """One backward-search step: the paper's ``search(z, L_range)``.

        Returns the row range of suffixes obtained by prepending the
        character ``code`` to the suffixes in ``rng``; empty when the
        character does not occur in ``L[rng.lo : rng.hi]``.
        """
        if rng.is_empty:
            return EMPTY_RANGE
        lo = self._rank.lf(code, rng.lo)
        hi = self._rank.lf(code, rng.hi)
        return Range(lo, hi) if lo < hi else EMPTY_RANGE

    def extend_char(self, rng: Range, ch: str) -> Range:
        """Character-typed convenience wrapper over :meth:`extend`."""
        return self.extend(rng, self._alphabet.code(ch))

    def children(self, rng: Tuple[int, int]) -> Tuple[Tuple[int, int, int], ...]:
        """All one-character extensions of the range ``rng = (lo, hi)``.

        Returns ``(code, child_lo, child_hi)`` for every non-sentinel
        character that occurs in ``L[lo:hi]`` — the S-tree children of a
        node (paper Sec. IV-A) — highest code first, the order a
        depth-first search pushes them to explore them in code order.
        Each ``(child_lo, child_hi)`` equals ``extend(rng, code)``.  The
        rankall kernel reads every character's counts at both ends at
        once: two block rows, not two probes per character, and ``C``
        comes folded into the superblock entries it reads.

        >>> fm = FMIndex("acagaca")
        >>> fm.children(fm.full_range())
        ((3, 7, 8), (2, 5, 7), (1, 1, 5))
        """
        lo, hi = rng
        if hi <= lo:
            return ()
        return self._rank.children(lo, hi)

    def backward_search(self, query: str) -> Range:
        """Row range of suffixes prefixed by ``query`` (empty when absent)."""
        rng = self.full_range()
        for ch in reversed(query):
            rng = self.extend_char(rng, ch)
            if rng.is_empty:
                return EMPTY_RANGE
        return rng

    # -- counting and locating ---------------------------------------------------

    def count(self, query: str) -> int:
        """Number of occurrences of ``query`` in the text."""
        if query == "":
            return self.n_rows
        return len(self.backward_search(query))

    def contains(self, query: str) -> bool:
        """True when ``query`` occurs in the text."""
        return query == "" or not self.backward_search(query).is_empty

    def lf_step(self, row: int) -> int:
        """The LF mapping: row of the rotation one position to the left."""
        rank = self._rank
        return rank.lf(rank.char_code_at(row), row)

    def lf_parts(self) -> Tuple[Callable[[int], int], Callable[[int, int], int]]:
        """``(char_code_at, lf)``: the pieces of :meth:`lf_step`, bound
        once for a loop that steps LF itself.

        ``code = char_code_at(row)`` is ``L[row]`` and ``lf(code, row)``,
        which is ``C[code] + occ(code, row)``, the row one position to its
        left.  At both ends of a range, ``lf`` is one backward-search step.

        >>> fm = FMIndex("acagaca")
        >>> char_code_at, lf = fm.lf_parts()
        >>> lf(char_code_at(3), 3) == fm.lf_step(3)
        True
        """
        return self._rank.char_code_at, self._rank.lf

    def _suffix_walk(self, row: int) -> Tuple[int, int]:
        """``(SA[row], steps)``: the LF walk from ``row`` to a sampled row."""
        char_code_at, lf = self._rank.char_code_at, self._rank.lf
        get = self._sampled_sa.get
        limit = self.n_rows
        steps = 0
        pos = get(row)
        while pos is None:
            row = lf(char_code_at(row), row)
            steps += 1
            if steps > limit:
                raise IndexCorruptionError("LF walk failed to reach a sampled row")
            pos = get(row)
        return pos + steps, steps

    def suffix_position(self, row: int) -> int:
        """Text position of the suffix at BW row ``row`` (``SA[row]``)."""
        return self._suffix_walk(row)[0]

    def locate_rows(self, lo: int, hi: int) -> Tuple[List[int], int]:
        """Text positions of the rows ``[lo, hi)`` in row order, and the LF
        steps that locating them took (each row's walk length, summed).

        The range is walked one LF level at a time.  Rows on a sampled
        row are resolved; the rest step together: the rows with
        ``L[row] = c``, in row order, map onto the child range
        ``C[c] + occ(c, lo) .. C[c] + occ(c, hi)``, so one ``children()``
        call moves a whole group one level, whatever its width.  A child
        keeps the rows already resolved between its live ones (their
        images hold the alignment) but is trimmed of them at both ends;
        a child left one row wide finishes with the single-row walk.

        >>> fm = FMIndex("acagaca")
        >>> fm.locate_rows(1, 5)
        ([6, 4, 0, 2], 12)
        """
        if hi - lo <= 1:
            if hi <= lo:
                return [], 0
            pos, steps = self._suffix_walk(lo)
            return [pos], steps
        get = self._sampled_sa.get
        codes_slice = self._rank.codes_slice
        children = self._rank.children
        walk = self._suffix_walk
        size = self._alphabet.size
        limit = self.n_rows
        out = [0] * (hi - lo)
        steps = 0
        # Groups of rows reached after ``depth`` LF steps: rows [glo, ghi),
        # per row its slot in ``out`` (-1 once resolved), and the number
        # of rows not yet resolved.
        groups = [(lo, hi, range(hi - lo), hi - lo)]
        depth = 0
        while groups:
            if depth > limit:
                raise IndexCorruptionError("LF walk failed to reach a sampled row")
            deeper = []
            for glo, ghi, slots, live in groups:
                buckets = [[] for _ in range(size)]
                appends = [bucket.append for bucket in buckets]
                codes = codes_slice(glo, ghi)
                row = glo
                for code, slot in zip(codes, slots):
                    if slot >= 0:
                        pos = get(row)
                        if pos is not None:
                            out[slot] = pos + depth
                            slot = -1
                            live -= 1
                    appends[code](slot)
                    row += 1
                if not live:
                    continue
                if buckets[0] and buckets[0][0] >= 0:
                    # Only a corrupt index leaves the sentinel's row (text
                    # position 0) unsampled; walk it alone, through the wrap.
                    pos, walked = walk(glo + list(codes).index(0))
                    out[buckets[0][0]] = pos + depth
                    steps += walked
                for code, clo, chi in children(glo, ghi):
                    bucket = buckets[code]
                    moved = len(bucket) - bucket.count(-1)
                    if not moved:
                        continue
                    steps += moved
                    a = 0
                    while bucket[a] < 0:
                        a += 1
                    if moved == 1:
                        pos, walked = walk(clo + a)
                        out[bucket[a]] = pos + depth + 1
                        steps += walked
                        continue
                    b = len(bucket)
                    while bucket[b - 1] < 0:
                        b -= 1
                    deeper.append((clo + a, clo + b, bucket[a:b], moved))
            groups = deeper
            depth += 1
        return out, steps

    def locate_range(self, rng: Tuple[int, int]) -> List[int]:
        """Text positions (suffix starts) for every row in ``rng = (lo, hi)``,
        in row order."""
        return self.locate_rows(*rng)[0]

    def locate(self, query: str) -> List[int]:
        """All 0-based occurrence start positions of ``query``."""
        if query == "":
            raise PatternError("cannot locate the empty pattern")
        return self.locate_range(self.backward_search(query))

    # -- serialization --------------------------------------------------------------

    _MAGIC = "repro-fmindex"
    _VERSION = 1

    def to_dict(self) -> dict:
        """Serialize to a JSON-compatible dictionary."""
        return {
            "magic": self._MAGIC,
            "version": self._VERSION,
            "alphabet": "".join(self._alphabet.symbols),
            "bwt": self.bwt,
            "occ_sample_rate": self._rank.sample_rate or DEFAULT_SAMPLE_RATE,
            "sa_sample_rate": self._sa_sample_rate,
            "sampled_sa": sorted(self._sampled_sa.items()),
        }

    def dumps(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict) -> "FMIndex":
        """Rebuild an index from :meth:`to_dict` output.

        The payload's BWT determines the index, so a ``rank_backend`` key
        (which older payloads carry) is ignored.
        """
        if payload.get("magic") != cls._MAGIC:
            raise SerializationError("not a serialized FMIndex")
        if payload.get("version") != cls._VERSION:
            raise SerializationError(f"unsupported FMIndex version {payload.get('version')}")
        instance = cls.__new__(cls)
        instance._alphabet = Alphabet(payload["alphabet"])
        bwt = payload["bwt"]
        if bwt.count(SENTINEL) != 1:
            raise SerializationError("corrupt BWT payload")
        instance._text_len = len(bwt) - 1
        instance._sa_sample_rate = int(payload["sa_sample_rate"])
        instance._init_from_bwt(bwt, int(payload["occ_sample_rate"]))
        instance._sampled_sa = {int(row): int(pos) for row, pos in payload["sampled_sa"]}
        return instance

    @classmethod
    def loads(cls, data: str) -> "FMIndex":
        """Rebuild an index from :meth:`dumps` output."""
        try:
            payload = json.loads(data)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"invalid index payload: {exc}") from None
        return cls.from_dict(payload)

    def reconstruct_text(self) -> str:
        """Invert the BWT back into the indexed text (validation helper)."""
        from .transform import inverse_bwt

        return inverse_bwt(self.bwt)

    # -- binary format (repro.io.binfmt) --------------------------------------

    @classmethod
    def _from_parts(
        cls,
        alphabet: Alphabet,
        text_len: int,
        sa_sample_rate: int,
        rank,
        sampled_sa,
    ) -> "FMIndex":
        """Assemble an index around pre-built components (no scans, no copies).

        The zero-copy deserialization entry point: ``rank`` is a
        :class:`~repro.bwt.rankall.RankAll` wrapping mmap-backed buffers
        and ``sampled_sa`` any mapping-like row → position view.  The
        C-array (which the rank structure sums from its totals) is the only
        thing derived — O(alphabet) work.
        """
        instance = cls.__new__(cls)
        instance._alphabet = alphabet
        instance._text_len = text_len
        instance._sa_sample_rate = sa_sample_rate
        instance._rank = rank
        instance._bwt = None
        instance._c_array = rank.c_array
        instance._sampled_sa = sampled_sa
        return instance

    def to_binary(self) -> bytes:
        """The index as one binary blob (see ``docs/INDEX_FORMAT.md``)."""
        from ..io.binfmt import dump_fmindex

        return dump_fmindex(self)

    @classmethod
    def from_binary(cls, buffer, verify_checksums: bool = False) -> "FMIndex":
        """Load from a :meth:`to_binary` blob, wrapping (not copying) it."""
        from ..io.binfmt import load_fmindex

        return load_fmindex(buffer, verify_checksums=verify_checksums)

    def save(self, path) -> int:
        """Write the binary index format to ``path``; returns bytes written."""
        from ..io.binfmt import save_fmindex

        return save_fmindex(self, path)

    @classmethod
    def load(cls, path, mmap: bool = True, verify_checksums: bool = False) -> "FMIndex":
        """Load a binary index file.

        ``mmap=True`` maps the file and wraps its sections with zero
        copies — O(header) work regardless of index size; ``mmap=False``
        reads the file into one ``bytes`` object and wraps that instead
        (still no per-section copies, but the read itself is O(file)).
        """
        from ..io.binfmt import open_fmindex

        return open_fmindex(path, mmap=mmap, verify_checksums=verify_checksums)
