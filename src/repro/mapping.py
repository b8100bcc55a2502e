"""Pair-aware read mapping on top of :class:`~repro.core.matcher.KMismatchIndex`.

Single-mate hits are often ambiguous in repeat regions; a mate pair is
rescued by its partner: the two mates must land on opposite strands in
FR orientation within an insert-size window.  :func:`map_pair` scores
every concordant combination and returns them best-first — the standard
aligner recipe, built entirely from the library's k-mismatch primitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .core.matcher import KMismatchIndex, ReadHit
from .errors import PatternError


@dataclass(frozen=True, order=True)
class PairAlignment:
    """One concordant placement of a read pair.

    ``fragment_length`` is the implied outer fragment span;
    ``total_mismatches`` the two mates' combined mismatch count.
    """

    total_mismatches: int
    fragment_length: int
    hit1: ReadHit
    hit2: ReadHit

    @property
    def start(self) -> int:
        """Forward-strand start of the leftmost mate."""
        return min(self.hit1.occurrence.start, self.hit2.occurrence.start)


def _is_concordant(
    hit1: ReadHit,
    hit2: ReadHit,
    read_length: int,
    min_fragment: int,
    max_fragment: int,
) -> Optional[int]:
    """Fragment length when the two hits form an FR pair, else ``None``."""
    if hit1.strand == hit2.strand:
        return None
    forward, reverse = (hit1, hit2) if hit1.strand == "+" else (hit2, hit1)
    left = forward.occurrence.start
    right = reverse.occurrence.start
    if right < left:
        return None
    fragment = right + read_length - left
    if not min_fragment <= fragment <= max_fragment:
        return None
    return fragment


def map_pair(
    index: KMismatchIndex,
    read1: str,
    read2: str,
    k: int,
    min_fragment: int = 0,
    max_fragment: int = 2_000,
) -> List[PairAlignment]:
    """All concordant placements of ``(read1, read2)``, best first.

    Both mates are mapped on both strands with up to ``k`` mismatches
    each; combinations on opposite strands in FR orientation with an
    implied fragment in ``[min_fragment, max_fragment]`` are kept, sorted
    by combined mismatch count then fragment length.
    """
    if len(read1) != len(read2):
        raise PatternError("mates must have equal length")
    if min_fragment > max_fragment:
        raise PatternError("min_fragment must not exceed max_fragment")
    hits1 = index.map_read(read1, k)
    hits2 = index.map_read(read2, k)
    return _concordant_alignments(hits1, hits2, len(read1), min_fragment, max_fragment)


def _concordant_alignments(
    hits1: List[ReadHit],
    hits2: List[ReadHit],
    read_length: int,
    min_fragment: int,
    max_fragment: int,
) -> List[PairAlignment]:
    """Score every concordant hit combination, best first."""
    out: List[PairAlignment] = []
    for h1 in hits1:
        for h2 in hits2:
            fragment = _is_concordant(h1, h2, read_length, min_fragment, max_fragment)
            if fragment is not None:
                out.append(
                    PairAlignment(
                        total_mismatches=h1.occurrence.n_mismatches
                        + h2.occurrence.n_mismatches,
                        fragment_length=fragment,
                        hit1=h1,
                        hit2=h2,
                    )
                )
    return sorted(out)


def map_pairs(
    index: KMismatchIndex,
    pairs: Sequence[Tuple[str, str]],
    k: int,
    min_fragment: int = 0,
    max_fragment: int = 2_000,
    workers: int = 0,
) -> List[List[PairAlignment]]:
    """Batch :func:`map_pair`: ``result[i]`` are pair ``i``'s placements.

    All mates are mapped in one batch through
    :meth:`~repro.core.matcher.KMismatchIndex.map_reads`, so Algorithm A's
    cross-query memo (serial) or the process pool (``workers > 1``) serves
    the whole pair set; the concordance pass then runs per pair.  Results
    match calling :func:`map_pair` pair-by-pair exactly.
    """
    for read1, read2 in pairs:
        if len(read1) != len(read2):
            raise PatternError("mates must have equal length")
    if min_fragment > max_fragment:
        raise PatternError("min_fragment must not exceed max_fragment")
    mates = [read for pair in pairs for read in pair]
    hit_lists = index.map_reads(mates, k, workers=workers)
    out: List[List[PairAlignment]] = []
    for i, (read1, _) in enumerate(pairs):
        hits1, hits2 = hit_lists[2 * i], hit_lists[2 * i + 1]
        out.append(
            _concordant_alignments(hits1, hits2, len(read1), min_fragment, max_fragment)
        )
    return out


def best_pair(
    index: KMismatchIndex,
    read1: str,
    read2: str,
    k_max: int,
    min_fragment: int = 0,
    max_fragment: int = 2_000,
) -> Optional[PairAlignment]:
    """The best concordant placement within ``k_max`` per mate, or ``None``.

    Tries increasing k (cheapest first) and stops at the first budget
    that yields any concordant pair.
    """
    for k in range(k_max + 1):
        alignments = map_pair(index, read1, read2, k,
                              min_fragment=min_fragment, max_fragment=max_fragment)
        if alignments:
            return alignments[0]
    return None
