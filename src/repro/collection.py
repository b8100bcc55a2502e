"""Multi-sequence collections: k-mismatch search across many records.

Real genomes ship as multi-record FASTA (one record per chromosome or
contig).  :class:`SequenceCollection` indexes each record independently —
occurrences never span record boundaries, matching aligner semantics —
and reports hits as ``(record name, occurrence)`` pairs.

>>> collection = SequenceCollection({"chr1": "acagaca", "chr2": "ttacat"})
>>> [(name, occ.start) for name, occ in collection.search("aca", 0)]
[('chr1', 0), ('chr1', 4), ('chr2', 2)]
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .alphabet import Alphabet
from .core.matcher import KMismatchIndex, ReadHit
from .core.types import Occurrence
from .errors import PatternError


class SequenceCollection:
    """A set of named, independently indexed target sequences.

    Parameters
    ----------
    records:
        Mapping from record name to sequence; insertion order is the
        report order.
    alphabet:
        Shared alphabet; defaults per record like
        :class:`~repro.core.matcher.KMismatchIndex`.
    """

    def __init__(self, records: Mapping[str, str], alphabet: Optional[Alphabet] = None):
        if not records:
            raise PatternError("a collection needs at least one record")
        self._indexes: Dict[str, KMismatchIndex] = {}
        for name, sequence in records.items():
            if not sequence:
                raise PatternError(f"record {name!r} is empty")
            self._indexes[name] = KMismatchIndex(sequence, alphabet=alphabet)

    # -- introspection ------------------------------------------------------------

    @property
    def names(self) -> List[str]:
        """Record names in report order."""
        return list(self._indexes)

    def __len__(self) -> int:
        return len(self._indexes)

    def __contains__(self, name: str) -> bool:
        return name in self._indexes

    def record(self, name: str) -> KMismatchIndex:
        """The per-record index (raises ``KeyError`` for unknown names)."""
        return self._indexes[name]

    def total_length(self) -> int:
        """Sum of record lengths."""
        return sum(len(idx.text) for idx in self._indexes.values())

    # -- queries ---------------------------------------------------------------------

    def search(self, pattern: str, k: int, method: str = "algorithm_a") -> List[Tuple[str, Occurrence]]:
        """All k-mismatch occurrences across every record.

        Results are ordered by record (insertion order), then position.
        """
        out: List[Tuple[str, Occurrence]] = []
        for name, index in self._indexes.items():
            if len(pattern) > len(index.text):
                continue
            out.extend((name, occ) for occ in index.search(pattern, k, method=method))
        return out

    def count(self, pattern: str, k: int = 0) -> int:
        """Total occurrence count across records."""
        return sum(
            index.count(pattern, k)
            for index in self._indexes.values()
            if len(pattern) <= len(index.text)
        )

    def map_read(self, read: str, k: int) -> List[Tuple[str, ReadHit]]:
        """Strand-aware read mapping across every record (DNA only)."""
        out: List[Tuple[str, ReadHit]] = []
        for name, index in self._indexes.items():
            if len(read) > len(index.text):
                continue
            out.extend((name, hit) for hit in index.map_read(read, k))
        return out

    # -- batch queries -------------------------------------------------------------

    def search_batch(
        self,
        patterns: Iterable[str],
        k: int,
        method: str = "algorithm_a",
        workers: int = 0,
    ) -> Dict[str, List[Tuple[str, Occurrence]]]:
        """Search many patterns across every record; results keyed by pattern.

        Each record's batch runs through its index's
        :meth:`~repro.core.matcher.KMismatchIndex.search_batch` — the
        cached engine (and, for large enough batches with ``workers > 1``,
        the process pool) per record.  Result lists are ordered by record, then
        position, like :meth:`search`.
        """
        patterns = list(patterns)
        out: Dict[str, List[Tuple[str, Occurrence]]] = {p: [] for p in patterns}
        for name, index in self._indexes.items():
            fitting = [p for p in patterns if len(p) <= len(index.text)]
            if not fitting:
                continue
            per_record = index.search_batch(
                fitting, k, method=method, workers=workers
            )
            for pattern in fitting:
                out[pattern].extend((name, occ) for occ in per_record[pattern])
        return out

    def map_reads(
        self,
        reads: Sequence[str],
        k: int,
        workers: int = 0,
    ) -> List[List[Tuple[str, ReadHit]]]:
        """Map a read batch across every record; ``result[i]`` lists read ``i``'s
        ``(record, hit)`` pairs ordered by record then hit."""
        reads = list(reads)
        out: List[List[Tuple[str, ReadHit]]] = [[] for _ in reads]
        for name, index in self._indexes.items():
            fitting = [
                (i, read) for i, read in enumerate(reads) if len(read) <= len(index.text)
            ]
            if not fitting:
                continue
            hit_lists = index.map_reads(
                [read for _, read in fitting], k, workers=workers
            )
            for (i, _), hits in zip(fitting, hit_lists):
                out[i].extend((name, hit) for hit in hits)
        return out

    # -- construction helpers ------------------------------------------------------------

    @classmethod
    def from_fasta_text(cls, text: str, alphabet: Optional[Alphabet] = None) -> "SequenceCollection":
        """Parse multi-record FASTA content into a collection.

        Record names are the first whitespace-delimited token of each
        header; sequences are lower-cased.
        """
        records: Dict[str, str] = {}
        name: Optional[str] = None
        parts: List[str] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    records[name] = "".join(parts)
                name = line[1:].split()[0] if len(line) > 1 else f"record{len(records)}"
                parts = []
            else:
                parts.append(line.lower())
        if name is not None:
            records[name] = "".join(parts)
        if not records:
            raise PatternError("no FASTA records found")
        return cls(records, alphabet=alphabet)

    def iter_records(self) -> Iterator[Tuple[str, str]]:
        """Yield ``(name, sequence)`` pairs."""
        for name, index in self._indexes.items():
            yield name, index.text
