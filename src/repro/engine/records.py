"""Packed result records: how a process-pool worker sends a chunk home.

A worker packs each chunk's per-item result lists into one ``bytes``
object of fixed-layout records and sends it in the chunk's ``("ok",
...)`` message on the result queue.  The parent decodes each chunk as
its message arrives (:meth:`~repro.engine.executor.BatchExecutor._collect`),
so decoding overlaps the workers' searches.  No
:class:`~repro.core.types.Occurrence` object is pickled in transit.

Record layout (little-endian, 22-byte header)::

    u64 position      occurrence start in the target
    u32 item id       index of the pattern/read *within its chunk*
    u32 chunk id      which chunk the record belongs to
    u32 n_mismatches  how many u32 mismatch offsets follow inline
    u16 flags         bit 0: reverse-strand hit (map kind only)

followed by ``n_mismatches`` inline ``u32`` mismatch offsets, so the
full :class:`~repro.core.types.Occurrence` (offsets tuple included)
survives the round trip and pooled results are byte-identical to
serial ones.  Every field holds any value a search can return: a
position below 2^64, and a mismatch count and offsets below the
pattern length.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import List, Sequence

from ..errors import SerializationError

#: Fixed-width record header: position, item id, chunk id, mismatch
#: count, flags (see module docstring for field semantics).
RECORD_HEADER = struct.Struct("<QIIIH")

#: ``flags`` bit 0: the hit is on the reverse strand (map kind only).
FLAG_REVERSE = 0x1


@lru_cache(maxsize=None)
def _offsets(n: int) -> struct.Struct:
    """The struct of ``n`` inline u32 mismatch offsets."""
    return struct.Struct("<%dI" % n)


def pack_chunk(chunk_id: int, kind: str, results: Sequence[Sequence[object]]) -> bytes:
    """Pack one chunk's per-item result lists into records.

    >>> from repro.core.types import Occurrence
    >>> data = pack_chunk(0, "search", [[Occurrence(7, (1, 3))], []])
    >>> len(data) == RECORD_HEADER.size + 2 * 4
    True
    >>> decode_chunk(data, 2, 0, "search")
    [[Occurrence(start=7, mismatches=(1, 3))], []]
    """
    header = RECORD_HEADER.pack
    parts: List[bytes] = []
    try:
        for item_id, entries in enumerate(results):
            for entry in entries:
                if kind == "map":
                    (start, mismatches), strand = entry
                    flags = FLAG_REVERSE if strand == "-" else 0
                else:
                    start, mismatches = entry
                    flags = 0
                parts.append(header(start, item_id, chunk_id, len(mismatches), flags))
                if mismatches:
                    parts.append(_offsets(len(mismatches)).pack(*mismatches))
    except struct.error as exc:
        raise SerializationError(
            f"chunk {chunk_id}: a result does not fit its record: {exc}"
        ) from exc
    return b"".join(parts)


def decode_chunk(
    data: bytes, n_items: int, chunk_id: int, kind: str
) -> List[List[object]]:
    """Rebuild one chunk's per-item result lists from its packed records.

    Workers pack items in order, so appends land in the same per-item
    order a serial run produces.  A truncated record, or one naming
    another chunk or an item past ``n_items``, raises
    :class:`~repro.errors.SerializationError`.
    """
    from ..core.matcher import ReadHit
    from ..core.types import Occurrence

    new = tuple.__new__
    out: List[List[object]] = [[] for _ in range(n_items)]
    unpack_header = RECORD_HEADER.unpack_from
    header_size = RECORD_HEADER.size
    end = len(data)
    offset = 0
    while offset < end:
        if offset + header_size > end:
            raise SerializationError(
                f"chunk {chunk_id}: truncated record header at byte {offset}"
            )
        position, item_id, record_chunk, n_mismatches, flags = unpack_header(
            data, offset
        )
        if record_chunk != chunk_id or item_id >= n_items:
            raise SerializationError(
                f"chunk {chunk_id}: record at byte {offset} claims chunk "
                f"{record_chunk} item {item_id} (have {n_items} items)"
            )
        offset += header_size
        if n_mismatches:
            stop = offset + 4 * n_mismatches
            if stop > end:
                raise SerializationError(
                    f"chunk {chunk_id}: truncated mismatch offsets at byte {offset}"
                )
            mismatches = _offsets(n_mismatches).unpack_from(data, offset)
            offset = stop
        else:
            mismatches = ()
        hit = new(Occurrence, (position, mismatches))
        if kind == "map":
            hit = new(ReadHit, (hit, "-" if flags & FLAG_REVERSE else "+"))
        out[item_id].append(hit)
    return out
