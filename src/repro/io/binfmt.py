"""Versioned zero-copy binary index format (``.fmbin``).

The JSON serialization (:meth:`~repro.bwt.fmindex.FMIndex.dumps`) is a
compatibility path: loading it re-encodes the BWT, rebuilds every rank
checkpoint and re-hydrates the sampled suffix array — O(index) parsing
that dominates wall-clock when a process pool ships one index to every
worker.  This module stores the index the way the paper's space
accounting already thinks about it: flat, aligned buffers that
serialize verbatim from the underlying ``array``/``bytes`` payloads and
deserialize by *wrapping* an ``mmap``/``memoryview`` — no per-section
copies, O(header) work on load.

Layout (all integers little-endian; see ``docs/INDEX_FORMAT.md``)::

    0   8s   magic                b"REPROIDX"
    8   u32  format version       4
    12  u32  endianness stamp     0x01020304 (readers reject other values)
    16  u32  header size          32 + 32 * n_sections
    20  u32  n_sections
    24  u64  total file size
    32  section table, one 32-byte entry per section:
          4s tag, 4x pad, u64 offset, u64 length, u32 crc32, 4x pad
    ..  section payloads, each 8-byte aligned, zero-padded between

Sections (every one required):

=======  ==================================================================
``META``  JSON: alphabet, lengths, sample rates, rank totals, the
          sentinel's row, ``sa_width``
``BWTC``  the BWT, one byte per code
``RANK``  uint8 rankall block table: one pad, then one row of the
          non-sentinel codes' counts per checkpoint, each counted from
          the start of its superblock
``SUPR``  int32 superblock table: one pad, then one row of
          ``C[code] + occ(code, start)`` for the non-sentinel codes per
          superblock
``SARO``  sampled suffix-array rows, ascending
``SAPO``  sampled suffix-array positions, aligned with ``SARO``
=======  ==================================================================

``META.sa_width`` is 4 (uint32 ``SARO``/``SAPO``) or 8 (uint64, for
targets of 4 Gbp and more).  This build reads and writes version 4 only;
a file of an earlier version fails with
:class:`~repro.errors.IndexCorruptionError` naming the version found.

This module also defines the ``REPROSHD`` shard-manifest container
(:func:`dump_manifest` / :func:`parse_manifest`): a small header plus a
JSON body naming per-shard ``REPROIDX`` files with their global
offsets.  The sharded-index layer (:mod:`repro.shard`) builds on it;
see ``docs/SHARDING.md``.

Corruption — bad magic, foreign endianness, version skew, truncated
files, section-table overruns, section-length mismatches against
``META``, checksum drift — raises
:class:`~repro.errors.IndexCorruptionError` naming the offending field;
a corrupt file must never produce a silently wrong answer.  A value the
*requested* width cannot hold (an SA entry past uint32 in a forced
``sa_width=4`` write) raises :class:`~repro.errors.IndexFormatError`
naming the sections and ``sa_width``.  CRC32s are stored per section
but verified only on request (``verify_checksums=True``) because
checksumming is O(file) and would defeat the zero-copy load.
"""

from __future__ import annotations

import json
import mmap as _mmap
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from typing import Dict, Iterator, Optional, Tuple

from ..alphabet import Alphabet
from ..errors import IndexCorruptionError, IndexFormatError, SerializationError
from ..obs import OBS
from ..bwt.rankall import RankAll, superblock_span

#: First 8 bytes of every binary index file.
MAGIC = b"REPROIDX"

#: First 8 bytes of every shard-manifest file.
MANIFEST_MAGIC = b"REPROSHD"

#: The one index format version this build reads and writes.
FORMAT_VERSION = 4

#: Shard-manifest format version written by this build.
MANIFEST_VERSION = 1

#: Endianness stamp: reads back as 0x01020304 only on little-endian hosts.
ENDIAN_STAMP = 0x01020304

_HEADER = struct.Struct("<8sIIIIQ")
_SECTION = struct.Struct("<4s4xQQI4x")
_ALIGN = 8

#: Section tags, in file order.
SECTION_TAGS = (b"META", b"BWTC", b"RANK", b"SUPR", b"SARO", b"SAPO")


def _pad(n: int) -> int:
    """``n`` rounded up to the section alignment."""
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


class SampledSAView:
    """Read-only dict-like over the ``SARO``/``SAPO`` sections.

    Presents the mapping interface :class:`~repro.bwt.fmindex.FMIndex`
    expects of its sampled suffix array (``row in sa``, ``sa[row]``,
    ``len``, ``items``) on top of two uint32 memoryviews — O(header)
    to construct, O(log n) per probe via binary search on the sorted
    row column.
    """

    __slots__ = ("_rows", "_positions")

    def __init__(self, rows, positions):
        self._rows = rows
        self._positions = positions

    def __len__(self) -> int:
        return len(self._rows)

    def _index_of(self, row: int) -> int:
        i = bisect_left(self._rows, row)
        if i < len(self._rows) and self._rows[i] == row:
            return i
        return -1

    def __contains__(self, row: int) -> bool:
        return self._index_of(row) >= 0

    def __getitem__(self, row: int) -> int:
        i = self._index_of(row)
        if i < 0:
            raise KeyError(row)
        return self._positions[i]

    def get(self, row: int, default=None):
        i = self._index_of(row)
        return self._positions[i] if i >= 0 else default

    def items(self) -> Iterator[Tuple[int, int]]:
        return zip(self._rows, self._positions)

    def keys(self) -> Iterator[int]:
        return iter(self._rows)

    def __iter__(self) -> Iterator[int]:
        return iter(self._rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, (SampledSAView, dict)):
            return dict(self.items()) == dict(
                other.items() if not isinstance(other, dict) else other.items()
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SampledSAView({len(self)} entries)"


# -- writing ---------------------------------------------------------------------


def _require_little_endian() -> None:
    if sys.byteorder != "little":  # pragma: no cover - exotic hosts
        raise SerializationError(
            "the binary index format is little-endian; this host is "
            f"{sys.byteorder}-endian — use the JSON serialization instead"
        )


def _as_byte_view(buffer) -> memoryview:
    """A flat unsigned-byte view over any buffer-protocol object."""
    view = memoryview(buffer)
    if view.format != "B":
        view = view.cast("B")
    return view


def dump_fmindex(fm, sa_width: Optional[int] = None) -> bytes:
    """Serialize ``fm`` to one binary blob, straight from its buffers.

    ``sa_width`` selects the ``SARO``/``SAPO`` entry width in bytes: 4
    (uint32) or 8 (uint64).  The default picks the narrowest width that
    holds every suffix-array value.  Forcing ``sa_width=4`` on a target
    whose SA values exceed uint32 raises
    :class:`~repro.errors.IndexFormatError` (never a silent truncation).
    """
    _require_little_endian()
    rank = fm._rank
    superblocks = rank.superblocks
    if getattr(superblocks, "itemsize", 4) != 4:  # pragma: no cover - exotic ABIs
        superblocks = array("i", superblocks)
    # SA rows run up to bwt_len - 1 == text_len and positions up to
    # text_len - 1, so text_len is the exact overflow criterion.
    needs_u64 = fm.text_length >= 2**32
    if sa_width is None:
        sa_width = 8 if needs_u64 else 4
    if sa_width not in (4, 8):
        raise SerializationError(f"sa_width must be 4 or 8, got {sa_width!r}")
    if sa_width == 4 and needs_u64:
        raise IndexFormatError(
            "sections SARO/SAPO: suffix-array values for a target of "
            f"{fm.text_length} bp exceed uint32; write them with sa_width=8"
        )
    sampled = sorted(fm._sampled_sa.items())
    typecode = "I" if sa_width == 4 else "Q"
    rows = array(typecode, (row for row, _ in sampled))
    positions = array(typecode, (pos for _, pos in sampled))
    meta = {
        "alphabet": "".join(fm.alphabet.symbols),
        "text_len": fm.text_length,
        "bwt_len": len(rank),
        "occ_sample_rate": rank.sample_rate,
        "sa_sample_rate": fm.sa_sample_rate,
        "totals": rank.totals_list,
        "sentinel_row": rank.sentinel_row,
        "n_sampled": len(sampled),
        "sa_width": sa_width,
    }
    payloads = {
        b"META": json.dumps(meta, sort_keys=True).encode("utf-8"),
        b"BWTC": _as_byte_view(rank.codes_buffer),
        b"RANK": _as_byte_view(rank.blocks),
        b"SUPR": _as_byte_view(superblocks),
        b"SARO": _as_byte_view(rows),
        b"SAPO": _as_byte_view(positions),
    }
    return _assemble(payloads)


def _assemble(payloads: Dict[bytes, object]) -> bytes:
    """The container around ``payloads`` (tag -> section bytes), its
    sections in the order given."""
    header_size = _HEADER.size + _SECTION.size * len(payloads)
    offset = _pad(header_size)
    entries = []
    for tag, payload in payloads.items():
        entries.append((tag, offset, len(payload), zlib.crc32(payload) & 0xFFFFFFFF))
        offset = _pad(offset + len(payload))
    total_size = offset
    blob = bytearray(total_size)
    _HEADER.pack_into(
        blob, 0, MAGIC, FORMAT_VERSION, ENDIAN_STAMP, header_size,
        len(payloads), total_size,
    )
    for i, (tag, off, length, crc) in enumerate(entries):
        _SECTION.pack_into(blob, _HEADER.size + i * _SECTION.size, tag, off, length, crc)
        blob[off:off + length] = payloads[tag]
    return bytes(blob)


def save_fmindex(fm, path, sa_width: Optional[int] = None) -> int:
    """Write :func:`dump_fmindex` output to ``path``; returns bytes written."""
    blob = dump_fmindex(fm, sa_width=sa_width)
    with open(path, "wb") as handle:
        handle.write(blob)
    if OBS.enabled:
        OBS.metrics.counter("index.saves").inc()
        OBS.metrics.gauge("index.file_nbytes").set(len(blob))
    return len(blob)


# -- reading ---------------------------------------------------------------------


def _corrupt(source: str, field: str, detail: str) -> IndexCorruptionError:
    return IndexCorruptionError(f"{source}: {field}: {detail}")


def parse_sections(buffer, source: str = "<buffer>") -> Tuple[dict, Dict[bytes, memoryview]]:
    """Validate the container and return ``(header_info, tag -> section view)``.

    Accepts any buffer-protocol object (``mmap``, ``bytes``, a shared
    memory block).  The buffer may extend past the recorded file size —
    shared-memory segments round up to page granularity — but must not
    fall short of it.  Every returned view aliases ``buffer``.
    """
    view = _as_byte_view(buffer)
    if len(view) < _HEADER.size:
        raise _corrupt(source, "header", f"file is {len(view)} bytes, header needs {_HEADER.size}")
    magic, version, endian, header_size, n_sections, file_size = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise _corrupt(source, "magic", f"expected {MAGIC!r}, found {bytes(magic)!r}")
    if endian != ENDIAN_STAMP:
        raise _corrupt(
            source, "endianness stamp",
            f"expected {ENDIAN_STAMP:#010x}, found {endian:#010x} (foreign byte order?)",
        )
    if version != FORMAT_VERSION:
        raise _corrupt(
            source, "version",
            f"found version {version}, this build reads version {FORMAT_VERSION}",
        )
    expected_header = _HEADER.size + _SECTION.size * n_sections
    if header_size != expected_header:
        raise _corrupt(
            source, "header size",
            f"header claims {header_size} bytes for {n_sections} section(s), "
            f"expected {expected_header}",
        )
    if file_size < header_size:
        raise _corrupt(source, "file size", f"{file_size} is smaller than the header ({header_size})")
    if len(view) < file_size:
        raise _corrupt(
            source, "file size",
            f"header records {file_size} bytes but only {len(view)} are present (truncated?)",
        )
    sections: Dict[bytes, memoryview] = {}
    crcs: Dict[bytes, int] = {}
    for i in range(n_sections):
        tag, offset, length, crc = _SECTION.unpack_from(view, _HEADER.size + i * _SECTION.size)
        if offset < header_size or offset + length > file_size:
            raise _corrupt(
                source, f"section {tag.decode('ascii', 'replace')}",
                f"range [{offset}, {offset + length}) falls outside the file "
                f"(header size {header_size}, file size {file_size})",
            )
        sections[tag] = view[offset:offset + length]
        crcs[tag] = crc
    for tag in SECTION_TAGS:
        if tag not in sections:
            raise _corrupt(source, f"section {tag.decode('ascii')}", "missing from section table")
    info = {
        "version": version,
        "header_size": header_size,
        "n_sections": n_sections,
        "file_size": file_size,
        "crcs": crcs,
    }
    return info, sections


def verify_section_checksums(info: dict, sections: Dict[bytes, memoryview],
                             source: str = "<buffer>") -> None:
    """Recompute every section CRC32 against the table (O(file) work)."""
    for tag, section in sections.items():
        found = zlib.crc32(section) & 0xFFFFFFFF
        expected = info["crcs"].get(tag, 0)
        if found != expected:
            raise _corrupt(
                source, f"section {tag.decode('ascii', 'replace')} checksum",
                f"stored {expected:#010x}, computed {found:#010x}",
            )


def _meta_int(meta: dict, field: str, source: str, minimum: int = 0) -> int:
    value = meta.get(field)
    if not isinstance(value, int) or value < minimum:
        raise _corrupt(source, f"META.{field}", f"expected integer >= {minimum}, found {value!r}")
    return value


def load_fmindex(buffer, verify_checksums: bool = False, source: str = "<buffer>"):
    """Rebuild an :class:`~repro.bwt.fmindex.FMIndex` around ``buffer``.

    O(header) + O(alphabet): sections are wrapped in memoryviews, never
    copied, so the returned index keeps ``buffer`` alive and shares its
    storage (with every other process that mapped the same file or
    shared-memory block).
    """
    from ..bwt.fmindex import FMIndex

    _require_little_endian()
    with OBS.span("binfmt.load", source=source, verify=verify_checksums):
        info, sections = parse_sections(buffer, source=source)
        if verify_checksums:
            verify_section_checksums(info, sections, source=source)
        try:
            meta = json.loads(bytes(sections[b"META"]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _corrupt(source, "section META", f"not valid JSON ({exc})") from None
        if not isinstance(meta, dict):
            raise _corrupt(source, "section META", "top level is not an object")
        symbols = meta.get("alphabet")
        if not isinstance(symbols, str) or not symbols:
            raise _corrupt(source, "META.alphabet", f"expected non-empty string, found {symbols!r}")
        try:
            alphabet = Alphabet(symbols)
        except Exception as exc:
            raise _corrupt(source, "META.alphabet", str(exc)) from None
        text_len = _meta_int(meta, "text_len", source)
        bwt_len = _meta_int(meta, "bwt_len", source, minimum=1)
        if bwt_len != text_len + 1:
            raise _corrupt(
                source, "META.bwt_len",
                f"{bwt_len} does not equal text_len + 1 ({text_len + 1})",
            )
        occ_rate = _meta_int(meta, "occ_sample_rate", source, minimum=1)
        sa_rate = _meta_int(meta, "sa_sample_rate", source, minimum=1)
        n_sampled = _meta_int(meta, "n_sampled", source)
        sa_width = meta.get("sa_width")
        if sa_width not in (4, 8):
            raise _corrupt(
                source, "META.sa_width",
                f"expected 4 (uint32) or 8 (uint64), found {sa_width!r}",
            )
        totals = meta.get("totals")
        if (
            not isinstance(totals, list)
            or len(totals) != alphabet.size
            or not all(isinstance(t, int) and t >= 0 for t in totals)
        ):
            raise _corrupt(
                source, "META.totals",
                f"expected {alphabet.size} non-negative integers, found {totals!r}",
            )
        if sum(totals) != bwt_len:
            raise _corrupt(
                source, "META.totals",
                f"totals sum to {sum(totals)}, BWT length is {bwt_len}",
            )

        def _section_exact(tag: bytes, expected: int, what: str) -> memoryview:
            section = sections[tag]
            if len(section) != expected:
                raise _corrupt(
                    source, f"section {tag.decode('ascii')} length",
                    f"{what} needs {expected} bytes, section holds {len(section)}",
                )
            return section

        width = alphabet.size - 1
        n_blocks = bwt_len // occ_rate + 1
        n_super = bwt_len // superblock_span(occ_rate) + 1
        codes = _section_exact(b"BWTC", bwt_len, "the byte BWT")
        blocks = _section_exact(
            b"RANK", 1 + n_blocks * width,
            f"a pad and {n_blocks} uint8 block rows x {width} codes",
        )
        superblocks = _section_exact(
            b"SUPR", (1 + n_super * width) * 4,
            f"a pad and {n_super} int32 superblock rows x {width} codes",
        ).cast("i")
        sentinel_row = _meta_int(meta, "sentinel_row", source)
        if sentinel_row >= bwt_len or codes[sentinel_row] != 0:
            raise _corrupt(
                source, "META.sentinel_row",
                f"row {sentinel_row} of {bwt_len} does not hold the sentinel",
            )
        sa_code = "I" if sa_width == 4 else "Q"
        rows = _section_exact(
            b"SARO", n_sampled * sa_width, f"{n_sampled} sampled SA rows"
        ).cast(sa_code)
        positions = _section_exact(
            b"SAPO", n_sampled * sa_width, f"{n_sampled} sampled SA positions"
        ).cast(sa_code)

        rank = RankAll.from_parts(
            alphabet, occ_rate, codes, blocks, superblocks, totals, sentinel_row
        )
        fm = FMIndex._from_parts(
            alphabet, text_len, sa_rate, rank, SampledSAView(rows, positions)
        )
    if OBS.enabled:
        OBS.metrics.counter("index.loads").inc()
        OBS.metrics.gauge("index.nbytes").set(fm.nbytes())
    return fm


def open_fmindex(path, mmap: bool = True, verify_checksums: bool = False):
    """Load a binary index file, memory-mapped by default.

    With ``mmap=True`` the OS page cache backs the index: load cost is
    O(header) and every process mapping the same file shares one copy of
    the payload.  The mapping (and file handle) live as long as the
    returned index's buffers do.
    """
    path = str(path)
    if mmap:
        with open(path, "rb") as handle:
            try:
                mapped = _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
            except ValueError as exc:  # zero-length file
                raise _corrupt(path, "header", f"cannot mmap ({exc})") from None
        return load_fmindex(mapped, verify_checksums=verify_checksums, source=path)
    with open(path, "rb") as handle:
        blob = handle.read()
    return load_fmindex(blob, verify_checksums=verify_checksums, source=path)


def sniff(path) -> bool:
    """True when ``path`` starts with the binary index magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


# -- shard manifests (REPROSHD) --------------------------------------------------

_MANIFEST_HEADER = struct.Struct("<8sII")

#: Top-level manifest fields every reader requires, with the minimum
#: acceptable value for the integer ones.
_MANIFEST_INT_FIELDS = (("total_length", 1), ("overlap", 0))

#: Per-shard integer fields, with their minimum acceptable value.
_SHARD_INT_FIELDS = (("start", 0), ("length", 1), ("core_start", 0), ("core_end", 1))


def dump_manifest(payload: dict) -> bytes:
    """Serialize a shard-manifest payload: magic + version + JSON body.

    The payload is produced by :meth:`repro.shard.ShardManifest.to_payload`;
    this function only owns the container framing.
    """
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return _MANIFEST_HEADER.pack(MANIFEST_MAGIC, MANIFEST_VERSION, len(body)) + body


def parse_manifest(buffer, source: str = "<buffer>") -> dict:
    """Validate a ``REPROSHD`` container and return its JSON payload.

    Structural validation only (framing, JSON-ness, required fields and
    their types); the semantic checks — cores partitioning the target,
    shard files existing and matching their recorded offsets — live in
    :mod:`repro.shard.manifest`, which also raises
    :class:`~repro.errors.IndexCorruptionError` naming the field.
    """
    view = _as_byte_view(buffer)
    if len(view) < _MANIFEST_HEADER.size:
        raise _corrupt(
            source, "manifest header",
            f"file is {len(view)} bytes, header needs {_MANIFEST_HEADER.size}",
        )
    magic, version, body_len = _MANIFEST_HEADER.unpack_from(view, 0)
    if magic != MANIFEST_MAGIC:
        raise _corrupt(
            source, "manifest magic",
            f"expected {MANIFEST_MAGIC!r}, found {bytes(magic)!r}",
        )
    if not 1 <= version <= MANIFEST_VERSION:
        raise _corrupt(
            source, "manifest version",
            f"found {version}, this build reads versions 1..{MANIFEST_VERSION}",
        )
    if len(view) < _MANIFEST_HEADER.size + body_len:
        raise _corrupt(
            source, "manifest size",
            f"header records a {body_len}-byte body but only "
            f"{len(view) - _MANIFEST_HEADER.size} bytes follow (truncated?)",
        )
    try:
        payload = json.loads(
            bytes(view[_MANIFEST_HEADER.size:_MANIFEST_HEADER.size + body_len]).decode("utf-8")
        )
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _corrupt(source, "manifest body", f"not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise _corrupt(source, "manifest body", "top level is not an object")
    for field, minimum in _MANIFEST_INT_FIELDS:
        value = payload.get(field)
        if not isinstance(value, int) or value < minimum:
            raise _corrupt(
                source, f"manifest.{field}",
                f"expected integer >= {minimum}, found {value!r}",
            )
    alphabet = payload.get("alphabet")
    if not isinstance(alphabet, str) or not alphabet:
        raise _corrupt(
            source, "manifest.alphabet",
            f"expected non-empty string, found {alphabet!r}",
        )
    shards = payload.get("shards")
    if not isinstance(shards, list) or not shards:
        raise _corrupt(
            source, "manifest.shards",
            f"expected non-empty list, found {type(shards).__name__}",
        )
    for i, shard in enumerate(shards):
        if not isinstance(shard, dict):
            raise _corrupt(source, f"manifest.shards[{i}]", "entry is not an object")
        name = shard.get("file")
        if not isinstance(name, str) or not name:
            raise _corrupt(
                source, f"manifest.shards[{i}].file",
                f"expected non-empty string, found {name!r}",
            )
        for field, minimum in _SHARD_INT_FIELDS:
            value = shard.get(field)
            if not isinstance(value, int) or value < minimum:
                raise _corrupt(
                    source, f"manifest.shards[{i}].{field}",
                    f"expected integer >= {minimum}, found {value!r}",
                )
    return payload


def save_manifest(payload: dict, path) -> int:
    """Write :func:`dump_manifest` output to ``path``; returns bytes written."""
    blob = dump_manifest(payload)
    with open(path, "wb") as handle:
        handle.write(blob)
    return len(blob)


def load_manifest(path) -> dict:
    """Read and structurally validate a manifest file."""
    path = str(path)
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise _corrupt(path, "manifest header", f"cannot read ({exc})") from None
    return parse_manifest(blob, source=path)


def sniff_manifest(path) -> bool:
    """True when ``path`` starts with the shard-manifest magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MANIFEST_MAGIC)) == MANIFEST_MAGIC
    except OSError:
        return False


__all__ = [
    "MAGIC",
    "MANIFEST_MAGIC",
    "FORMAT_VERSION",
    "MANIFEST_VERSION",
    "ENDIAN_STAMP",
    "SECTION_TAGS",
    "SampledSAView",
    "dump_fmindex",
    "save_fmindex",
    "load_fmindex",
    "open_fmindex",
    "parse_sections",
    "verify_section_checksums",
    "sniff",
    "dump_manifest",
    "parse_manifest",
    "save_manifest",
    "load_manifest",
    "sniff_manifest",
]
