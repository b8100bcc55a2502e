"""Tests for the zero-copy binary index format (repro.io.binfmt).

Covers the round-trip property (randomized genomes and alphabets, both
mmap and in-memory loading, identical query answers *and* identical
probe counters), the corruption taxonomy (every malformed file raises
:class:`IndexCorruptionError` naming the offending field), and the
shared-memory process-pool transfer built on top of the format.
"""

import json
import os
import random
import struct

import pytest

from repro.alphabet import Alphabet
from repro.bwt.fmindex import FMIndex
from repro.core.matcher import KMismatchIndex
from repro.engine.executor import BatchExecutor
from repro.errors import IndexCorruptionError, SerializationError
from repro.io import binfmt
from repro.obs import OBS

def _random_text(rnd, symbols, length):
    return "".join(rnd.choice(symbols) for _ in range(length))


def _probe_counts(fm, fn):
    """Run ``fn`` and return how often it probed ``fm``'s rank kernels
    ``lf`` / ``children`` (counted by wrappers, restored afterwards)."""
    rank = fm._rank
    counts = {"lf": 0, "children": 0}
    originals = {name: getattr(rank, name) for name in counts}

    def counting(name):
        def probe(*args):
            counts[name] += 1
            return originals[name](*args)
        return probe

    try:
        for name in counts:
            setattr(rank, name, counting(name))
        fn()
    finally:
        for name, original in originals.items():
            setattr(rank, name, original)
    return counts


def _exercise(fm, queries):
    """The query mix every round-trip comparison runs on one index."""
    out = []
    for query in queries:
        out.append(fm.count(query))
        out.append(sorted(fm.locate(query)))
    for i in range(0, fm.text_length + 1, 3):
        for code in range(fm.alphabet.size):
            out.append(fm._rank.occ(code, i))
    return out


class TestRoundTripProperty:
    @pytest.mark.parametrize("use_mmap", [True, False], ids=["mmap", "bytes"])
    def test_randomized_genomes_and_alphabets(self, tmp_path, use_mmap):
        rnd = random.Random(0xB40F)
        for trial in range(6):
            symbols = rnd.choice(["acgt", "ab", "abcdefg"])
            length = rnd.randint(20, 300)
            text = _random_text(rnd, symbols, length)
            queries = [
                text[pos : pos + rnd.randint(2, 8)]
                for pos in (rnd.randrange(max(1, length - 8)) for _ in range(5))
            ]
            fm = FMIndex(
                text,
                alphabet=Alphabet(symbols),
                occ_sample_rate=rnd.choice([1, 3, 4]),
                sa_sample_rate=rnd.choice([1, 4, 8]),
            )
            path = tmp_path / f"trial{trial}.fmbin"
            fm.save(path)
            loaded = FMIndex.load(path, mmap=use_mmap)

            baseline = _probe_counts(fm, lambda: _exercise(fm, queries))
            probes = _probe_counts(loaded, lambda: _exercise(loaded, queries))
            assert _exercise(loaded, queries) == _exercise(fm, queries)
            # Same answers *via the same amount of work*: the loaded
            # checkpoint table must drive probe-for-probe identical
            # backward searches, or the format changed the structure.
            assert probes == baseline

            assert loaded.text_length == fm.text_length
            assert loaded.sa_sample_rate == fm.sa_sample_rate
            assert loaded.bwt == fm.bwt
            assert loaded.reconstruct_text() == fm.reconstruct_text()

    def test_kmismatch_round_trip_with_checksums(self, tmp_path):
        rnd = random.Random(7)
        text = _random_text(rnd, "acgt", 600)
        index = KMismatchIndex(text)
        path = tmp_path / "idx.fmbin"
        index.save(path)
        loaded = KMismatchIndex.load(path, mmap=False, verify_checksums=True)
        pattern = text[37:67]
        for k in (0, 1, 2):
            assert loaded.search(pattern, k) == index.search(pattern, k)
        assert loaded.text == text
        loaded.verify()

    def test_open_sniffs_both_formats(self, tmp_path):
        index = KMismatchIndex("acagacagatta")
        bin_path = tmp_path / "idx.fmbin"
        json_path = tmp_path / "idx.json"
        index.save(bin_path)
        json_path.write_text(index.dumps())
        for path in (bin_path, json_path):
            assert KMismatchIndex.open(path).search("acag", 1) == index.search("acag", 1)


class TestSampledSAView:
    def test_mapping_interface(self):
        from array import array

        rows = memoryview(array("I", [2, 5, 9]))
        positions = memoryview(array("I", [20, 50, 90]))
        view = binfmt.SampledSAView(rows, positions)
        assert len(view) == 3
        assert 5 in view and 4 not in view
        assert view[9] == 90
        assert view.get(2) == 20
        assert view.get(3, -1) == -1
        with pytest.raises(KeyError):
            view[7]
        assert dict(view.items()) == {2: 20, 5: 50, 9: 90}
        assert list(view) == [2, 5, 9]
        assert view == {2: 20, 5: 50, 9: 90}


class TestCorruption:
    """Every malformed file names the offending field in its error."""

    @pytest.fixture
    def blob(self):
        return KMismatchIndex("acagacagattaca").to_binary()

    def _load(self, blob, **kwargs):
        return binfmt.load_fmindex(blob, source="test.fmbin", **kwargs)

    def test_bad_magic(self, blob):
        bad = b"NOTANIDX" + blob[8:]
        with pytest.raises(IndexCorruptionError, match="test.fmbin: magic"):
            self._load(bad)

    def test_version_skew(self, blob):
        bad = bytearray(blob)
        struct.pack_into("<I", bad, 8, binfmt.FORMAT_VERSION + 1)
        with pytest.raises(IndexCorruptionError, match="version") as excinfo:
            self._load(bytes(bad))
        assert f"this build reads version {binfmt.FORMAT_VERSION}" in str(excinfo.value)

    def test_foreign_endianness(self, blob):
        bad = bytearray(blob)
        struct.pack_into("<I", bad, 12, 0x04030201)
        with pytest.raises(IndexCorruptionError, match="endianness stamp"):
            self._load(bytes(bad))

    def test_truncated_file(self, blob):
        with pytest.raises(IndexCorruptionError, match="file size.*truncated"):
            self._load(blob[: len(blob) - 16])

    def test_shorter_than_header(self, blob):
        with pytest.raises(IndexCorruptionError, match="header"):
            self._load(blob[:10])

    def test_section_table_overrun(self, blob):
        bad = bytearray(blob)
        # Push the first section's offset past the end of the file.
        struct.pack_into("<Q", bad, binfmt._HEADER.size + 8, len(blob))
        with pytest.raises(IndexCorruptionError, match="section META"):
            self._load(bytes(bad))

    def test_section_length_mismatch(self, blob):
        bad = bytearray(blob)
        # Shrink the recorded BWTC length: bounds still valid, but the
        # META-derived size check must name the section.
        entry = binfmt._HEADER.size + binfmt.SECTION_TAGS.index(b"BWTC") * binfmt._SECTION.size
        (length,) = struct.unpack_from("<Q", bad, entry + 16)
        struct.pack_into("<Q", bad, entry + 16, length - 1)
        with pytest.raises(IndexCorruptionError, match="section BWTC length"):
            self._load(bytes(bad))

    def test_missing_section(self, blob):
        bad = bytearray(blob)
        n_sections = len(binfmt.SECTION_TAGS) - 1
        struct.pack_into(
            "<II", bad, 16,
            binfmt._HEADER.size + binfmt._SECTION.size * n_sections, n_sections,
        )
        with pytest.raises(IndexCorruptionError, match="section SAPO.*missing"):
            self._load(bytes(bad))

    def test_checksum_drift_detected_on_request(self, blob):
        info, sections = binfmt.parse_sections(blob)
        # Flip one byte inside the BWTC payload (stay within the file).
        bad = bytearray(blob)
        offset = len(blob) - len(sections[b"SAPO"]) - 1
        bad[offset] ^= 0xFF
        with pytest.raises(IndexCorruptionError, match="checksum"):
            self._load(bytes(bad), verify_checksums=True)

    def test_corrupt_meta_counts(self, blob):
        fm = binfmt.load_fmindex(blob)
        # Rebuild a blob whose META totals disagree with the BWT length.
        import json as _json

        info, sections = binfmt.parse_sections(blob)
        meta = _json.loads(bytes(sections[b"META"]))
        meta["totals"][0] += 1
        assert sum(meta["totals"]) != meta["bwt_len"]
        # Corrupt META in place only if the new JSON fits the old slot;
        # padding with spaces keeps every offset valid.
        encoded = _json.dumps(meta, sort_keys=True).encode()
        assert len(encoded) <= len(sections[b"META"]) + 8
        bad = blob.replace(bytes(sections[b"META"]), encoded.ljust(len(sections[b"META"])))
        with pytest.raises(IndexCorruptionError, match="META"):
            self._load(bad)
        del fm

    def test_empty_file_via_open(self, tmp_path):
        path = tmp_path / "empty.fmbin"
        path.write_bytes(b"")
        with pytest.raises(IndexCorruptionError, match="header"):
            binfmt.open_fmindex(path)

    def test_sniff(self, tmp_path, blob):
        bin_path = tmp_path / "a.fmbin"
        bin_path.write_bytes(blob)
        other = tmp_path / "b.json"
        other.write_text("{}")
        assert binfmt.sniff(bin_path) is True
        assert binfmt.sniff(other) is False
        assert binfmt.sniff(tmp_path / "missing") is False


@pytest.mark.usefixtures("force_pool")
class TestSharedMemoryTransfer:
    """Process batches hydrate workers from one shared-memory segment."""

    def _make(self, n_reads=12):
        rnd = random.Random(11)
        text = _random_text(rnd, "acgt", 3000)
        index = KMismatchIndex(text)
        reads = [text[i * 40 : i * 40 + 30] for i in range(n_reads)]
        return index, reads

    def test_process_batch_matches_serial(self):
        index, reads = self._make()
        serial = BatchExecutor(workers=0).run_map(index, reads, 2)
        batch = BatchExecutor(workers=2, mode="process", chunk_size=3).run_map(
            index, reads, 2
        )
        # Hit lists are deterministic and input-ordered regardless of
        # which worker served which chunk.  (Aggregate stats may differ
        # from serial: the serial path carries one cross-query memo, a
        # worker only sees its own chunks — same as the thread path.)
        assert batch.results == serial.results
        assert batch.mode == "process"
        assert batch.extra["shm_nbytes"] > 0
        assert len(batch.extra["worker_hydrate_ms"]) == batch.workers

    def test_hydration_metrics_reported(self):
        index, reads = self._make()
        OBS.reset().enable()
        try:
            batch = BatchExecutor(workers=2, mode="process", chunk_size=3).run_map(
                index, reads, 2
            )
            hydrations = OBS.metrics.counter("engine.worker.hydrations").value
            hist = OBS.metrics.histogram("engine.worker.hydrate_ms")
            assert hydrations == batch.workers == 2
            assert hist.count == 2
            assert OBS.metrics.gauge("engine.shm.nbytes").value == batch.extra["shm_nbytes"]
        finally:
            OBS.disable()
            OBS.reset()

    def test_serial_when_binary_unsupported(self):
        # A host the binary format cannot serve (big-endian) has no blob
        # to ship: the batch runs serially and touches no shared memory.
        index, reads = self._make()
        serial = BatchExecutor(workers=0).run_map(index, reads, 1)
        index.to_binary = lambda: (_ for _ in ()).throw(
            SerializationError("big-endian host")
        )
        shm_before = sorted(os.listdir("/dev/shm"))
        batch = BatchExecutor(workers=2, mode="process", chunk_size=2).run_map(
            index, reads, 1
        )
        assert sorted(os.listdir("/dev/shm")) == shm_before
        assert batch.mode == "serial" and batch.workers == 1
        assert batch.results == serial.results

    def test_blob_serialized_once_per_index(self):
        index, reads = self._make()
        calls = []
        to_binary = index.to_binary

        def counted():
            calls.append(1)
            return to_binary()

        index.to_binary = counted
        shm_before = sorted(os.listdir("/dev/shm"))
        serial = BatchExecutor(workers=0).run_map(index, reads, 2)
        assert calls == []  # a serial batch serializes nothing
        for _ in range(2):
            batch = BatchExecutor(workers=2, mode="process", chunk_size=3).run_map(
                index, reads, 2
            )
            assert batch.mode == "process"
            assert batch.results == serial.results
        assert calls == [1]
        assert sorted(os.listdir("/dev/shm")) == shm_before

    def test_worker_error_propagates(self):
        index, reads = self._make(n_reads=4)
        with pytest.raises(Exception, match="unknown|failed"):
            BatchExecutor(workers=2, mode="process", chunk_size=2).run_search(
                index, reads, 1, method="no-such-engine"
            )


class TestFormatV2:
    """u64 suffix-array sections behind ``META.sa_width``, which format v2
    introduced and every version since v3 writes in every file."""

    def _fm(self, length=400, seed=3):
        rnd = random.Random(seed)
        return FMIndex(_random_text(rnd, "acgt", length))

    def test_writer_defaults_to_u32_for_small_targets(self):
        fm = self._fm()
        info, sections = binfmt.parse_sections(fm.to_binary())
        assert info["version"] == binfmt.FORMAT_VERSION
        assert json.loads(bytes(sections[b"META"]))["sa_width"] == 4

    def test_forced_u64_round_trips(self):
        fm = self._fm()
        blob = binfmt.dump_fmindex(fm, sa_width=8)
        info, sections = binfmt.parse_sections(blob)
        assert info["version"] == binfmt.FORMAT_VERSION
        assert json.loads(bytes(sections[b"META"]))["sa_width"] == 8
        loaded = binfmt.load_fmindex(blob)
        queries = ["acg", "tta", "gg"]
        assert _exercise(loaded, queries) == _exercise(fm, queries)
        assert loaded.text_length == fm.text_length
        # u64 SA sections are twice the u32 size; everything else matches.
        narrow = binfmt.dump_fmindex(fm, sa_width=4)
        assert len(blob) > len(narrow)
        assert binfmt.load_fmindex(narrow).reconstruct_text() == fm.reconstruct_text()

    def test_u64_file_saves_and_opens_from_disk(self, tmp_path):
        fm = self._fm()
        path = tmp_path / "wide.fmbin"
        binfmt.save_fmindex(fm, path, sa_width=8)
        for use_mmap in (True, False):
            loaded = binfmt.open_fmindex(path, mmap=use_mmap)
            assert loaded.count("acag") == fm.count("acag")
            assert sorted(loaded.locate("ta")) == sorted(fm.locate("ta"))

    def test_uint32_overflow_raises_index_format_error(self):
        from repro.errors import IndexFormatError

        fm = self._fm(length=60)
        real_length = fm._text_len
        fm._text_len = 2**32  # simulate a > 4 Gbp target
        try:
            with pytest.raises(IndexFormatError) as excinfo:
                binfmt.dump_fmindex(fm, sa_width=4)
        finally:
            fm._text_len = real_length
        message = str(excinfo.value)
        # The error must name the sections and the width that holds them.
        assert "SARO/SAPO" in message
        assert "sa_width=8" in message

    def test_oversized_target_auto_selects_u64(self):
        fm = self._fm(length=60)
        real_length = fm._text_len
        fm._text_len = 2**32  # simulate a > 4 Gbp target
        try:
            blob = binfmt.dump_fmindex(fm)  # no width forced: auto-select
        finally:
            fm._text_len = real_length
        # The writer must have picked u64 sections instead of truncating
        # (the blob itself is inconsistent — its META length is faked —
        # so only the META choice is read).
        info, sections = binfmt.parse_sections(blob)
        assert json.loads(bytes(sections[b"META"]))["sa_width"] == 8

    def test_invalid_sa_width_rejected(self):
        with pytest.raises(SerializationError, match="sa_width"):
            binfmt.dump_fmindex(self._fm(length=40), sa_width=2)

    def test_bad_sa_width_value_rejected(self):
        fm = self._fm(length=80)
        for value in (6, None):
            bad = _with_meta(binfmt.dump_fmindex(fm, sa_width=8), sa_width=value)
            with pytest.raises(IndexCorruptionError, match="META.sa_width"):
                binfmt.load_fmindex(bad)


def _with_meta(blob, **changes):
    """``blob`` rebuilt with ``META`` fields changed (``None`` drops one)."""
    info, sections = binfmt.parse_sections(blob)
    meta = json.loads(bytes(sections[b"META"]))
    for field, value in changes.items():
        if value is None:
            meta.pop(field, None)
        else:
            meta[field] = value
    payloads = {tag: bytes(section) for tag, section in sections.items()}
    payloads[b"META"] = json.dumps(meta, sort_keys=True).encode()
    return binfmt._assemble(payloads)


class TestFormatV3:
    """The one-file layout v3 introduced, as version 4 keeps it: META BWTC
    RANK SUPR SARO SAPO, the sentinel's row in META, one uint8 pad before
    the non-sentinel codes' block counts and the int32 superblock rows
    after them."""

    def _fm(self, length=300, seed=5, **kwargs):
        rnd = random.Random(seed)
        return FMIndex(_random_text(rnd, "acgt", length), **kwargs)

    @pytest.mark.parametrize("sa_width", [4, 8])
    def test_round_trip_in_memory_and_mmap(self, tmp_path, sa_width):
        fm = self._fm(occ_sample_rate=3, sa_sample_rate=4)
        queries = ["acg", "tta", "gg", "a"]
        path = tmp_path / "idx.fmbin"
        binfmt.save_fmindex(fm, path, sa_width=sa_width)
        blob = binfmt.dump_fmindex(fm, sa_width=sa_width)
        assert path.read_bytes() == blob
        loaded = [binfmt.load_fmindex(blob)]
        loaded += [binfmt.open_fmindex(path, mmap=use_mmap) for use_mmap in (True, False)]
        for other in loaded:
            assert _exercise(other, queries) == _exercise(fm, queries)
            assert other.bwt == fm.bwt
            assert other._rank.sentinel_row == fm._rank.sentinel_row
            other._rank.verify()
        info, sections = binfmt.parse_sections(blob)
        assert tuple(sections) == binfmt.SECTION_TAGS
        assert b"BWTW" not in sections

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_earlier_versions_refused_naming_the_version(self, version):
        bad = bytearray(self._fm().to_binary())
        struct.pack_into("<I", bad, 8, version)
        with pytest.raises(IndexCorruptionError) as excinfo:
            binfmt.load_fmindex(bytes(bad), source="old.fmbin")
        message = str(excinfo.value)
        assert f"found version {version}" in message
        assert f"reads version {binfmt.FORMAT_VERSION}" in message

    def test_sentinel_row_checked(self):
        fm = self._fm()
        blob = fm.to_binary()
        n = fm.n_rows
        not_sentinel = (fm._rank.sentinel_row + 1) % n
        for value in (None, -1, n, "3", not_sentinel):
            with pytest.raises(IndexCorruptionError, match="META.sentinel_row"):
                binfmt.load_fmindex(_with_meta(blob, sentinel_row=value))
        # A rebuilt blob with the row unchanged still loads.
        row = fm._rank.sentinel_row
        assert binfmt.load_fmindex(_with_meta(blob, sentinel_row=row)).bwt == fm.bwt

    def test_rank_section_of_wrong_length_refused(self):
        blob = self._fm().to_binary()
        info, sections = binfmt.parse_sections(blob)
        payloads = {tag: bytes(section) for tag, section in sections.items()}
        for tag in (b"RANK", b"SUPR"):
            table = payloads[tag]
            for wrong in (table[:-1], table[:-4], table + bytes(4), table[4:]):
                payloads[tag] = wrong
                with pytest.raises(
                    IndexCorruptionError, match=f"section {tag.decode()} length"
                ):
                    binfmt.load_fmindex(binfmt._assemble(payloads))
            payloads[tag] = table

    def test_nbytes_counts_the_held_sections(self, tmp_path):
        fm = self._fm(occ_sample_rate=4, sa_sample_rate=8)
        path = tmp_path / "idx.fmbin"
        fm.save(path)
        info, sections = binfmt.parse_sections(path.read_bytes())
        meta = json.loads(bytes(sections[b"META"]))
        expected = (
            len(sections[b"BWTC"])
            + len(sections[b"RANK"])
            + len(sections[b"SUPR"])
            + 4 * meta["n_sampled"] + (fm.n_rows + 7) // 8
        )
        assert fm.nbytes() == expected
        assert FMIndex.load(path, mmap=True).nbytes() == expected

    def test_json_payload_naming_the_wavelet_backend_loads(self):
        fm = self._fm()
        payload = fm.to_dict()
        assert "rank_backend" not in payload
        payload["rank_backend"] = "wavelet"
        loaded = FMIndex.from_dict(payload)
        fresh = FMIndex.loads(fm.dumps())
        queries = ["acg", "tta", "gg"]
        assert _exercise(loaded, queries) == _exercise(fresh, queries)
        assert loaded.to_binary() == fm.to_binary()


class TestManifestContainer:
    """REPROSHD framing + the shard-file corruption taxonomy."""

    def _saved(self, tmp_path, n_shards=2, length=260):
        from repro.shard import ShardedIndex

        rnd = random.Random(0xD1)
        text = _random_text(rnd, "acgt", length)
        sharded = ShardedIndex.build(text, n_shards, max_pattern=12, max_k=2)
        path = tmp_path / "target.shd"
        sharded.save(path)
        return path, text

    def test_sniff_manifest(self, tmp_path):
        path, _ = self._saved(tmp_path)
        assert binfmt.sniff_manifest(path) is True
        assert binfmt.sniff(path) is False
        shard_file = tmp_path / "target.shard0000.fmbin"
        assert binfmt.sniff_manifest(shard_file) is False
        assert binfmt.sniff(shard_file) is True
        assert binfmt.sniff_manifest(tmp_path / "missing") is False

    def test_bad_manifest_magic(self, tmp_path):
        path, _ = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTSHARD"
        path.write_bytes(bytes(raw))
        with pytest.raises(IndexCorruptionError, match="manifest magic"):
            binfmt.load_manifest(path)
        # open() sniffs the magic first, so a non-REPROSHD prefix falls
        # through to the other formats — and fails *their* validation.
        with pytest.raises(SerializationError):
            KMismatchIndex.open(path)

    def test_unknown_manifest_version(self, tmp_path):
        path, _ = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 8, binfmt.MANIFEST_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(IndexCorruptionError, match="manifest version"):
            binfmt.load_manifest(path)

    def test_truncated_manifest_body(self, tmp_path):
        path, _ = self._saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])
        with pytest.raises(IndexCorruptionError, match="manifest size.*truncated"):
            binfmt.load_manifest(path)

    def test_manifest_body_not_json(self, tmp_path):
        path, _ = self._saved(tmp_path)
        body = b"not json at all"
        path.write_bytes(
            struct.pack("<8sII", binfmt.MANIFEST_MAGIC, binfmt.MANIFEST_VERSION,
                        len(body)) + body
        )
        with pytest.raises(IndexCorruptionError, match="manifest body"):
            binfmt.load_manifest(path)

    def test_bad_int_field(self, tmp_path):
        path, _ = self._saved(tmp_path)
        payload = binfmt.load_manifest(path)
        payload["total_length"] = "lots"
        with pytest.raises(IndexCorruptionError, match="manifest.total_length"):
            binfmt.parse_manifest(binfmt.dump_manifest(payload))

    def test_bad_shard_entry(self, tmp_path):
        path, _ = self._saved(tmp_path)
        payload = binfmt.load_manifest(path)
        payload["shards"][1]["file"] = 7
        with pytest.raises(IndexCorruptionError, match=r"manifest.shards\[1\].file"):
            binfmt.parse_manifest(binfmt.dump_manifest(payload))

    def test_missing_shard_file(self, tmp_path):
        path, _ = self._saved(tmp_path)
        (tmp_path / "target.shard0001.fmbin").unlink()
        with pytest.raises(IndexCorruptionError, match="shard 1 file") as excinfo:
            KMismatchIndex.open(path)
        assert "target.shard0001.fmbin" in str(excinfo.value)

    def test_shard_offset_mismatch(self, tmp_path):
        path, text = self._saved(tmp_path)
        # Overwrite shard 0 with an index of the wrong length: the
        # manifest's recorded geometry no longer matches the file.
        KMismatchIndex(text[:40]).save(tmp_path / "target.shard0000.fmbin")
        with pytest.raises(IndexCorruptionError,
                           match="shard 0 length.*offset mismatch"):
            KMismatchIndex.open(path)

    def test_shard_alphabet_mismatch(self, tmp_path):
        path, _ = self._saved(tmp_path)
        spec_length = len(KMismatchIndex.open(path).shards[0].text)
        KMismatchIndex("ab" * (spec_length // 2) + "a" * (spec_length % 2)).save(
            tmp_path / "target.shard0000.fmbin"
        )
        with pytest.raises(IndexCorruptionError, match="shard 0 alphabet"):
            KMismatchIndex.open(path)
