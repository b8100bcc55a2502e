"""Tests for the sharded index layer (repro.shard).

The load-bearing property: a ShardedIndex answers every query exactly
like the unsharded index — same global positions, same mismatch counts —
including occurrences that sit on or straddle shard boundaries.  The
randomized seam suite plants true occurrences around the core
boundaries for k in {0, 1, 2, 3} and asserts list equality against the
flat engine; the rest covers the manifest round trip through
``KMismatchIndex.open``, the routed batch/map paths (thread and process
modes), the seam-budget guards, and the ``{shard}``-labelled telemetry.
"""

import random
from pathlib import Path

import pytest

from repro.core.matcher import KMismatchIndex
from repro.errors import IndexCorruptionError, PatternError
from repro.obs import OBS
from repro.shard import ShardManifest, ShardSpec, ShardedIndex, plan_shards


def _record_build_segments(monkeypatch):
    """Record the shared-memory segments a parallel shard build creates.

    Returns a function giving the names of the build's text segment and
    every shard output segment derived from it (``<text>_s<id>``).  Only
    these are checked for leaks, so segments that other processes create
    or remove meanwhile do not matter.
    """
    from repro.shard import builder

    created = []
    real = builder.shared_memory

    class Recording:
        @staticmethod
        def SharedMemory(*args, **kwargs):
            segment = real.SharedMemory(*args, **kwargs)
            if kwargs.get("create"):
                created.append(segment.name)
            return segment

    monkeypatch.setattr(builder, "shared_memory", Recording)

    def names(n_shards):
        assert created, "the build created no text segment"
        return set(created) | {
            builder._shard_segment_name(text, shard_id)
            for text in created
            for shard_id in range(n_shards)
        }

    return names


def _leaked(names):
    """The segments in ``names`` still present in ``/dev/shm``."""
    return {name for name in names if Path("/dev/shm", name).exists()}


def _random_text(rnd, length, symbols="acgt"):
    return "".join(rnd.choice(symbols) for _ in range(length))


def _mutate(rnd, window, k):
    """Plant exactly ``k`` mismatches into ``window`` (a list of chars)."""
    for i in rnd.sample(range(len(window)), k):
        window[i] = rnd.choice([c for c in "acgt" if c != window[i]])
    return "".join(window)


class TestPlanShards:
    def test_cores_partition_and_overlap_clamps(self):
        plan = plan_shards(100, 4, overlap=7)
        assert [(c0, c1) for _, _, c0, c1 in plan] == [
            (0, 25), (25, 50), (50, 75), (75, 100)
        ]
        assert [(s, s + ln) for s, ln, _, _ in plan] == [
            (0, 32), (25, 57), (50, 82), (75, 100)  # last shard clamps at 100
        ]

    def test_uneven_split_front_loads_the_remainder(self):
        plan = plan_shards(10, 3, overlap=0)
        assert [(c0, c1) for _, _, c0, c1 in plan] == [(0, 4), (4, 7), (7, 10)]

    def test_degenerate_requests_rejected(self):
        with pytest.raises(PatternError, match="n_shards"):
            plan_shards(10, 0, overlap=1)
        with pytest.raises(PatternError, match="non-empty"):
            plan_shards(3, 4, overlap=1)


class TestSeamCorrectness:
    """Sharded results must equal the unsharded engine exactly."""

    def test_randomized_boundary_occurrences(self):
        rnd = random.Random(0x5EA3)
        for trial in range(50):
            n_shards = rnd.randint(4, 6)
            length = rnd.randint(n_shards * 40, 600)
            text = _random_text(rnd, length)
            flat = KMismatchIndex(text)
            sharded = ShardedIndex.build(text, n_shards, max_pattern=24, max_k=3)
            k = trial % 4
            m = rnd.randint(max(6, k + 2), 20)
            # Plant one true occurrence straddling a random core boundary
            # (start strictly before it, window reaching past it), so the
            # seam path is exercised on every trial rather than by luck.
            boundary = rnd.choice(
                [spec.core_end for spec in sharded.manifest.shards[:-1]]
            )
            start = max(0, min(length - m, boundary - rnd.randint(1, m - 1)))
            pattern = _mutate(rnd, list(text[start : start + m]), k)
            expected = flat.search(pattern, k)
            assert [(o.start, o.mismatches) for o in expected].count(
                (start, tuple())
            ) <= 1  # sanity: starts unique
            assert sharded.search(pattern, k) == expected
            assert any(o.start == start for o in expected) or k == 0

    def test_every_position_at_small_scale(self):
        # Exhaustive sweep: every window start of a small target, so hits
        # on both sides of (and across) every seam are all compared.
        rnd = random.Random(9)
        text = _random_text(rnd, 120)
        flat = KMismatchIndex(text)
        sharded = ShardedIndex.build(text, 5, max_pattern=12, max_k=2)
        for m in (5, 11):
            for start in range(len(text) - m + 1):
                pattern = text[start : start + m]
                for k in (0, 1, 2):
                    assert sharded.search(pattern, k) == flat.search(pattern, k)

    def test_edit_and_wildcard_routed(self):
        rnd = random.Random(21)
        text = _random_text(rnd, 300)
        flat = KMismatchIndex(text)
        sharded = ShardedIndex.build(text, 4, max_pattern=20, max_k=3)
        for start in (0, 73, 148, 224, 284):
            pattern = text[start : start + 14]
            assert sharded.search_edit(pattern, 1) == flat.search_edit(pattern, 1)
            noisy = pattern[:4] + "n" + pattern[5:]
            assert sharded.search_wildcard(noisy, 1, wildcard="n") == \
                flat.search_wildcard(noisy, 1, wildcard="n")

    def test_count_contains_locate_exact(self):
        text = "acagacagatta" * 20
        flat = KMismatchIndex(text)
        sharded = ShardedIndex.build(text, 4, max_pattern=16, max_k=2)
        assert sharded.count("acag") == flat.count("acag")
        assert sharded.count("acag", 1) == flat.count("acag", 1)
        assert sharded.locate_exact("gacagat") == flat.locate_exact("gacagat")
        assert sharded.contains("gacagat") and flat.contains("gacagat")
        assert sharded.text == text
        assert sharded.text_length == len(text)


class TestRoundTrip:
    def test_save_open_via_kmismatch_open(self, tmp_path):
        rnd = random.Random(4)
        text = _random_text(rnd, 500)
        sharded = ShardedIndex.build(text, 4, max_pattern=24, max_k=3)
        path = tmp_path / "genome.shd"
        written = sharded.save(path)
        assert written > 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "genome.shard0000.fmbin", "genome.shard0001.fmbin",
            "genome.shard0002.fmbin", "genome.shard0003.fmbin", "genome.shd",
        ]
        opened = KMismatchIndex.open(path)
        assert isinstance(opened, ShardedIndex)
        assert opened.n_shards == 4
        assert opened.text == text
        flat = KMismatchIndex(text)
        pattern = text[130:150]
        for k in (0, 1, 3):
            assert opened.search(pattern, k) == flat.search(pattern, k)
        opened.verify()

    @pytest.mark.usefixtures("force_pool")
    def test_batch_and_map_over_opened_manifest(self, tmp_path):
        rnd = random.Random(12)
        text = _random_text(rnd, 600)
        flat = KMismatchIndex(text)
        path = tmp_path / "g.shd"
        ShardedIndex.build(text, 4, max_pattern=32, max_k=3).save(path)
        opened = KMismatchIndex.open(path)
        patterns = [text[i : i + 18] for i in range(0, 580, 37)]
        assert opened.search_batch(patterns, 2) == flat.search_batch(patterns, 2)
        assert opened.search_batch(patterns, 2, workers=3) == \
            flat.search_batch(patterns, 2, workers=3)
        reads = [text[i : i + 24] for i in range(0, 560, 61)]
        assert opened.map_reads(reads, 1) == flat.map_reads(reads, 1)
        hits, stats = opened.map_read_with_stats(reads[3], 1)
        flat_hits, _ = flat.map_read_with_stats(reads[3], 1)
        assert hits == flat_hits
        assert stats.completed_paths >= 0

    @pytest.mark.usefixtures("force_pool")
    def test_process_mode_routed_batch(self):
        rnd = random.Random(30)
        text = _random_text(rnd, 500)
        flat = KMismatchIndex(text)
        sharded = ShardedIndex.build(text, 3, max_pattern=16, max_k=2)
        patterns = [text[i : i + 12] for i in range(0, 480, 53)]
        assert sharded.search_batch(patterns, 1, workers=2) == \
            flat.search_batch(patterns, 1)


class TestGuards:
    def test_seam_budget_rejects_oversized_queries(self):
        text = "acgt" * 100
        sharded = ShardedIndex.build(text, 4, max_pattern=10, max_k=2)
        # overlap = 10 - 1 + 2 = 11: an m = 12, k = 0 query fits exactly...
        assert sharded.search(text[37:49], 0) is not None
        # ...but m = 13 could straddle past the seam — rejected, loudly.
        with pytest.raises(PatternError, match="seam"):
            sharded.search(text[37:50], 0)
        # k-errors windows reach m + k: m = 8, k = 4 -> window 12 <= 12 ok;
        # m = 9, k = 4 -> window 13 is over budget.
        with pytest.raises(PatternError, match="seam"):
            sharded.search_edit(text[0:9], 4)
        with pytest.raises(PatternError, match="seam"):
            sharded.search_batch([text[37:50]], 0)

    def test_single_shard_has_no_seam_budget(self):
        text = "acgt" * 50
        sharded = ShardedIndex.build(text, 1, max_pattern=4, max_k=0)
        flat = KMismatchIndex(text)
        assert sharded.search(text[3:80], 1) == flat.search(text[3:80], 1)

    def test_build_validation(self):
        with pytest.raises(PatternError, match="non-empty"):
            ShardedIndex.build("", 2)
        with pytest.raises(PatternError, match="max_pattern"):
            ShardedIndex.build("acgtacgt", 2, max_pattern=0)
        with pytest.raises(PatternError, match="max_k"):
            ShardedIndex.build("acgtacgt", 2, max_k=-1)

    def test_map_requires_dna(self):
        sharded = ShardedIndex.build("abbabab" * 30, 3, max_pattern=8, max_k=1)
        with pytest.raises(PatternError, match="DNA"):
            sharded.map_read("abba", 1)

    def test_seam_drift_detected_by_verify(self, tmp_path):
        rnd = random.Random(5)
        text = _random_text(rnd, 200)
        path = tmp_path / "g.shd"
        ShardedIndex.build(text, 2, max_pattern=8, max_k=1).save(path)
        # Rebuild shard 1 from a *different* target of the same length:
        # geometry still matches the manifest, the seam text does not.
        other = _random_text(random.Random(6), 200)
        spec = ShardManifest.load(path).shards[1]
        KMismatchIndex(other[spec.start : spec.start + spec.length]).save(
            tmp_path / spec.file
        )
        opened = KMismatchIndex.open(path)
        with pytest.raises(IndexCorruptionError, match="seam"):
            opened.verify()


class TestShardTelemetry:
    def test_query_shard_families_emitted(self):
        text = "acagacagatta" * 30
        sharded = ShardedIndex.build(text, 3, max_pattern=12, max_k=2)
        OBS.reset().enable()
        try:
            sharded.search(text[40:50], 1)
            for shard in range(3):
                hist = OBS.metrics.histogram(
                    "query.shard_ms", engine="algorithm_a", k=1, shard=shard
                )
                assert hist.count == 1
            total = sum(
                OBS.metrics.counter(
                    "query.shard_occurrences", engine="algorithm_a", k=1, shard=s
                ).value
                for s in range(3)
            )
            assert total >= len(sharded.search(text[40:50], 1))
        finally:
            OBS.disable()
            OBS.reset()

    @pytest.mark.usefixtures("force_pool")
    def test_worker_series_carry_shard_label(self):
        rnd = random.Random(44)
        text = _random_text(rnd, 400)
        sharded = ShardedIndex.build(text, 2, max_pattern=12, max_k=1)
        patterns = [text[i : i + 10] for i in range(0, 380, 23)]
        OBS.reset().enable()
        try:
            sharded.search_batch(patterns, 1, workers=2, chunk_size=4)
            for shard in range(2):
                hydrated = OBS.metrics.counter(
                    "engine.worker.hydrations", worker=0, transfer="shm-bin",
                    shard=shard,
                ).value
                assert hydrated >= 1
        finally:
            OBS.disable()
            OBS.reset()


class TestManifestSemantics:
    def _payload(self):
        return ShardManifest(
            total_length=100, overlap=5, max_pattern=5, max_k=1,
            alphabet="acgt",
            shards=(
                ShardSpec("a.fmbin", 0, 55, 0, 50),
                ShardSpec("b.fmbin", 50, 50, 50, 100),
            ),
        ).to_payload()

    def test_round_trips(self):
        manifest = ShardManifest.from_payload(self._payload())
        assert manifest.n_shards == 2
        assert manifest.shards[0].owns(49) and not manifest.shards[0].owns(50)

    def test_core_gap_rejected(self):
        payload = self._payload()
        payload["shards"][1]["core_start"] = 51
        with pytest.raises(IndexCorruptionError, match=r"shards\[1\].core_start"):
            ShardManifest.from_payload(payload)

    def test_window_length_mismatch_rejected(self):
        payload = self._payload()
        payload["shards"][0]["length"] = 54
        with pytest.raises(IndexCorruptionError, match=r"shards\[0\].length"):
            ShardManifest.from_payload(payload)

    def test_cores_must_cover_target(self):
        payload = self._payload()
        # Grow the target and extend shard 1's window consistently so the
        # per-shard checks pass — only the final coverage check can fire.
        payload["total_length"] = 110
        payload["shards"][1]["length"] = 55
        with pytest.raises(IndexCorruptionError, match="cores end at"):
            ShardManifest.from_payload(payload)


class TestParallelBuild:
    """``build_workers`` farms shard builds out to a process pool; the
    deterministic REPROIDX writer makes the output provably identical
    to a serial build — pinned here byte-for-byte on disk."""

    GENOME_BP = 3000
    N_SHARDS = 3

    def _genome(self):
        return _random_text(random.Random(99), self.GENOME_BP)

    def _saved(self, index, directory):
        directory.mkdir(exist_ok=True)
        index.save(directory / "genome.shard")
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    def test_parallel_build_byte_identical_to_serial(self, tmp_path):
        text = self._genome()
        serial = ShardedIndex.build(text, self.N_SHARDS, max_pattern=32, max_k=2)
        parallel = ShardedIndex.build(
            text, self.N_SHARDS, max_pattern=32, max_k=2, build_workers=2
        )
        serial_files = self._saved(serial, tmp_path / "serial")
        parallel_files = self._saved(parallel, tmp_path / "parallel")
        assert set(serial_files) == set(parallel_files)
        for name in serial_files:
            assert parallel_files[name] == serial_files[name], name

    def test_parallel_build_answers_queries(self):
        text = self._genome()
        parallel = ShardedIndex.build(
            text, self.N_SHARDS, max_pattern=32, max_k=2, build_workers=3
        )
        flat = KMismatchIndex(text)
        for start in (0, 997, 1999, self.GENOME_BP - 20):
            pattern = text[start : start + 16]
            assert parallel.search(pattern, 1) == flat.search(pattern, 1)

    def test_negative_build_workers_rejected(self):
        with pytest.raises(PatternError):
            ShardedIndex.build("acgt" * 100, 2, build_workers=-1)

    def test_non_ascii_text_falls_back_to_serial(self):
        # Shared-memory transfer needs a byte-per-char text; anything
        # else silently takes the serial path with identical results.
        text = ("abé" * 400)
        built = ShardedIndex.build(
            text, 2, max_pattern=8, max_k=1, build_workers=2
        )
        assert built.search(text[10:16], 0) == KMismatchIndex(text).search(text[10:16], 0)

    def test_dead_build_worker_raises_index_build_error(self, monkeypatch):
        from repro.errors import IndexBuildError, ReproError
        from repro.shard.builder import _DIE_ENV

        monkeypatch.setenv(_DIE_ENV, "1")
        text = self._genome()
        segments = _record_build_segments(monkeypatch)
        # One worker builds shard 0, then dies on shard 1: shard 0's
        # segment is written but may never be reported.
        with pytest.raises(IndexBuildError, match="exit code 17"):
            ShardedIndex.build(
                text, self.N_SHARDS, max_pattern=32, max_k=2, build_workers=1
            )
        assert _leaked(segments(self.N_SHARDS)) == set()
        # The IndexError-family contract: catchable as ReproError and
        # as RuntimeError, like the other build/corruption failures.
        assert issubclass(IndexBuildError, ReproError)
        assert issubclass(IndexBuildError, RuntimeError)

    def test_dead_build_worker_counts_worker_error(self, monkeypatch):
        from repro.errors import IndexBuildError
        from repro.obs import QUERY_ERRORS_METRIC
        from repro.shard.builder import _DIE_ENV

        monkeypatch.setenv(_DIE_ENV, "0")
        text = self._genome()
        segments = _record_build_segments(monkeypatch)
        OBS.reset().enable()
        try:
            with pytest.raises(IndexBuildError):
                ShardedIndex.build(
                    text, self.N_SHARDS, max_pattern=32, max_k=2, build_workers=2
                )
            assert _leaked(segments(self.N_SHARDS)) == set()
            counted = OBS.metrics.counter(
                QUERY_ERRORS_METRIC, engine="shard_build", k=0, kind="worker"
            ).value
            assert counted == 1
        finally:
            OBS.disable()
            OBS.reset()

    def test_build_ms_histogram_emitted_serial_and_parallel(self):
        text = self._genome()
        for build_workers in (0, 2):
            OBS.reset().enable()
            try:
                ShardedIndex.build(
                    text, self.N_SHARDS, max_pattern=32, max_k=2,
                    build_workers=build_workers,
                )
                assert OBS.metrics.histogram("shard.build_ms").count == self.N_SHARDS
                for shard in range(self.N_SHARDS):
                    labelled = OBS.metrics.histogram("shard.build_ms", shard=shard)
                    assert labelled.count == 1, (build_workers, shard)
            finally:
                OBS.disable()
                OBS.reset()
