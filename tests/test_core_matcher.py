"""Tests for the public facade (repro.core.matcher.KMismatchIndex)."""

import pytest

from repro.alphabet import DNA, infer_alphabet
from repro.core.matcher import METHODS, KMismatchIndex
from repro.errors import AlphabetError, PatternError

from conftest import INTRO_PATTERN, INTRO_TARGET, random_dna, reference_occurrences


class TestConstruction:
    def test_rejects_empty_text(self):
        with pytest.raises(PatternError):
            KMismatchIndex("")

    def test_defaults_to_dna(self):
        assert KMismatchIndex("acgt").alphabet == DNA

    def test_infers_non_dna(self):
        index = KMismatchIndex("mississippi")
        assert index.alphabet == infer_alphabet("mississippi")
        assert [o.start for o in index.search("issi", 0)] == [1, 4]

    def test_text_property(self):
        assert KMismatchIndex("acgt").text == "acgt"

    def test_nbytes_positive(self):
        assert KMismatchIndex("acgt" * 50).nbytes() > 0


class TestSearch:
    def test_intro_example_all_methods(self):
        index = KMismatchIndex(INTRO_TARGET)
        expected = reference_occurrences(INTRO_TARGET, INTRO_PATTERN, 4)
        for method in METHODS:
            got = [(o.start, o.mismatches) for o in index.search(INTRO_PATTERN, 4, method=method)]
            assert got == expected, method

    def test_unknown_method(self):
        with pytest.raises(PatternError):
            KMismatchIndex("acgt").search("a", 0, method="quantum")

    def test_pattern_validated_against_alphabet(self):
        with pytest.raises(AlphabetError):
            KMismatchIndex("acgt").search("axg", 1)

    def test_count_k0_fast_path(self):
        index = KMismatchIndex("acagaca")
        assert index.count("aca") == 2
        assert index.count("tt") == 0

    def test_count_with_k(self):
        index = KMismatchIndex("acagaca")
        assert index.count("tcaca", k=2) == 2

    def test_contains(self):
        index = KMismatchIndex("acagaca")
        assert index.contains("gac")
        assert not index.contains("ttt")
        assert index.contains("ttt", k=3)

    def test_locate_exact(self):
        index = KMismatchIndex("acagaca")
        assert index.locate_exact("aca") == [0, 4]
        with pytest.raises(PatternError):
            index.locate_exact("")

    def test_search_with_stats_returns_stats(self):
        index = KMismatchIndex("acagaca")
        occs, stats = index.search_with_stats("tcaca", 2)
        assert len(occs) == 2
        assert stats.completed_paths >= 1

    def test_record_mtree_via_facade(self):
        index = KMismatchIndex("acagaca")
        index.search_with_stats("tcaca", 2, record_mtree=True)
        assert index.last_mtree is not None

    def test_methods_agree_randomly(self, rng):
        for _ in range(15):
            text = random_dna(rng, rng.randint(20, 100))
            index = KMismatchIndex(text)
            pattern = random_dna(rng, rng.randint(2, 12))
            k = rng.randint(0, 4)
            expected = reference_occurrences(text, pattern, k)
            for method in METHODS:
                got = [(o.start, o.mismatches) for o in index.search(pattern, k, method=method)]
                assert got == expected, (method, text, pattern, k)


class TestHitOrder:
    """Hit lists are sorted on plain keys (the start; ``(start,
    mismatches, strand)`` for read hits); the result must still be the
    dataclasses' own order, flat and sharded."""

    #: ``gaattc`` is its own reverse complement, so on a repeat of this
    #: unit ``+`` and ``-`` hits share starts with the same mismatches;
    #: ``gaattg`` is one substitution off it, so at k = 1 its two strands
    #: hit one start with different mismatches.
    UNIT = "gaattcaggt"
    READS = ("gaattc", "gaattg", "ggaattcag", "caggtgaattc")
    K = 1

    @pytest.fixture(scope="class")
    def target(self):
        import random

        rnd = random.Random(0x0DE7)
        repeat = list(self.UNIT * 30)
        for _ in range(8):
            repeat[rnd.randrange(len(repeat))] = rnd.choice("acgt")
        return "".join(repeat)

    @staticmethod
    def assert_dataclass_order(hits, label):
        assert hits, label
        assert hits == sorted(hits), label

    def test_flat_engines_and_reads(self, target):
        index = KMismatchIndex(target)
        for read in self.READS:
            for method in METHODS:
                self.assert_dataclass_order(index.search(read, self.K, method), (method, read))
            self.assert_dataclass_order(index.search_wildcard("gaantc", self.K), read)
            self.assert_dataclass_order(index.map_read(read, self.K), read)
        for hits in index.map_reads(list(self.READS), self.K):
            self.assert_dataclass_order(hits, "map_reads")

    def test_sharded_routes(self, target):
        from repro.shard import ShardedIndex

        sharded = ShardedIndex.build(target, 3, max_pattern=16, max_k=2)
        flat = KMismatchIndex(target)
        for read in self.READS:
            occurrences = sharded.search(read, self.K)
            self.assert_dataclass_order(occurrences, read)
            assert occurrences == flat.search(read, self.K)
            hits = sharded.map_read(read, self.K)
            self.assert_dataclass_order(hits, read)
            assert hits == flat.map_read(read, self.K)
            self.assert_dataclass_order(sharded.search_wildcard("gaantc", self.K), read)
            windows = sharded.search_edit(read, self.K)
            self.assert_dataclass_order(windows, read)
            assert windows == flat.search_edit(read, self.K)
        batched = sharded.map_reads(list(self.READS), self.K)
        assert batched == [flat.map_read(read, self.K) for read in self.READS]
        for hits in batched:
            self.assert_dataclass_order(hits, "map_reads")
        searched = sharded.search_batch(list(self.READS), self.K)
        for read, occurrences in searched.items():
            self.assert_dataclass_order(occurrences, read)

    @staticmethod
    def shared_starts(index, read, k):
        hits = index.map_read(read, k)
        by_start = {}
        for hit in hits:
            by_start.setdefault(hit.occurrence.start, []).append(hit.occurrence)
        return [pair for pair in by_start.values() if len(pair) == 2]

    def test_strands_tie_on_start(self, target):
        # The ties the key's middle and last fields break: a start hit on
        # both strands with the same mismatches (the strand decides) and
        # with different ones (the mismatches decide).
        index = KMismatchIndex(target)
        same = self.shared_starts(index, "gaattc", self.K)
        assert same and all(a == b for a, b in same)
        differ = self.shared_starts(index, "gaattg", self.K)
        assert any(a.mismatches != b.mismatches for a, b in differ)


class TestLocateSteps:
    """``SearchStats.locate_steps`` is each located row's LF walk summed:
    a row at text position ``p`` of the reversed target walks
    ``p % sa_sample_rate`` steps to its sampled entry."""

    @pytest.fixture(scope="class")
    def index(self):
        import random

        return KMismatchIndex(("acgtt" * 12 + random_dna(random.Random(5), 200)) * 2)

    def test_tree_searches(self, index):
        n, rate = index.text_length, index.fm_index.sa_sample_rate
        for method in ("algorithm_a", "stree", "stree_nophi"):
            for read, k in (("acgttacgtt", 1), ("acgt", 0), ("acgtaacgttac", 2)):
                occurrences, stats = index.search_with_stats(read, k, method)
                m = len(read)
                assert stats.rows_located == len(occurrences)
                assert stats.locate_steps == sum(
                    (n - m - occ.start) % rate for occ in occurrences
                ), (method, read, k)

    def test_wildcard_and_kerrors(self, index):
        n, rate = index.text_length, index.fm_index.sa_sample_rate
        occurrences, stats = index.engine("wildcard").search("acgntacg", 1)
        assert occurrences
        assert stats.rows_located == len(occurrences)
        assert stats.locate_steps == sum((n - 8 - occ.start) % rate for occ in occurrences)
        windows, stats = index.engine("kerrors").search("acgttacg", 1)
        assert windows
        assert stats.rows_located == len(windows)
        assert stats.locate_steps == sum(
            (n - occ.start - occ.length) % rate for occ in windows
        )
