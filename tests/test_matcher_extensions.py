"""Tests for the facade extensions: variants, mapping, persistence."""

import pytest

from repro import KMismatchIndex
from repro.core.kerrors import naive_kerrors_search
from repro.core.matcher import ReadHit
from repro.errors import PatternError, SerializationError
from repro.simulate import GenomeConfig, ReadConfig, generate_genome, simulate_reads

from conftest import random_dna


class TestSearchEdit:
    def test_facade_matches_naive(self, rng):
        for _ in range(8):
            text = random_dna(rng, 50)
            pattern = random_dna(rng, 7)
            index = KMismatchIndex(text)
            assert index.search_edit(pattern, 1) == naive_kerrors_search(text, pattern, 1)

    def test_validates_alphabet(self):
        with pytest.raises(Exception):
            KMismatchIndex("acgt").search_edit("axc", 1)


class TestSearchWildcard:
    def test_basic(self):
        index = KMismatchIndex("acagaca")
        assert [o.start for o in index.search_wildcard("ana")] == [0, 2, 4]

    def test_with_budget(self):
        index = KMismatchIndex("acagaca")
        # tnaca vs agaca (start 2): t/a mismatch, n wild, a/a, c/c, a/a.
        occs = index.search_wildcard("tnaca", k=1)
        assert [(o.start, o.mismatches) for o in occs] == [(2, (0,))]
        # With k=2 the window at 0 (acaga) also fits: t/a and c/g.
        occs2 = index.search_wildcard("tnaca", k=2)
        assert [o.start for o in occs2] == [0, 2]


class TestMapRead:
    def test_both_strands(self):
        genome = generate_genome(GenomeConfig(length=4_000, seed=5))
        index = KMismatchIndex(genome)
        reads = simulate_reads(
            genome, ReadConfig(n_reads=20, length=40, error_rate=0.0, mutation_rate=0.0, seed=6)
        )
        for read in reads:
            hits = index.map_read(read.sequence, k=0)
            expected_strand = "-" if read.reverse_strand else "+"
            assert any(
                h.occurrence.start == read.position and h.strand == expected_strand
                for h in hits
            ), read

    def test_requires_dna(self):
        with pytest.raises(PatternError):
            KMismatchIndex("mississippi").map_read("issi", 0)

    def test_hit_ordering(self):
        index = KMismatchIndex("acagacat")
        hits = index.map_read("aca", 0)
        assert hits == sorted(hits)
        assert all(isinstance(h, ReadHit) for h in hits)

    def test_palindromic_read_hits_both_strands(self):
        # 'at' is its own reverse complement: every occurrence appears
        # once per strand.
        index = KMismatchIndex("atatat")
        hits = index.map_read("at", 0)
        strands = {h.strand for h in hits}
        assert strands == {"+", "-"}


class TestSearchBatch:
    def test_batch_matches_individual(self):
        index = KMismatchIndex("acagacagtt")
        patterns = ["aca", "gtt", "ttt"]
        batch = index.search_batch(patterns, k=1)
        assert set(batch) == set(patterns)
        for pattern in patterns:
            assert batch[pattern] == index.search(pattern, 1)


class TestPersistence:
    def test_roundtrip(self):
        text = "acagacagttacgt"
        index = KMismatchIndex(text)
        clone = KMismatchIndex.loads(index.dumps())
        assert clone.text == text
        assert clone.search("acag", 1) == index.search("acag", 1)
        assert clone.count("aca") == index.count("aca")

    def test_roundtrip_preserves_all_methods(self, rng):
        text = random_dna(rng, 120)
        index = KMismatchIndex(text)
        clone = KMismatchIndex.loads(index.dumps())
        pattern = random_dna(rng, 8)
        for method in ("algorithm_a", "stree"):
            assert clone.search(pattern, 2, method=method) == index.search(
                pattern, 2, method=method
            )

    def test_bad_payloads(self):
        with pytest.raises(SerializationError):
            KMismatchIndex.loads("{not json")
        with pytest.raises(SerializationError):
            KMismatchIndex.loads('{"magic": "nope"}')
        good = KMismatchIndex("acgt").dumps()
        import json

        payload = json.loads(good)
        payload["version"] = 42
        with pytest.raises(SerializationError):
            KMismatchIndex.loads(json.dumps(payload))
