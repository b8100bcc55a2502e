"""Tests for the classical string-matching substrate (repro.strings)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import PatternError
from repro.strings import (
    AhoCorasick,
    count_mismatches_capped,
    hamming_distance,
    hamming_within,
    kmp_failure,
    kmp_search,
    mismatch_positions,
    prefix_mismatch_positions,
    z_array,
)

dna = st.text(alphabet="acgt", min_size=0, max_size=60)
dna1 = st.text(alphabet="acgt", min_size=1, max_size=20)


def brute_occurrences(text, pattern):
    m = len(pattern)
    return [i for i in range(len(text) - m + 1) if text[i:i + m] == pattern]


class TestZArray:
    def test_empty(self):
        assert z_array("") == []

    def test_known(self):
        assert z_array("aabaab") == [6, 1, 0, 3, 1, 0]
        assert z_array("aaaa") == [4, 3, 2, 1]

    @given(dna)
    def test_against_definition(self, text):
        z = z_array(text)
        for i in range(len(text)):
            expected = 0
            while i + expected < len(text) and text[expected] == text[i + expected]:
                expected += 1
            if i == 0:
                assert z[0] == len(text)
            else:
                assert z[i] == expected

    def test_prefix_mismatch_positions_example(self):
        # Paper Fig. 4: r = tcacg, shift 1 -> all four overlap positions differ.
        assert prefix_mismatch_positions("tcacg", 1, 10) == [0, 1, 2, 3]

    def test_prefix_mismatch_limit(self):
        assert prefix_mismatch_positions("tcacg", 1, 2) == [0, 1]

    def test_prefix_mismatch_invalid_shift(self):
        assert prefix_mismatch_positions("abc", 0, 5) == []
        assert prefix_mismatch_positions("abc", 3, 5) == []


class TestKMP:
    def test_failure_function(self):
        assert kmp_failure("ababaa") == [0, 0, 1, 2, 3, 1]
        assert kmp_failure("aaaa") == [0, 1, 2, 3]

    def test_simple(self):
        assert kmp_search("acagaca", "aca") == [0, 4]

    def test_overlapping(self):
        assert kmp_search("aaaa", "aa") == [0, 1, 2]

    def test_no_match(self):
        assert kmp_search("acgt", "tt") == []

    def test_empty_pattern(self):
        assert kmp_search("acgt", "") == []

    @given(dna, dna1)
    def test_against_brute_force(self, text, pattern):
        assert kmp_search(text, pattern) == brute_occurrences(text, pattern)


class TestAhoCorasick:
    def test_classic_example(self):
        ac = AhoCorasick(["he", "she", "his", "hers"])
        assert sorted(ac.search("ushers")) == [(1, "she"), (2, "he"), (2, "hers")]

    def test_single_pattern_matches_kmp(self):
        ac = AhoCorasick(["aca"])
        assert sorted(pos for pos, _ in ac.iter_matches("acagaca")) == [0, 4]

    def test_overlapping_patterns(self):
        ac = AhoCorasick(["aa", "aaa"])
        hits = sorted(ac.search("aaaa"))
        assert (0, "aa") in hits and (0, "aaa") in hits

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            AhoCorasick([""])

    def test_n_patterns(self):
        assert AhoCorasick(["a", "b"]).n_patterns == 2

    @given(st.lists(dna1, min_size=1, max_size=5), dna)
    def test_against_brute_force(self, patterns, text):
        ac = AhoCorasick(patterns)
        got = sorted(set(ac.search(text)))
        expected = sorted(
            {(pos, p) for p in patterns for pos in brute_occurrences(text, p)}
        )
        assert got == expected


class TestHamming:
    def test_paper_intro_example(self):
        # Sec. I: r = aaaaacaaac vs the window of s at position 3 (1-based).
        assert hamming_distance("aaaaacaaac", "acacagaagc") == 4

    def test_distance_zero(self):
        assert hamming_distance("acgt", "acgt") == 0

    def test_length_mismatch(self):
        with pytest.raises(PatternError):
            hamming_distance("ab", "abc")

    def test_capped_count_stops_early(self):
        assert count_mismatches_capped("aaaa", "tttt", cap=1) == 2

    def test_capped_count_exact_when_under(self):
        assert count_mismatches_capped("aaca", "aata", cap=3) == 1

    def test_within(self):
        assert hamming_within("abc", "abd", 1)
        assert not hamming_within("abc", "xyd", 2)

    def test_positions(self):
        assert mismatch_positions("tcaca", "acaga") == [0, 3]

    def test_positions_limit(self):
        assert mismatch_positions("aaaa", "tttt", limit=2) == [0, 1]

    @given(dna1, dna1)
    def test_distance_symmetry(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert hamming_distance(a, b) == len(mismatch_positions(a, b))
