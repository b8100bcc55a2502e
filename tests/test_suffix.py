"""Tests for the suffix-structure substrate (repro.suffix)."""

import random
import sys
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AlphabetError
from repro.suffix import (
    LCEOracle,
    SparseTableRMQ,
    SuffixTree,
    lcp_array_kasai,
    rank_array,
    suffix_array,
    suffix_array_doubling,
    suffix_array_naive,
)
from repro.suffix.sais import sais

dna = st.text(alphabet="acgt", min_size=0, max_size=80)
dna1 = st.text(alphabet="acgt", min_size=1, max_size=80)


class TestSuffixArray:
    def test_paper_example(self):
        # Fig. 1: sorted rotations of acagaca$.
        assert suffix_array("acagaca") == [7, 6, 4, 0, 2, 5, 1, 3]

    def test_empty_text(self):
        assert suffix_array("") == [0]

    def test_single_char(self):
        assert suffix_array("a") == [1, 0]

    def test_all_same_char(self):
        # Suffixes of aaaa$ sort shortest-first because $ < a.
        assert suffix_array("aaaa") == [4, 3, 2, 1, 0]

    @given(dna)
    def test_sais_matches_naive(self, text):
        assert suffix_array(text) == suffix_array_naive(text)

    @given(dna)
    def test_doubling_matches_naive(self, text):
        assert suffix_array_doubling(text) == suffix_array_naive(text)

    def test_three_ways_agree_random(self):
        rng = random.Random(31)
        for _ in range(30):
            text = "".join(rng.choice("acgt") for _ in range(rng.randint(0, 200)))
            naive = suffix_array_naive(text)
            assert suffix_array(text) == naive
            assert suffix_array_doubling(text) == naive

    def test_non_dna_alphabet(self):
        text = "mississippi"
        assert suffix_array(text) == suffix_array_naive(text)

    def test_rank_array_is_inverse(self):
        sa = suffix_array("acagaca")
        rank = rank_array(sa)
        for r, p in enumerate(sa):
            assert rank[p] == r

    def test_sais_rejects_nothing_valid(self):
        # Direct integer-sequence call with sentinel.
        assert sais([1, 2, 1, 3, 1, 2, 1, 0], 4) == [7, 6, 4, 0, 2, 5, 1, 3]

    def test_sais_deep_recursion_input(self):
        # abab... patterns force the recursive rename path.
        text = "ab" * 100
        assert suffix_array(text) == suffix_array_naive(text)


def _sorted_suffixes(seq):
    """Suffix array of an int sequence ending in its unique 0, by sorting."""
    return sorted(range(len(seq)), key=lambda i: seq[i:])


class TestSaisInputs:
    """``sais`` runs over code bytes at the top level and over int lists
    when it recurses; both must agree with a direct sort."""

    def _texts(self, rng):
        for _ in range(400):
            top = rng.choice((1, 2, 3, 4, 20, 255))
            n = rng.randint(0, 80)
            if rng.random() < 0.3:  # periodic texts force renaming
                unit = [rng.randint(1, top) for _ in range(rng.randint(1, 5))]
                body = (unit * (n // len(unit) + 1))[:n]
            else:
                body = [rng.randint(1, top) for _ in range(n)]
            yield body + [0], top + 1

    def test_bytes_and_lists_match_naive(self):
        for seq, n_codes in self._texts(random.Random(7)):
            expected = _sorted_suffixes(seq)
            assert sais(seq, n_codes) == expected
            assert sais(bytes(seq), n_codes) == expected

    def test_code_bytes_match_text(self):
        rng = random.Random(11)
        for _ in range(50):
            text = "".join(rng.choice("acgt") for _ in range(rng.randint(0, 120)))
            codes = bytes("_acgt".index(ch) for ch in text)
            assert suffix_array(codes) == suffix_array_naive(text)

    def test_more_than_256_names(self, monkeypatch):
        # 300 distinct words (1, then a non-increasing 4-tuple over 2..9,
        # so no LMS position inside), each twice: the reduced string holds
        # 302 names (the 300 words, the last one before the sentinel, and
        # the sentinel) with collisions, so it recurses on an int list.
        module = sys.modules["repro.suffix.sais"]
        levels = []
        original = module.sais

        def recording(text, n_codes):
            levels.append(n_codes)
            return original(text, n_codes)

        monkeypatch.setattr(module, "sais", recording)
        words = [w[::-1] for w in combinations_with_replacement(range(2, 10), 4)][:300]
        body = [c for word in words for c in (1,) + word]
        seq = bytes(body * 2 + [0])
        assert module.sais(seq, 10) == _sorted_suffixes(seq)
        assert levels[1] > 256
        wide = [1 + i % 300 for i in range(900)] + [0]
        assert module.sais(wide, 301) == _sorted_suffixes(wide)

    def test_rejects_sentinel_in_code_bytes(self):
        with pytest.raises(AlphabetError):
            suffix_array(b"\x01\x00\x02")


class TestLCP:
    def test_paper_example(self):
        text = "acagaca"
        assert lcp_array_kasai(text, suffix_array(text)) == [0, 0, 1, 3, 1, 0, 2, 0]

    @given(dna)
    def test_against_direct_comparison(self, text):
        sa = suffix_array(text)
        lcp = lcp_array_kasai(text, sa)
        s = text + "\x00"
        for r in range(1, len(sa)):
            a, b = s[sa[r - 1]:], s[sa[r]:]
            expected = 0
            while expected < min(len(a), len(b)) and a[expected] == b[expected]:
                expected += 1
            assert lcp[r] == expected

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            lcp_array_kasai("abc", [0, 1])


class TestRMQ:
    def test_basic(self):
        rmq = SparseTableRMQ([3, 1, 4, 1, 5, 9, 2, 6])
        assert rmq.query(0, 8) == 1
        assert rmq.query(4, 6) == 5
        assert rmq.query(6, 7) == 2

    def test_single_element(self):
        assert SparseTableRMQ([42]).query(0, 1) == 42

    def test_invalid_range(self):
        rmq = SparseTableRMQ([1, 2, 3])
        with pytest.raises(IndexError):
            rmq.query(2, 2)
        with pytest.raises(IndexError):
            rmq.query(0, 4)

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=60), st.data())
    def test_against_min(self, values, data):
        rmq = SparseTableRMQ(values)
        lo = data.draw(st.integers(0, len(values) - 1))
        hi = data.draw(st.integers(lo + 1, len(values)))
        assert rmq.query(lo, hi) == min(values[lo:hi])


class TestLCE:
    def test_paper_like(self):
        oracle = LCEOracle("acagaca")
        assert oracle.lce(0, 4) == 3  # acagaca vs aca
        assert oracle.lce(1, 5) == 2  # cagaca vs ca
        assert oracle.lce(0, 0) == 7

    def test_boundary_positions(self):
        oracle = LCEOracle("abc")
        assert oracle.lce(3, 0) == 0
        assert oracle.lce(3, 3) == 0

    def test_out_of_range(self):
        oracle = LCEOracle("abc")
        with pytest.raises(IndexError):
            oracle.lce(4, 0)

    @given(dna1, st.data())
    @settings(max_examples=50)
    def test_against_direct(self, text, data):
        oracle = LCEOracle(text)
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(0, len(text)))
        a, b = text[i:], text[j:]
        expected = 0
        while expected < min(len(a), len(b)) and a[expected] == b[expected]:
            expected += 1
        if i == j:
            expected = len(text) - i
        assert oracle.lce(i, j) == expected


class TestSuffixTree:
    def test_contains(self):
        st_ = SuffixTree("acagaca")
        for i in range(7):
            for j in range(i + 1, 8):
                assert st_.contains("acagaca"[i:j])
        assert not st_.contains("tt")
        assert not st_.contains("acat")

    def test_occurrences(self):
        st_ = SuffixTree("acagaca")
        assert sorted(st_.occurrences("aca")) == [0, 4]
        assert sorted(st_.occurrences("a")) == [0, 2, 4, 6]
        assert st_.occurrences("gg") == []

    def test_rejects_sentinel_in_text(self):
        with pytest.raises(ValueError):
            SuffixTree("ab$c")

    def test_node_count_linear(self):
        # A suffix tree over n chars has at most 2(n+1) nodes.
        text = "".join(random.Random(3).choice("acgt") for _ in range(500))
        tree = SuffixTree(text)
        assert tree.node_count() <= 2 * (len(text) + 1) + 1

    @given(dna1, dna1)
    @settings(max_examples=60)
    def test_occurrences_match_brute_force(self, text, pattern):
        tree = SuffixTree(text)
        expected = [
            i for i in range(len(text) - len(pattern) + 1)
            if text[i:i + len(pattern)] == pattern
        ]
        assert sorted(tree.occurrences(pattern)) == expected

    def test_leaf_positions_cover_all_suffixes(self):
        text = "acgtacgt"
        tree = SuffixTree(text)
        assert sorted(tree.leaf_positions(tree.root)) == list(range(len(text) + 1))
