"""Cross-cutting property tests (hypothesis).

The central invariant of the whole package: every matcher — Algorithm A
in all its configurations, the S-tree baseline, Amir, Cole, Landau–
Vishkin — returns exactly the occurrence set of the naive O(mn) scan, on
any input.  Plus structural invariants of the index substrate.
"""

from hypothesis import given, settings, strategies as st

from repro.alphabet import DNA
from repro.baselines import amir_search, cole_search, landau_vishkin_search, naive_search
from repro.bwt import FMIndex, bwt_transform, inverse_bwt
from repro.bwt.rankall import RankAll
from repro.core.algorithm_a import AlgorithmASearcher
from repro.core.matcher import KMismatchIndex
from repro.core.stree import STreeSearcher
from repro.suffix import suffix_array, suffix_array_naive

dna_text = st.text(alphabet="acgt", min_size=1, max_size=60)
binary_text = st.text(alphabet="at", min_size=1, max_size=60)
dna_pattern = st.text(alphabet="acgt", min_size=1, max_size=12)
small_k = st.integers(min_value=0, max_value=6)


def expected(text, pattern, k):
    return [(o.start, o.mismatches) for o in naive_search(text, pattern, k)]


class TestMatcherEquivalence:
    @given(dna_text, dna_pattern, small_k)
    @settings(max_examples=120, deadline=None)
    def test_algorithm_a(self, text, pattern, k):
        fm = FMIndex(text[::-1], DNA)
        occs, _ = AlgorithmASearcher(fm).search(pattern, k)
        assert [(o.start, o.mismatches) for o in occs] == expected(text, pattern, k)

    @given(binary_text, st.text(alphabet="at", min_size=1, max_size=10), small_k)
    @settings(max_examples=80, deadline=None)
    def test_algorithm_a_binary_alphabet_full_memo(self, text, pattern, k):
        # Binary texts maximise pair recurrence; min_memo_width=1 is the
        # paper-literal mode where every node enters the hash table.
        fm = FMIndex(text[::-1], DNA)
        occs, _ = AlgorithmASearcher(fm, min_memo_width=1, use_phi=False).search(pattern, k)
        assert [(o.start, o.mismatches) for o in occs] == expected(text, pattern, k)

    @given(dna_text, dna_pattern, small_k)
    @settings(max_examples=80, deadline=None)
    def test_stree(self, text, pattern, k):
        fm = FMIndex(text[::-1], DNA)
        occs, _ = STreeSearcher(fm).search(pattern, k)
        assert [(o.start, o.mismatches) for o in occs] == expected(text, pattern, k)

    @given(dna_text, dna_pattern, small_k)
    @settings(max_examples=60, deadline=None)
    def test_amir(self, text, pattern, k):
        got = sorted((o.start, o.mismatches) for o in amir_search(text, pattern, k))
        assert got == expected(text, pattern, k)

    @given(dna_text, dna_pattern, small_k)
    @settings(max_examples=60, deadline=None)
    def test_cole(self, text, pattern, k):
        got = sorted((o.start, o.mismatches) for o in cole_search(text, pattern, k))
        assert got == expected(text, pattern, k)

    @given(dna_text, dna_pattern, small_k)
    @settings(max_examples=60, deadline=None)
    def test_landau_vishkin(self, text, pattern, k):
        got = sorted((o.start, o.mismatches) for o in landau_vishkin_search(text, pattern, k))
        assert got == expected(text, pattern, k)


class TestSubstrateInvariants:
    @given(dna_text)
    @settings(max_examples=100, deadline=None)
    def test_bwt_invertible(self, text):
        assert inverse_bwt(bwt_transform(text)) == text

    @given(dna_text)
    @settings(max_examples=100, deadline=None)
    def test_sais_equals_naive(self, text):
        assert suffix_array(text) == suffix_array_naive(text)

    @given(dna_text, st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_rankall_counts(self, text, sample_rate):
        bwt = bwt_transform(text)
        ra = RankAll(bwt, DNA, sample_rate=sample_rate)
        ra.verify()
        for i in (0, len(bwt) // 2, len(bwt)):
            for code in range(DNA.size):
                assert ra.occ(code, i) == bwt[:i].count(DNA.symbol(code))

    @given(dna_text, dna_pattern)
    @settings(max_examples=80, deadline=None)
    def test_fmindex_locate(self, text, pattern):
        fm = FMIndex(text, DNA)
        direct = [
            i for i in range(len(text) - len(pattern) + 1)
            if text[i:i + len(pattern)] == pattern
        ]
        assert sorted(fm.locate(pattern)) == direct
        assert fm.count(pattern) == len(direct)

    @given(dna_text, dna_pattern, small_k)
    @settings(max_examples=60, deadline=None)
    def test_occurrence_windows_within_budget(self, text, pattern, k):
        index = KMismatchIndex(text)
        for occ in index.search(pattern, k):
            assert 0 <= occ.start <= len(text) - len(pattern)
            assert occ.n_mismatches <= k
            window = text[occ.start:occ.start + len(pattern)]
            direct = tuple(i for i, (a, b) in enumerate(zip(window, pattern)) if a != b)
            assert occ.mismatches == direct
