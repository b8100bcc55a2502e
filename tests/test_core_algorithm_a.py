"""Tests for Algorithm A (repro.core.algorithm_a)."""

import random

import pytest

from repro.alphabet import DNA
from repro.bwt import FMIndex
from repro.core.algorithm_a import AlgorithmASearcher
from repro.core.stree import STreeSearcher
from repro.errors import PatternError

from conftest import (
    INTRO_PATTERN,
    INTRO_TARGET,
    PAPER_PATTERN,
    PAPER_TARGET,
    random_dna,
    reference_occurrences,
)


def make_searcher(text, **kwargs):
    return AlgorithmASearcher(FMIndex(text[::-1], DNA), **kwargs)


class TestPaperExamples:
    def test_intro_example(self):
        # Sec. I: r occurs at position 3 (1-based) of s with 4 mismatches.
        occs, _ = make_searcher(INTRO_TARGET).search(INTRO_PATTERN, 4)
        assert len(occs) == 1
        assert occs[0].start == 2
        assert occs[0].n_mismatches == 4

    def test_fig3_example(self):
        # Sec. IV: two 2-mismatch occurrences of tcaca in acagaca, with
        # mismatch arrays B_1 = [1,4] and B_2 = [1,2] (1-based).
        occs, _ = make_searcher(PAPER_TARGET).search(PAPER_PATTERN, 2)
        assert [(o.start, o.mismatches) for o in occs] == [(0, (0, 3)), (2, (0, 1))]

    def test_fig3_stats(self):
        _, stats = make_searcher(PAPER_TARGET, use_phi=False).search(PAPER_PATTERN, 2)
        assert stats.completed_paths == 2
        assert stats.leaves >= 2


class TestValidation:
    def test_rejects_empty_pattern(self):
        with pytest.raises(PatternError):
            make_searcher("acgt").search("", 0)

    def test_rejects_negative_k(self):
        with pytest.raises(PatternError):
            make_searcher("acgt").search("a", -1)

    def test_rejects_bad_memo_width(self):
        with pytest.raises(PatternError):
            make_searcher("acgt", min_memo_width=0)

    def test_long_pattern_returns_empty(self):
        occs, _ = make_searcher("acg").search("acgacg", 1)
        assert occs == []


class TestConfigurations:
    """Every configuration must return exactly the naive answer set."""

    CONFIGS = [
        {},
        {"use_phi": False},
        {"enable_reuse": False},
        {"min_memo_width": 1},
        {"min_memo_width": 16},
        {"use_phi": False, "min_memo_width": 1},
        {"record_mtree": True},
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_random_cross_check(self, config, rng):
        for _ in range(25):
            text = random_dna(rng, rng.randint(10, 120), "acgt" if rng.random() < 0.7 else "ac")
            pattern = random_dna(rng, rng.randint(1, 18))
            k = rng.randint(0, 6)
            occs, _ = make_searcher(text, **config).search(pattern, k)
            assert [(o.start, o.mismatches) for o in occs] == reference_occurrences(
                text, pattern, k
            ), (config, text, pattern, k)

    def test_k_zero_is_exact_search(self):
        occs, _ = make_searcher(PAPER_TARGET).search("aca", 0)
        assert [o.start for o in occs] == [0, 4]


class TestReuse:
    def test_reuse_fires_on_repetitive_text(self, repeat_text):
        searcher = make_searcher(repeat_text, min_memo_width=2, use_phi=False)
        pattern = repeat_text[10:52]
        _, stats = searcher.search(pattern, 3)
        assert stats.reuse_hits > 0
        assert stats.chars_replayed > 0

    def test_reuse_and_noreuse_agree(self, repeat_text):
        pattern = repeat_text[100:140]
        for k in (0, 1, 2, 4):
            with_reuse, s1 = make_searcher(repeat_text, min_memo_width=1).search(pattern, k)
            without, s2 = make_searcher(repeat_text, enable_reuse=False).search(pattern, k)
            assert with_reuse == without
            assert s2.reuse_hits == 0

    def test_reuse_reduces_rank_queries(self, repeat_text):
        pattern = repeat_text[100:140]
        _, s1 = make_searcher(repeat_text, min_memo_width=1, use_phi=False).search(pattern, 3)
        _, s2 = make_searcher(repeat_text, enable_reuse=False, use_phi=False).search(pattern, 3)
        # Without the memo, one-row ranges are walked by LF rather than
        # expanded by children(); both ask the index.
        assert s1.rank_queries + s1.lf_steps < s2.rank_queries + s2.lf_steps
        assert s1.nodes_expanded < s2.nodes_expanded

    def test_periodic_pattern_on_periodic_text(self):
        # Shifted self-similarity: the paper's case i != j arises
        # constantly here, exercising both derivation directions.
        text = "acg" * 60
        pattern = "acg" * 5
        for k in (0, 1, 2, 3):
            occs, stats = make_searcher(text, min_memo_width=1, use_phi=False).search(pattern, k)
            assert [(o.start, o.mismatches) for o in occs] == reference_occurrences(
                text, pattern, k
            )

    def test_two_letter_alphabet_heavy_reuse(self, rng):
        # Binary-alphabet strings recur constantly; memo pressure is maximal.
        for _ in range(15):
            text = random_dna(rng, 150, "at")
            pattern = random_dna(rng, 12, "at")
            k = rng.randint(0, 5)
            occs, _ = make_searcher(text, min_memo_width=1, use_phi=False).search(pattern, k)
            assert [(o.start, o.mismatches) for o in occs] == reference_occurrences(
                text, pattern, k
            )


class TestStats:
    def test_memo_respects_width_threshold(self):
        text = "acgtacgtacgtacgt"
        _, narrow = make_searcher(text, min_memo_width=1).search("acgt", 1)
        _, wide = make_searcher(text, min_memo_width=8).search("acgt", 1)
        assert wide.memo_size <= narrow.memo_size

    def test_tables_lazy(self):
        searcher = make_searcher("acgtacgt")
        searcher.search("acgt", 1)
        # Accessing the property builds them on demand.
        assert searcher.tables is not None
        assert searcher.tables.pattern == "acgt"

    def test_occurrence_mismatch_positions_are_sound(self, rng):
        for _ in range(20):
            text = random_dna(rng, 80)
            pattern = random_dna(rng, 10)
            occs, _ = make_searcher(text).search(pattern, 3)
            for occ in occs:
                window = text[occ.start:occ.start + len(pattern)]
                direct = tuple(
                    i for i, (a, b) in enumerate(zip(window, pattern)) if a != b
                )
                assert occ.mismatches == direct


class TestPaperPath:
    """Algorithm A is the S-tree loop plus a memo hook."""

    def test_without_reuse_it_is_the_stree(self, rng):
        for _ in range(40):
            text = random_dna(rng, rng.randint(10, 300), "acgt" if rng.random() < 0.7 else "ac")
            pattern = random_dna(rng, rng.randint(1, 24))
            k = rng.randint(0, 5)
            use_phi = rng.random() < 0.7
            fm = FMIndex(text[::-1], DNA)
            a_occs, a_stats = AlgorithmASearcher(
                fm, enable_reuse=False, use_phi=use_phi
            ).search(pattern, k)
            s_occs, s_stats = STreeSearcher(fm, use_phi=use_phi).search(pattern, k)
            assert a_occs == s_occs
            assert a_stats.to_dict() == s_stats.to_dict(), (text, pattern, k)

    def test_kangaroo_merge_runs_and_is_exact(self):
        # Satellite repeats: the same unary runs of the index recur at
        # many pattern offsets within one read, so stored chains longer
        # than the direct-scan limit are re-scored by the merge.
        rnd = random.Random(4)
        unit = random_dna(rnd, 24)
        text = "".join(
            "".join(ch if rnd.random() >= 0.01 else rnd.choice("acgt") for ch in unit)
            for _ in range(1000)
        )
        read = list(text[12_011:12_111])
        read[20] = "a" if read[20] != "a" else "c"
        read[70] = "g" if read[70] != "g" else "t"
        read = "".join(read)
        occs, stats = make_searcher(text).search(read, 2)
        assert stats.derivation_jumps > 0
        assert [(o.start, o.mismatches) for o in occs] == reference_occurrences(text, read, 2)
