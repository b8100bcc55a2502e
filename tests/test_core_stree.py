"""Tests for the S-tree baseline (repro.core.stree)."""

import random
import sys
import threading

import pytest

from repro.alphabet import DNA
from repro.bwt import FMIndex
from repro.core import AlgorithmASearcher
from repro.core.kerrors import KErrorsSearcher
from repro.core.stree import STreeSearcher, compute_phi
from repro.core.wildcard import WildcardSearcher
from repro.errors import PatternError

from conftest import PAPER_PATTERN, PAPER_TARGET, random_dna, reference_occurrences


def make_searcher(text, use_phi=True):
    return STreeSearcher(FMIndex(text[::-1], DNA), use_phi=use_phi)


def phi_by_definition(fm_reverse, pattern_codes):
    """φ by its definition: an earliest-end greedy restarted at every offset.

    From offset ``i``, extend until ``pattern[i..e]`` vanishes, count one
    and continue after ``e`` — O(m²) extensions, kept as the reference
    the fast table is held to.
    """
    m = len(pattern_codes)
    first_vanish = [m] * (m + 1)
    for i in range(m):
        rng = fm_reverse.full_range()
        for e in range(i, m):
            rng = fm_reverse.extend(rng, pattern_codes[e])
            if rng.is_empty:
                first_vanish[i] = e
                break
    phi = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        e = first_vanish[i]
        phi[i] = 0 if e >= m else 1 + phi[e + 1]
    return phi


def assert_phi_matches_definition(text, pattern):
    fm = FMIndex(text[::-1], DNA)
    codes = DNA.encode(pattern)
    assert compute_phi(fm, codes) == phi_by_definition(fm, codes), (text, pattern)


class TestPhi:
    def test_paper_example_values(self):
        # Sec. IV-A: s = acagaca, r = tcaca.  φ(1) = 2 (1-based): both 't'
        # and 'cac' are absent from s.  φ(3) = 0: every substring of
        # r[3..5] = aca occurs.  (0-based: φ[0] = 2, φ[2] = 0.)
        fm = FMIndex(PAPER_TARGET[::-1], DNA)
        phi = compute_phi(fm, DNA.encode(PAPER_PATTERN))
        assert phi[0] == 2
        assert phi[2] == 0
        assert phi[len(PAPER_PATTERN)] == 0

    def test_all_substrings_present(self):
        fm = FMIndex("acgt"[::-1], DNA)
        phi = compute_phi(fm, DNA.encode("acgt"))
        assert phi == [0, 0, 0, 0, 0]

    def test_phi_is_a_sound_lower_bound(self):
        # φ(i) never exceeds the true minimum number of mismatches that
        # any window of the text must have against pattern[i:].
        rng = random.Random(12)
        text = random_dna(rng, 150)
        fm = FMIndex(text[::-1], DNA)
        pattern = random_dna(rng, 20)
        phi = compute_phi(fm, DNA.encode(pattern))
        assert all(0 <= v <= len(pattern) for v in phi)
        for i in range(len(pattern)):
            suffix = pattern[i:]
            best = min(
                sum(1 for a, b in zip(suffix, text[p:p + len(suffix)]) if a != b)
                for p in range(len(text) - len(suffix) + 1)
            )
            assert phi[i] <= best

    def test_matches_definition_on_random_inputs(self):
        rng = random.Random(15)
        for _ in range(300):
            alphabet = rng.choice(["acgt", "acg", "ac"])
            text = random_dna(rng, rng.randint(1, 120), alphabet)
            if rng.random() < 0.4:
                # A mutated window of the text: long present runs between
                # absent substrings.
                start = rng.randrange(len(text))
                window = list(text[start:start + rng.randint(1, 60)])
                for _ in range(rng.randint(0, 3)):
                    window[rng.randrange(len(window))] = rng.choice("acgt")
                pattern = "".join(window)
            else:
                pattern = random_dna(rng, rng.randint(1, 40))
            assert_phi_matches_definition(text, pattern)

    @pytest.mark.parametrize(
        "text, pattern",
        [
            ("a" * 50, "a" * 30),  # homopolymer, occurs in full
            ("a" * 50, "a" * 60),  # homopolymer longer than the run
            ("a" * 50, "aaaacaaaaaaaaaacaaaa"),  # homopolymer with breaks
            ("acg" * 30, "acgacgacgacg"),  # tandem repeat, in phase
            ("acg" * 30, "acgacgaacgacgtcgacg"),  # tandem repeat, broken
            ("acgtacgt" * 10, "cgtacgtacgtacgtaggtacg"),
            ("acgtta", "g"),  # m = 1, present
            ("acgaca", "t"),  # m = 1, absent
            ("acgaca", "acgtacgatta"),  # a code absent from the text
            ("cccc", "tttttt"),  # every position absent
            ("gattacagattaca", "ttacagat"),  # occurs in full
            ("gattacagattaca", "gattacagattaca"),  # as long as the text
            ("gattacagattaca", "gattacaggttaca"),  # as long, one change
        ],
    )
    def test_matches_definition_on_edge_cases(self, text, pattern):
        assert_phi_matches_definition(text, pattern)

    def test_probe_budget_for_a_pattern_that_occurs(self):
        # Restarting at every offset costs m(m+1)/2 = 5,050 extensions
        # for a 100 bp pattern that occurs in full; the latest-start
        # chain gallops once from the end (227 here).
        rng = random.Random(3)
        text = random_dna(rng, 3000)
        fm = FMIndex(text[::-1], DNA)
        calls = 0
        extend = fm.extend

        def counting_extend(rng, code):
            nonlocal calls
            calls += 1
            return extend(rng, code)

        fm.extend = counting_extend
        m = 100
        phi = compute_phi(fm, DNA.encode(text[1200:1200 + m]))
        assert phi == [0] * (m + 1)
        assert calls <= 4 * m


class TestRecursionHeadroom:
    @staticmethod
    def long_search_inputs(seed):
        # A pattern twice the current recursion limit: the S-tree's DFS
        # only completes while the limit is raised.
        before = sys.getrecursionlimit()
        text = random_dna(random.Random(seed), 3 * before)
        return before, text, text[:2 * before]

    @staticmethod
    def search_in_thread(fm, pattern, errors):
        def search():
            try:
                occs, _ = STreeSearcher(fm).search(pattern, 0)
                assert [o.start for o in occs] == [0]
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        thread = threading.Thread(target=search)
        thread.start()
        return thread

    def test_limit_restored_after_a_long_search(self):
        before, text, pattern = self.long_search_inputs(8)
        fm = FMIndex(text[::-1], DNA)
        for searcher in (STreeSearcher(fm), AlgorithmASearcher(fm)):
            occs, _ = searcher.search(pattern, 1)
            assert [o.start for o in occs] == [0]
            assert sys.getrecursionlimit() == before
        # The other recursive searches raise the limit on any pattern.
        assert WildcardSearcher(fm).search(pattern[:30], 1)
        assert sys.getrecursionlimit() == before
        assert KErrorsSearcher(fm).search(pattern[:30], 1)
        assert sys.getrecursionlimit() == before

    def test_limit_held_until_the_last_search_leaves(self):
        # Two long searches on two threads.  The first is held inside its
        # search (in the φ build) while the second runs to the end; the
        # second must not lower the limit under the first.
        before, text, pattern = self.long_search_inputs(9)
        held_fm = FMIndex(text[::-1], DNA)
        entered, release = threading.Event(), threading.Event()
        extend = held_fm.extend

        def held_extend(rng, code):
            if not entered.is_set():
                entered.set()
                release.wait(timeout=60)
            return extend(rng, code)

        held_fm.extend = held_extend
        errors = []
        held = self.search_in_thread(held_fm, pattern, errors)
        try:
            assert entered.wait(timeout=60)
            raised = sys.getrecursionlimit()
            assert raised > before
            other = self.search_in_thread(FMIndex(text[::-1], DNA), pattern, errors)
            other.join(timeout=60)
            assert not other.is_alive()
            assert sys.getrecursionlimit() == raised
        finally:
            release.set()
            held.join(timeout=60)
        assert not held.is_alive()
        assert errors == []
        assert sys.getrecursionlimit() == before

    def test_many_overlapping_searches(self):
        # More threads than cores and a short switch interval, so entries
        # and exits interleave: a lost update to the search count would
        # either lower the limit under a deep search (RecursionError) or
        # leave it raised.
        before, text, pattern = self.long_search_inputs(10)
        fm = FMIndex(text[::-1], DNA)
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [self.search_in_thread(fm, pattern, errors) for _ in range(8)]
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sys.getrecursionlimit() == before


class TestSTreeSearch:
    def test_paper_fig3(self):
        occs, _ = make_searcher(PAPER_TARGET).search(PAPER_PATTERN, 2)
        assert [(o.start, o.mismatches) for o in occs] == [(0, (0, 3)), (2, (0, 1))]

    def test_exact_match_k0(self):
        occs, _ = make_searcher(PAPER_TARGET).search("aca", 0)
        assert [o.start for o in occs] == [0, 4]
        assert all(o.mismatches == () for o in occs)

    def test_pattern_longer_than_text(self):
        occs, stats = make_searcher("acg").search("acgtacgt", 2)
        assert occs == []
        assert stats.nodes_expanded == 0

    def test_rejects_empty_pattern(self):
        with pytest.raises(PatternError):
            make_searcher("acgt").search("", 1)

    def test_rejects_negative_k(self):
        with pytest.raises(PatternError):
            make_searcher("acgt").search("a", -1)

    def test_k_ge_m_matches_everywhere(self):
        occs, _ = make_searcher("acgtacg").search("tt", 2)
        assert [o.start for o in occs] == list(range(6))

    def test_phi_and_nophi_agree(self, rng):
        for _ in range(25):
            text = random_dna(rng, rng.randint(10, 120))
            pattern = random_dna(rng, rng.randint(2, 15))
            k = rng.randint(0, 4)
            with_phi, s1 = make_searcher(text, True).search(pattern, k)
            without, s2 = make_searcher(text, False).search(pattern, k)
            assert with_phi == without
            assert s1.nodes_expanded <= s2.nodes_expanded

    def test_matches_naive(self, rng):
        for _ in range(40):
            text = random_dna(rng, rng.randint(5, 100))
            pattern = random_dna(rng, rng.randint(1, 12))
            k = rng.randint(0, 6)
            got, _ = make_searcher(text).search(pattern, k)
            assert [(o.start, o.mismatches) for o in got] == reference_occurrences(
                text, pattern, k
            )

    def test_stats_accounting(self):
        occs, stats = make_searcher(PAPER_TARGET, use_phi=False).search(PAPER_PATTERN, 2)
        assert stats.completed_paths == 2
        assert stats.rows_located == 2
        assert stats.leaves >= stats.completed_paths
        assert stats.nodes_expanded > 0
        assert stats.rank_queries > 0

    def test_phi_prunes_counted(self):
        # A pattern wholly absent from the text forces φ cuts at the root.
        occs, stats = make_searcher("aaaaaaaaaa").search("gtgtgtgt", 1)
        assert occs == []
        assert stats.phi_pruned > 0
