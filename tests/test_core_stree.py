"""Tests for the S-tree baseline (repro.core.stree)."""

import random
import sys
import threading
from collections import Counter

import pytest

from repro.alphabet import DNA
from repro.bwt import FMIndex
from repro.core import AlgorithmASearcher
from repro.baselines.bitparallel import myers_match_ends
from repro.baselines.naive import naive_search
from repro.core.kerrors import KErrorsSearcher
from repro.core import algorithm_a
from repro.core import stree as stree_module
from repro.core.matcher import KMismatchIndex
from repro.core.stree import STreeSearcher, compute_phi, tree_search
from repro.core.types import Occurrence, SearchStats
from repro.core.wildcard import WildcardSearcher, naive_wildcard_search
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


def memo_probe(fm, memo, stats):
    """The probe :func:`tree_search` makes of Algorithm A's memo on a wide
    range, as one call ``probe(rng, i, mm) -> (i, mm, children, derived)``
    for the reference loops; it counts into ``stats`` as the loop does."""
    table, gen, extend, replay = memo
    stride = fm.n_rows + 1

    def probe(rng, i, mm):
        lo, hi = rng
        key = lo * stride + hi
        record = table.get(key)
        if record is None:
            stats.rank_queries += 1
            children = fm.children(rng)
            if len(children) == 1:
                extend(key, lo, hi, i, children)
            else:
                table[key] = tuple(x for child in children for x in child) + (gen,)
            return i, mm, children, False
        stats.reuse_hits += 1
        if record[-1] != gen:
            stats.shared_reuse_hits += 1
        if len(record) != 3:
            it = iter(record[:-1])
            return i, mm, tuple(zip(it, it, it)), True
        i, mm, children = replay(record, i, mm)
        return i, mm, children, True

    return probe


def tree_search_by_children(
    fm, pattern_codes, k, phi, stats, memo=None, min_width=1, on_leaf=None, tally=None
):
    """The tree search that expands every node through ``children()``.

    The explicit-stack loop as it was before one-row ranges were walked
    by LF, kept as the reference :func:`tree_search` is held to.  Like
    the kernel it applies the φ cut when a node's children are scored.
    With a ``tally`` dict it also counts, under ``"calls"``, the
    ``children()`` calls on one-row ranges: the ones the LF walk replaces.
    """
    m = len(pattern_codes)
    n = fm.text_length
    children_of = fm.children
    locate = fm.suffix_position
    occurrences = []
    report = occurrences.append
    nodes = replayed = probes = rows = completed = phi_cuts = dead = budget_cuts = 0
    one_row_calls = locate_steps = 0
    # A row at text position p walks p % rate LF steps to the sampled p - p % rate.
    rate = fm.sa_sample_rate
    probe = memo_probe(fm, memo, stats) if memo is not None else None
    stack = [(fm.full_range(), 0, ())]
    if phi is not None and k < phi[0]:
        stack.clear()
        phi_cuts += 1
        if on_leaf is not None:
            on_leaf(0, ())
    pop = stack.pop
    push = stack.append
    while stack:
        rng, i, mm = pop()
        if i == m:
            completed += 1
            lo, hi = rng
            rows += hi - lo
            positions = tuple([pos for pos, _ in mm])
            for row in range(lo, hi):
                position = locate(row)
                locate_steps += position % rate
                report(Occurrence(n - position - m, positions))
            if on_leaf is not None:
                on_leaf(i, mm)
            continue
        used = len(mm)
        if probe is not None and rng[1] - rng[0] >= min_width:
            i, mm, children, derived = probe(rng, i, mm)
            used = len(mm)
        else:
            probes += 1
            children = children_of(rng)
            derived = False
            one_row_calls += rng[1] - rng[0] == 1
        if not children:
            dead += 1
            if on_leaf is not None:
                on_leaf(i, mm)
            continue
        want = pattern_codes[i]
        deeper = i + 1
        kept = 0
        for code, clo, chi in children:
            child = (clo, chi)
            if code == want:
                child_mm = mm
            elif used < k:
                child_mm = mm + ((i, code),)
            else:
                budget_cuts += 1
                if on_leaf is not None:
                    on_leaf(i, mm + ((i, code),))
                continue
            kept += 1
            if phi is not None and k - len(child_mm) < phi[deeper]:
                phi_cuts += 1
                if on_leaf is not None:
                    on_leaf(deeper, child_mm)
            else:
                push((child, deeper, child_mm))
        if derived:
            replayed += kept
        else:
            nodes += kept
    stats.nodes_expanded += nodes
    stats.chars_replayed += replayed
    stats.rank_queries += probes
    stats.locate_steps += locate_steps
    stats.rows_located += rows
    stats.completed_paths += completed
    stats.phi_pruned += phi_cuts
    stats.dead_ends += dead
    stats.budget_pruned += budget_cuts
    stats.leaves += completed + phi_cuts + dead + budget_cuts
    if tally is not None:
        tally["calls"] = tally.get("calls", 0) + one_row_calls
    return occurrences


def tree_search_at_pop(
    fm, pattern_codes, k, phi, stats, memo=None, min_width=1, on_leaf=None
):
    """:func:`tree_search` as it was while the φ cut was made at pop time.

    Every child within budget is pushed; a child below φ is cut when it
    is popped.  Kept as the reference for moving that cut to the point
    where the child is scored: the same answers, the same counts and the
    same leaves, reported in another order.
    """
    m = len(pattern_codes)
    n = fm.text_length
    children_of = fm.children
    char_code_at, lf = fm.lf_parts()
    locate = fm.suffix_position
    occurrences = []
    report = occurrences.append
    nodes = replayed = probes = rows = completed = phi_cuts = dead = budget_cuts = 0
    lf_steps = locate_steps = 0
    rate = fm.sa_sample_rate
    probe = memo_probe(fm, memo, stats) if memo is not None else None
    stack = [((0, fm.n_rows), 0, ())]
    pop = stack.pop
    push = stack.append
    while stack:
        rng, i, mm = pop()
        lo, hi = rng
        if i == m:
            completed += 1
            rows += hi - lo
            positions = tuple([pos for pos, _ in mm])
            for row in range(lo, hi):
                position = locate(row)
                locate_steps += position % rate
                report(Occurrence(n - position - m, positions))
            if on_leaf is not None:
                on_leaf(i, mm)
            continue
        used = len(mm)
        if phi is not None and k - used < phi[i]:
            phi_cuts += 1
            if on_leaf is not None:
                on_leaf(i, mm)
            continue
        if probe is not None and hi - lo >= min_width:
            i, mm, children, derived = probe(rng, i, mm)
            used = len(mm)
        elif hi - lo == 1:
            row = lo
            while True:
                lf_steps += 1
                code = char_code_at(row)
                if not code:  # the sentinel: the text ends here
                    dead += 1
                    break
                if code != pattern_codes[i]:
                    mm += ((i, code),)
                    if used >= k:
                        budget_cuts += 1
                        break
                    used += 1
                row = lf(code, row)
                i += 1
                nodes += 1
                if i == m:
                    completed += 1
                    rows += 1
                    position = locate(row)
                    locate_steps += position % rate
                    report(Occurrence(n - position - m, tuple([pos for pos, _ in mm])))
                    break
                if phi is not None and k - used < phi[i]:
                    phi_cuts += 1
                    break
            if on_leaf is not None:
                on_leaf(i, mm)
            continue
        else:
            probes += 1
            children = children_of(rng)
            derived = False
        if not children:
            dead += 1
            if on_leaf is not None:
                on_leaf(i, mm)
            continue
        want = pattern_codes[i]
        deeper = i + 1
        kept = 0
        for code, clo, chi in children:
            child = (clo, chi)
            if code == want:
                push((child, deeper, mm))
            elif used < k:
                push((child, deeper, mm + ((i, code),)))
            else:
                budget_cuts += 1
                if on_leaf is not None:
                    on_leaf(i, mm + ((i, code),))
                continue
            kept += 1
        if derived:
            replayed += kept
        else:
            nodes += kept
    stats.nodes_expanded += nodes
    stats.chars_replayed += replayed
    stats.rank_queries += probes
    stats.lf_steps += lf_steps
    stats.locate_steps += locate_steps
    stats.rows_located += rows
    stats.completed_paths += completed
    stats.phi_pruned += phi_cuts
    stats.dead_ends += dead
    stats.budget_pruned += budget_cuts
    stats.leaves += completed + phi_cuts + dead + budget_cuts
    return occurrences


def assert_phi_matches_definition(text, pattern):
    fm = FMIndex(text[::-1], DNA)
    codes = DNA.encode(pattern)
    assert compute_phi(fm, codes) == phi_by_definition(fm, codes), (text, pattern)


def assert_capped_phi(fm, codes, k):
    """The capped table's contract, against φ by its definition."""
    cap = k + 1
    full = phi_by_definition(fm, codes)
    stats = SearchStats()
    capped = compute_phi(fm, codes, cap, stats)
    assert len(capped) == len(codes) + 1 and capped[-1] == 0
    assert all(0 <= c <= f for c, f in zip(capped, full))
    assert capped[0] >= min(full[0], cap)
    if capped[0] < cap:
        assert capped == [min(f, cap) for f in full]
    # Every φ cut the search asks about is decided the same.
    for i, (c, f) in enumerate(zip(capped, full)):
        for used in range(k + 1):
            if i == 0 and used == 0 or capped[0] < cap:
                assert (k - used < c) == (k - used < f)
    return capped, stats


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

    @staticmethod
    def random_cases():
        """300 seeded (text, pattern) pairs."""
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
            yield text, pattern

    def test_matches_definition_on_random_inputs(self):
        for text, pattern in self.random_cases():
            assert_phi_matches_definition(text, pattern)

    def test_capped_on_random_inputs(self):
        root_cut = below_cap = 0
        for text, pattern in self.random_cases():
            fm = FMIndex(text[::-1], DNA)
            codes = DNA.encode(pattern)
            for k in sorted({0, 1, 3, len(pattern)}):
                capped, _ = assert_capped_phi(fm, codes, k)
                if capped[0] > k:
                    root_cut += 1
                else:
                    below_cap += 1
        assert root_cut > 100 and below_cap > 100

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
        char_code_at, lf = fm.lf_parts()

        def counting_lf(code, i):
            nonlocal calls
            calls += 1
            return lf(code, i)

        fm.lf_parts = lambda: (char_code_at, counting_lf)
        m = 100
        stats = SearchStats()
        phi = compute_phi(fm, DNA.encode(text[1200:1200 + m]), stats=stats)
        assert phi == [0] * (m + 1)
        # Each extension is two lf probes, one per end of the range.
        extensions = calls // 2
        assert 0 < extensions <= 4 * m
        assert stats.phi_steps == extensions

    @pytest.mark.parametrize(
        "text, pattern, k",
        [
            ("acgtacgtta", "ttac", 0),  # k = 0: one block, the whole pattern
            ("acgtacgtta", "tttt", 0),
            ("acgaca", "tt", 2),  # k >= m
            ("acgaca", "tt", 5),
            ("acgaca", "tttg", 3),  # m = k + 1: one-character blocks
            ("acgaca", "ttg", 3),  # m < k + 1
            ("acacacac", "gggtttggg", 2),  # every block absent
            ("acgacgacg", "acgtttggg", 2),  # only the first block present
            ("a" * 50, "a" * 30, 2),  # homopolymer, occurs in full
            ("a" * 50, "aaaacaaaaaaaaaacaaaa", 0),  # homopolymer with breaks
            ("a" * 50, "aaaacaaaaaaaaaacaaaa", 1),
            ("a" * 50, "aaaacaaaaaaaaaacaaaa", 2),
            ("a" * 50, "aaaacaaaaaaaaaacaaaa", 3),
        ],
    )
    def test_capped_on_edge_cases(self, text, pattern, k):
        fm = FMIndex(text[::-1], DNA)
        codes = DNA.encode(pattern)
        capped, stats = assert_capped_phi(fm, codes, k)
        assert stats.phi_steps > 0
        assert compute_phi(fm, codes) == phi_by_definition(fm, codes)

    def test_block_certificate(self):
        # Blocks ggg | ttt | ggg are all absent: the table counts them,
        # one step each, and no chain is built.
        fm = FMIndex("acacacac"[::-1], DNA)
        stats = SearchStats()
        phi = compute_phi(fm, DNA.encode("gggtttggg"), 3, stats)
        assert phi == [3, 2, 2, 2, 1, 1, 1, 0, 0, 0]
        assert stats.phi_steps == 3
        assert compute_phi(fm, DNA.encode("gggtttggg"))[0] == 9

    def test_only_the_first_block_present(self):
        # ggg and ttt are absent, acg occurs: the chain is built and stops
        # after three links.
        fm = FMIndex("acgacgacg"[::-1], DNA)
        codes = DNA.encode("acgtttggg")
        phi = compute_phi(fm, codes, 3)
        assert phi == [min(v, 3) for v in phi_by_definition(fm, codes)]
        assert phi[0] == 3

    def test_certificate_ends_the_search_at_the_root(self):
        # No block of the pattern occurs: both searchers cut the root and
        # ask the index nothing beyond one step per block.
        for searcher in (make_searcher("acacacacac"), AlgorithmASearcher(
                FMIndex("acacacacac"[::-1], DNA))):
            occs, stats = searcher.search("gtgtgtgt", 1)
            assert occs == []
            assert stats.leaves == stats.phi_pruned == 1
            assert stats.nodes_expanded == stats.rank_queries == stats.lf_steps == 0
            assert stats.phi_steps == 2


def make_fm(text, backend, tmp_path):
    """An index of ``text`` built in memory (``"rankall"``) or opened by
    mmap (``"mmap"``)."""
    if backend == "mmap":
        path = tmp_path / f"index{len(list(tmp_path.iterdir()))}.bin"
        KMismatchIndex(text).save(path)
        return KMismatchIndex.open(path, mmap=True).fm_index
    return FMIndex(text[::-1], DNA)


class TestPhiAtScoring:
    """:func:`tree_search` cuts a child below φ when it is scored, and the
    searchers cap φ at k + 1; both are held to the pop-time loop over the
    full φ table: the same answers, counts and leaves."""

    @pytest.mark.parametrize("backend", ["rankall", "mmap"])
    def test_matches_pop_time_loop(self, rng, tmp_path, backend):
        cuts = 0
        for text, pattern, k, use_phi in TestLFWalk.random_cases(rng, 40):
            fm = make_fm(text, backend, tmp_path)
            codes = fm.alphabet.encode(pattern)
            runs = []
            for search, cap in ((tree_search, k + 1), (tree_search_at_pop, None)):
                phi = compute_phi(fm, codes, cap) if use_phi else None
                stats, leaves = SearchStats(), []
                occurrences = search(
                    fm, codes, k, phi, stats,
                    on_leaf=lambda depth, mm: leaves.append((depth, mm))
                )
                runs.append((sorted(occurrences), stats.to_dict(), Counter(leaves)))
            assert runs[0] == runs[1], (text, pattern, k, use_phi)
            cuts += runs[0][1]["phi_pruned"]
        assert cuts > 0

    @pytest.mark.parametrize("backend", ["rankall", "mmap"])
    def test_searchers_match_pop_time_loop(self, monkeypatch, repeat_text, tmp_path, backend):
        """Both searchers, A() with its M-tree and a memo carried across
        queries, against the same searchers running the pop-time loop."""
        patterns = [repeat_text[100:140], repeat_text[10:52], "ttttt" + repeat_text[60:95]]
        fm = make_fm(repeat_text, backend, tmp_path)
        runs = []
        for search in (tree_search, tree_search_at_pop):
            leaves = []

            def traced(fm, codes, k, phi, stats, memo=None, min_width=1, on_leaf=None,
                       search=search, leaves=leaves):
                def record(depth, mm):
                    leaves.append((depth, mm))
                    if on_leaf is not None:
                        on_leaf(depth, mm)

                return search(fm, codes, k, phi, stats, memo, min_width, record)

            monkeypatch.setattr(stree_module, "tree_search", traced)
            monkeypatch.setattr(algorithm_a, "tree_search", traced)
            stree = STreeSearcher(fm)
            a = AlgorithmASearcher(fm, record_mtree=True)
            results = []
            for pattern in patterns:
                for searcher in (stree, a):
                    occurrences, stats = searcher.search(pattern, 3)
                    results.append((occurrences, stats.to_dict()))
                results.append(a.last_mtree.render())
            runs.append((results, Counter(leaves)))
        assert runs[0] == runs[1]
        assert sum(r[1]["phi_pruned"] for r in runs[0][0] if isinstance(r, tuple)) > 0


def walk_and_reference(fm, pattern, k, use_phi=True):
    """``(walked, reference)`` runs of one S-tree search: each is
    ``(occurrences, stats, on_leaf calls, tally)``."""
    codes = fm.alphabet.encode(pattern)
    phi = compute_phi(fm, codes) if use_phi else None
    runs = []
    for search in (tree_search, tree_search_by_children):
        stats, leaves, tally = SearchStats(), [], {}
        extra = {"tally": tally} if search is tree_search_by_children else {}
        occurrences = search(
            fm, codes, k, phi, stats,
            on_leaf=lambda depth, mm: leaves.append((depth, mm)), **extra
        )
        runs.append((sorted(occurrences), stats, leaves, tally))
    return runs


def assert_walk_matches(walked, reference):
    """Same answer, same leaves in the same order, same counts, except that
    each one-row ``children()`` call became one row of the LF walk."""
    occurrences, stats, leaves, _ = walked
    ref_occurrences, ref_stats, ref_leaves, tally = reference
    assert occurrences == ref_occurrences
    assert leaves == ref_leaves
    expected = ref_stats.to_dict()
    expected["rank_queries"] -= tally["calls"]
    expected["lf_steps"] = tally["calls"]
    assert stats.to_dict() == expected


class TestLFWalk:
    """One-row ranges are walked by LF inside :func:`tree_search`; the walk
    must be invisible except in ``rank_queries`` and ``lf_steps``."""

    @staticmethod
    def random_cases(rng, trials):
        for _ in range(trials):
            text = random_dna(rng, rng.randint(20, 300))
            m = rng.randint(1, 25)
            if m <= len(text) and rng.random() < 0.7:
                start = rng.randrange(len(text) - m + 1)
                pattern = list(text[start:start + m])
                for _ in range(rng.randint(0, 3)):
                    pattern[rng.randrange(m)] = rng.choice("acgt")
                pattern = "".join(pattern)
            else:
                pattern = random_dna(rng, m)
            yield text, pattern, rng.randint(0, 4), rng.random() < 0.5

    @pytest.mark.parametrize("backend", ["rankall"])
    def test_matches_children_only_loop(self, rng, tmp_path, backend):
        steps = 0
        for text, pattern, k, use_phi in self.random_cases(rng, 40):
            fm = make_fm(text, backend, tmp_path)
            walked, reference = walk_and_reference(fm, pattern, k, use_phi)
            assert_walk_matches(walked, reference)
            steps += walked[1].lf_steps
        assert steps > 0

    def test_matches_children_only_loop_on_mmap_index(self, rng, tmp_path):
        steps = 0
        for trial, (text, pattern, k, use_phi) in enumerate(self.random_cases(rng, 15)):
            path = tmp_path / f"index{trial}.bin"
            KMismatchIndex(text).save(path)
            fm = KMismatchIndex.open(path, mmap=True).fm_index
            walked, reference = walk_and_reference(fm, pattern, k, use_phi)
            assert_walk_matches(walked, reference)
            steps += walked[1].lf_steps
        assert steps > 0

    def test_walk_stops_at_the_sentinel(self, rng):
        # The pattern runs off the end of the text: after its first 20
        # characters the one-row range reads L[row] = '$'.
        text = random_dna(rng, 200)
        fm = FMIndex(text[::-1], DNA)
        walked, reference = walk_and_reference(fm, text[-20:] + "acgtac", 0, use_phi=False)
        assert_walk_matches(walked, reference)
        assert (20, ()) in walked[2]
        assert walked[1].dead_ends >= 1
        assert walked[1].lf_steps > 0

    def test_k_at_least_m(self, rng):
        text = random_dna(rng, 60)
        fm = FMIndex(text[::-1], DNA)
        for k in (5, 7):
            walked, reference = walk_and_reference(fm, "ttgca", k, use_phi=False)
            assert_walk_matches(walked, reference)
            assert len(walked[0]) == len(text) - 5 + 1

    def test_read_longer_than_the_recursion_limit(self):
        _, text, read = TestLongReads.long_case(8)
        fm = FMIndex(text[::-1], DNA)
        walked, reference = walk_and_reference(fm, read, 3)
        assert_walk_matches(walked, reference)
        assert [o.start for o in walked[0]] == [150]
        assert walked[1].lf_steps > len(read) // 2

    @pytest.mark.parametrize("min_memo_width", [1, 4])
    def test_algorithm_a(self, monkeypatch, repeat_text, min_memo_width):
        """A() on both loops, memo carried across three queries; at
        ``min_memo_width=1`` the memo owns every one-row range, so
        nothing is walked."""
        patterns = [repeat_text[100:140], repeat_text[10:52], repeat_text[100:140]]
        runs = []
        for search in (tree_search, tree_search_by_children):
            traces = []

            def traced(fm, codes, k, phi, stats, memo, min_width, on_leaf, search=search):
                leaves, tally = [], {}
                extra = {"tally": tally} if search is tree_search_by_children else {}
                traces.append((leaves, tally))
                return search(
                    fm, codes, k, phi, stats, memo, min_width,
                    lambda depth, mm: leaves.append((depth, mm)), **extra
                )

            monkeypatch.setattr(algorithm_a, "tree_search", traced)
            searcher = AlgorithmASearcher(
                FMIndex(repeat_text[::-1], DNA), min_memo_width=min_memo_width
            )
            results = [searcher.search(pattern, 3) for pattern in patterns]
            runs.append([
                (occurrences, stats, leaves, tally)
                for (occurrences, stats), (leaves, tally) in zip(results, traces)
            ])
        walked_runs, reference_runs = runs
        for walked, reference in zip(walked_runs, reference_runs):
            assert_walk_matches(walked, reference)
        assert sum(stats.reuse_hits for _, stats, _, _ in walked_runs) > 0
        steps = sum(stats.lf_steps for _, stats, _, _ in walked_runs)
        assert (steps == 0) == (min_memo_width == 1)


class TestLongReads:
    """Every tree search is a loop over an explicit stack: a read longer
    than the recursion limit is answered, and the limit is never touched."""

    @staticmethod
    def long_case(seed):
        """A read with three substitutions, a little longer than the limit."""
        limit = sys.getrecursionlimit()
        rnd = random.Random(seed)
        text = random_dna(rnd, limit + 400)
        read = list(text[150:150 + limit + 50])
        for pos in (7, limit // 2, limit + 40):
            read[pos] = "acgt"[("acgt".index(read[pos]) + 1) % 4]
        return limit, text, "".join(read)

    @staticmethod
    def watched(fm, limit, barrier=None):
        """Check the recursion limit from inside every ``children`` call;
        with a barrier, the first call waits there for the other thread."""
        children = fm.children
        calls = []

        def checked(rng):
            if barrier is not None and not calls:
                barrier.wait(timeout=60)
            calls.append(sys.getrecursionlimit())
            assert calls[-1] == limit
            return children(rng)

        fm.children = checked
        return calls

    @staticmethod
    def searches(text, read):
        """Each long search paired with its independent answer."""
        wild = read[:40] + "n" + read[41:500] + "n" + read[501:]
        # Two edits: read's first substitution and one deletion.
        edited = read[:300] + text[451:150 + len(read)]
        # The naive k-errors scan is O(n·k·m²); on a read this long the
        # bit-parallel scan (tested against it) stands in, end by end.
        myers_ends = myers_match_ends(text, edited, 2)

        def kerrors_ends(fm):
            ends = {}
            for occ in KErrorsSearcher(fm).search(edited, 2):
                end = occ.start + occ.length - 1
                ends[end] = min(ends.get(end, 3), occ.distance)
            return ends

        return [
            (lambda fm: STreeSearcher(fm).search(read, 3)[0],
             naive_search(text, read, 3)),
            (lambda fm: AlgorithmASearcher(fm, min_memo_width=1).search(read, 3)[0],
             naive_search(text, read, 3)),
            (lambda fm: WildcardSearcher(fm).search(wild, 3),
             naive_wildcard_search(text, wild, 3)),
            (kerrors_ends, myers_ends),
        ]

    def test_each_search_answers_a_read_longer_than_the_limit(self):
        limit, text, read = self.long_case(8)
        for run, expected in self.searches(text, read):
            fm = FMIndex(text[::-1], DNA)
            calls = self.watched(fm, limit)
            assert run(fm) == expected
            assert calls
            assert sys.getrecursionlimit() == limit

    def test_overlapping_long_searches_on_two_threads(self):
        limit, text, read = self.long_case(9)
        cases = self.searches(text, read)
        barrier = threading.Barrier(2)
        errors = []

        def serve(run, expected):
            try:
                fm = FMIndex(text[::-1], DNA)
                self.watched(fm, limit, barrier)
                assert run(fm) == expected
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        for pair in (cases[:2], cases[2:]):
            threads = [threading.Thread(target=serve, args=case) for case in pair]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sys.getrecursionlimit() == limit


class TestRecursionHeadroom:
    """Long searches overlapping on threads need no recursion headroom:
    each is answered and none moves the limit, whatever the others do."""

    @staticmethod
    def long_search_inputs(seed):
        # A pattern twice the current recursion limit: a recursive DFS
        # would need the limit raised to reach its leaf.
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

    def test_limit_held_until_the_last_search_leaves(self):
        # Two long searches on two threads.  The first is held inside its
        # search (in the φ build) while the second runs to the end; the
        # limit stays where it was throughout, and the held search still
        # reaches its leaf once released.
        before, text, pattern = self.long_search_inputs(9)
        held_fm = FMIndex(text[::-1], DNA)
        entered, release = threading.Event(), threading.Event()
        char_code_at, lf = held_fm.lf_parts()

        def held_lf(code, i):
            if not entered.is_set():
                entered.set()
                release.wait(timeout=60)
            return lf(code, i)

        held_fm.lf_parts = lambda: (char_code_at, held_lf)
        errors = []
        held = self.search_in_thread(held_fm, pattern, errors)
        try:
            assert entered.wait(timeout=60)
            assert sys.getrecursionlimit() == before
            other = self.search_in_thread(FMIndex(text[::-1], DNA), pattern, errors)
            other.join(timeout=60)
            assert not other.is_alive()
            assert sys.getrecursionlimit() == before
        finally:
            release.set()
            held.join(timeout=60)
        assert not held.is_alive()
        assert errors == []
        assert sys.getrecursionlimit() == before

    def test_many_overlapping_searches(self):
        # More threads than cores and a short switch interval, so entries
        # and exits interleave: every deep search must reach its leaf
        # (no RecursionError) and the limit must end where it began.
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
