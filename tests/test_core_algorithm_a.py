"""Tests for Algorithm A (repro.core.algorithm_a)."""

import gc
import random
import sys

import pytest

from repro.alphabet import DNA
from repro.bwt import FMIndex
from repro.core import algorithm_a
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
    """Algorithm A is the S-tree loop plus a memo."""

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


class _LoggedMemo(dict):
    """A memo table that logs each hit on a children record."""

    def __init__(self, events):
        super().__init__()
        self.events = events

    def get(self, key, default=None):
        record = super().get(key, default)
        if record is not None and len(record) != 3:
            self.events.append("children hit")
        return record


def children_records(searcher):
    """The searcher's children records: every record but the chains'
    ``(chain, t, gen)``."""
    return [record for record in searcher._memo.values() if len(record) != 3]


def decode_children(record):
    """A flat children record's ``(code, lo, hi)`` triples."""
    it = iter(record[:-1])
    return tuple(zip(it, it, it))


def record_bytes(records):
    """``sys.getsizeof`` summed over the records and every object they hold,
    each shared object once; ints from -5 to 256 are the interpreter's
    cached singletons and cost a record nothing."""
    seen = set()
    total = 0
    todo = list(records)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or (type(obj) is int and -5 <= obj <= 256):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if type(obj) is tuple:
            todo.extend(obj)
    return total


class TestMemoRecords:
    """The memo's layout: int keys, and children records that are one flat
    tuple of ints, which the garbage collector untracks in one pass."""

    def test_children_records_are_flat_int_tuples(self, rng):
        text = random_dna(rng, 3000)
        searcher = make_searcher(text)
        for gen, start in enumerate((1200, 400), 1):
            searcher.search(text[start:start + 100], 4)
            records = [r for r in children_records(searcher) if r[-1] == gen]
            assert len(records) > 50
            for record in records:
                assert type(record) is tuple and len(record) % 3 == 1
                assert all(type(x) is int for x in record)
        assert {record[-1] for record in children_records(searcher)} == {1, 2}

    def test_children_records_are_untracked_after_a_cold_search(self, rng):
        text = random_dna(rng, 3000)
        searcher = make_searcher(text)
        searcher.search(text[1200:1300], 4)
        records = children_records(searcher)
        assert len(records) > 100
        # A collection untracks a tuple whose items are all untracked:
        # a tuple of ints settles in the first collection it survives.
        gc.collect()
        assert not any(gc.is_tracked(record) for record in records)

    def test_children_record_bytes(self, rng):
        """About 310 bytes per record on this search, against 520 for
        ``(gen, ((code, lo, hi), ...))``: one tuple per record, not one
        per child plus two."""
        text = random_dna(rng, 3000)
        searcher = make_searcher(text)
        searcher.search(text[1200:1300], 4)
        records = children_records(searcher)
        assert len(records) > 100
        assert record_bytes(records) / len(records) < 400

    def test_hit_on_a_range_with_no_children_is_a_dead_end(self, rng):
        """A one-row range on the sentinel has no children; its record is
        ``(gen,)``, and a hit on it counts the dead end the miss did."""
        text = random_dna(rng, 200)
        searcher = make_searcher(text, min_memo_width=1, use_phi=False)
        pattern = text[-20:] + "acgtac"  # runs off the end of the text
        _, cold = searcher.search(pattern, 0)
        _, warm = searcher.search(pattern, 0)
        assert (1,) in searcher._memo.values()
        assert warm.reuse_hits > 0 and warm.rank_queries == 0
        assert (warm.dead_ends, warm.leaves) == (cold.dead_ends, cold.leaves) != (0, 0)

    def test_int_key_is_injective_and_names_the_range(self, rng):
        text = random_dna(rng, 40)
        fm = FMIndex(text[::-1], DNA)
        n = fm.n_rows
        pairs = [(lo, hi) for lo in range(n) for hi in range(lo + 1, n + 1)]
        assert len({lo * (n + 1) + hi for lo, hi in pairs}) == len(pairs)
        searcher = AlgorithmASearcher(fm, min_memo_width=1)
        for start in range(0, 30, 3):
            searcher.search(text[start:start + 10], 3)
        assert searcher.memo_entries > 50
        for key, record in searcher._memo.items():
            lo, hi = divmod(key, n + 1)
            assert 0 <= lo < hi <= n
            if len(record) == 3:
                chain, t, _ = record
                assert (chain.steps[t],) == fm.children((lo, hi))
            else:
                assert decode_children(record) == fm.children((lo, hi))

    def test_chain_recorded_across_a_children_hit(self, monkeypatch, repeat_text):
        """Chains start after children hits while an earlier chain is still
        open; the counts are pinned to those of the search at `07c86a8`."""
        events = []

        class LoggedChain(algorithm_a._Chain):
            __slots__ = ()

            def __init__(self, offset):
                events.append("chain")
                super().__init__(offset)

        monkeypatch.setattr(algorithm_a, "_Chain", LoggedChain)
        fm = FMIndex(repeat_text[::-1], DNA)
        searcher = AlgorithmASearcher(fm, min_memo_width=1)
        searcher._memo = _LoggedMemo(events)
        patterns = [repeat_text[100:140], repeat_text[10:52], repeat_text[100:140],
                    repeat_text[333:371]]
        fields = ("rank_queries", "nodes_expanded", "reuse_hits", "shared_reuse_hits",
                  "chars_replayed", "leaves", "memo_size")
        counts = []
        for pattern in patterns:
            occs, stats = searcher.search(pattern, 3)
            assert [(o.start, o.mismatches) for o in occs] == reference_occurrences(
                repeat_text, pattern, 3
            )
            counts.append(tuple(getattr(stats, name) for name in fields))
        assert counts == [
            (738, 806, 210, 0, 325, 208, 738),
            (103, 109, 373, 373, 983, 180, 841),
            (0, 0, 453, 453, 1131, 208, 841),
            (36, 50, 294, 294, 515, 188, 877),
        ]
        runs = "".join("c" if event == "chain" else "h" for event in events)
        assert "chc" in runs
        # Each chain step leads to the range recorded at the next step.
        n = fm.n_rows
        for key, record in searcher._memo.items():
            if len(record) == 3 and record[1] > 0:
                chain, t, _ = record
                code, lo, hi = chain.steps[t - 1]
                assert lo * (n + 1) + hi == key
                assert chain.codes[t - 1] == code

    def test_chain_extends_only_from_the_node_it_ends_at(self):
        """On a satellite repeat a range recurs at another pattern offset.
        A single-child miss on the open chain's last range, but at another
        offset, is a different node and starts a new chain; extending the
        open one would let a later chain hit skip past hits it must count."""
        rnd = random.Random(1)
        unit = random_dna(rnd, rnd.randint(8, 30))
        rate = rnd.choice([0.005, 0.01, 0.03])
        text = "".join(
            "".join(ch if rnd.random() >= rate else rnd.choice("acgt") for ch in unit)
            for _ in range(rnd.randint(40, 300))
        )
        width = rnd.choice([1, 2, 4])
        searcher = AlgorithmASearcher(FMIndex(text[::-1], DNA), min_memo_width=width)
        counts = []
        for _ in range(4):
            m = rnd.randint(30, 120)
            start = rnd.randrange(len(text) - m)
            read = list(text[start:start + m])
            for _ in range(rnd.randint(0, 4)):
                read[rnd.randrange(m)] = rnd.choice("acgt")
            read = "".join(read)
            k = rnd.randint(1, 4)
            occs, stats = searcher.search(read, k)
            assert [(o.start, o.mismatches) for o in occs] == reference_occurrences(
                text, read, k
            )
            counts.append((stats.reuse_hits, stats.chars_replayed, stats.rank_queries,
                           stats.nodes_expanded))
        assert counts == [(0, 0, 51, 133), (0, 0, 0, 0), (44, 83, 474, 1864),
                          (55, 114, 198, 775)]
