"""Tests for the BWT layer: transform, rankall, FM-index."""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.alphabet import DNA, Alphabet
from repro.bwt import EMPTY_RANGE, FMIndex, Range, RankAll, bwt_transform, inverse_bwt
from repro.bwt.rankall import superblock_span
from repro.errors import IndexCorruptionError, PatternError, SerializationError

dna = st.text(alphabet="acgt", min_size=0, max_size=80)
dna1 = st.text(alphabet="acgt", min_size=1, max_size=80)


class TestTransform:
    def test_paper_example(self):
        # Sec. III-A: s = acagaca$, BWT(s) = acg$caaa.
        assert bwt_transform("acagaca") == "acg$caaa"

    def test_inverse_paper_example(self):
        assert inverse_bwt("acg$caaa") == "acagaca"

    def test_empty(self):
        assert bwt_transform("") == "$"
        assert inverse_bwt("$") == ""

    @given(dna)
    def test_roundtrip(self, text):
        assert inverse_bwt(bwt_transform(text)) == text

    def test_inverse_rejects_no_sentinel(self):
        with pytest.raises(IndexCorruptionError):
            inverse_bwt("abc")

    def test_inverse_rejects_two_sentinels(self):
        with pytest.raises(IndexCorruptionError):
            inverse_bwt("a$b$")

    def test_permutation_property(self):
        text = "acgtacgtaa"
        assert sorted(bwt_transform(text)) == sorted(text + "$")


class TestRankAll:
    def test_paper_fig2_values(self):
        # Fig. 2 shows rankalls over BWT(acagaca$) = acg$caaa.
        ra = RankAll("acg$caaa", DNA, sample_rate=4)
        a = DNA.code("a")
        # Number of 'a' appearing before each L position (exclusive).
        assert [ra.occ(a, i) for i in range(9)] == [0, 1, 1, 1, 1, 1, 2, 3, 4]

    @pytest.mark.parametrize("sample_rate", [1, 2, 3, 4, 7, 64])
    def test_occ_matches_direct_count(self, sample_rate):
        rng = random.Random(17)
        bwt = "".join(rng.choice("acgt") for _ in range(99)) + "$"
        ra = RankAll(bwt, DNA, sample_rate=sample_rate)
        for code in range(DNA.size):
            ch = DNA.symbol(code)
            for i in range(len(bwt) + 1):
                assert ra.occ(code, i) == bwt[:i].count(ch)

    @pytest.mark.parametrize("sample_rate", [1, 3, 4])
    def test_occ_equal_in_memory_and_mapped(self, tmp_path, sample_rate):
        # A mapped rank table counts its tails over a memoryview, an
        # in-memory one over bytes.
        rng = random.Random(sample_rate)
        for trial in range(3):
            text = "".join(rng.choice("acgt") for _ in range(rng.randint(1, 70)))
            built = FMIndex(text, occ_sample_rate=sample_rate)
            path = tmp_path / f"index{trial}.bin"
            built.save(path)
            mapped = FMIndex.load(path, mmap=True)
            assert isinstance(mapped._rank.codes_buffer, memoryview)
            assert not isinstance(built._rank.codes_buffer, memoryview)
            for code in range(built.alphabet.size):
                assert [mapped._rank.occ(code, i) for i in range(built.n_rows + 1)] == [
                    built._rank.occ(code, i) for i in range(built.n_rows + 1)
                ], (text, code)

    def test_sentinel_occ_is_a_row_test(self):
        # The sentinel has no checkpoint column: occ(0, i) is i > its row.
        bwt = bwt_transform("acagacagtt")
        ra = RankAll(bwt, DNA)
        assert ra.sentinel_row == bwt.index("$")
        for i in range(len(bwt) + 1):
            assert ra.occ(0, i) == bwt[:i].count("$") == int(i > ra.sentinel_row)

    def test_occ_range(self):
        ra = RankAll("acg$caaa", DNA)
        a, c = DNA.code("a"), DNA.code("c")
        assert ra.occ(a, 8) - ra.occ(a, 0) == 4
        assert ra.occ(c, 5) - ra.occ(c, 1) == 2  # L[1:5] = 'cg$c'

    def test_rejects_bwt_without_one_sentinel(self):
        for bwt in ("acga", "a$c$"):
            with pytest.raises(IndexCorruptionError, match="sentinel"):
                RankAll(bwt, DNA)

    def test_children_codes(self):
        # The non-sentinel codes occurring in L[lo:hi], with their ranges.
        ra = RankAll("acg$caaa", DNA)
        assert [code for code, _, _ in ra.children(0, 8)] == [3, 2, 1]
        assert ra.children(4, 5) == ((DNA.code("c"), 6, 7),)

    def test_total(self):
        ra = RankAll("acg$caaa", DNA)
        assert ra.total(DNA.code("a")) == 4
        assert ra.total(DNA.code("t")) == 0

    def test_verify_clean(self):
        RankAll(bwt_transform("acagaca"), DNA).verify()

    def test_char_code_at(self):
        ra = RankAll("acg$caaa", DNA)
        assert DNA.symbol(ra.char_code_at(3)) == "$"

    def test_rejects_bad_sample_rate(self):
        with pytest.raises(IndexCorruptionError):
            RankAll("a$", DNA, sample_rate=0)

    def test_out_of_range(self):
        ra = RankAll("a$", DNA)
        with pytest.raises(IndexError):
            ra.occ(1, 3)

    def test_nbytes_counts_held_buffers(self):
        # The byte BWT; one uint8 pad and, per block, one uint8 per
        # non-sentinel code; one int32 pad and, per superblock, one int32
        # per such code.
        bwt = bwt_transform("acgt" * 100)
        for sample_rate, span in ((1, 256), (4, 256), (7, 252), (300, 300)):
            ra = RankAll(bwt, DNA, sample_rate=sample_rate)
            assert superblock_span(sample_rate) == span
            blocks = len(bwt) // sample_rate + 1
            superblocks = len(bwt) // span + 1
            assert ra.nbytes() == len(bwt) + (1 + blocks * 4) + 4 * (1 + superblocks * 4)
        # 401 rows at the paper's rate: 401 + (1 + 101 * 4) + 4 * (1 + 2 * 4).
        assert RankAll(bwt, DNA).nbytes() == 842


class TestRankDirectory:
    """The two-level rank directory against counts made by definition.

    Each case is a synthetic BWT (any string holding one sentinel is a
    valid rank input) of 700 rows, so it spans several superblocks at
    every rate, with the sentinel on a superblock boundary, on a block
    boundary inside a superblock, in a block's tail or on the last row.
    ``occ`` and ``lf`` are checked at every row, and ``children`` on
    seeded ranges, on every range from up to three rows before a
    superblock boundary to up to three rows after it and on one wide
    range across each boundary, for the
    table built in memory, loaded from ``from_binary`` bytes and opened
    from an mmap'd file.
    """

    RATES = (1, 2, 3, 4, 8, 64, 256, 300)
    ALPHABETS = {
        2: Alphabet("a"),
        5: DNA,
        256: Alphabet("".join(chr(0x100 + i) for i in range(255))),
    }
    ROWS = 700

    @classmethod
    def bwts(cls, alphabet, rate, rnd):
        """``(placement, bwt)`` with the sentinel at each placement."""
        span = superblock_span(rate)
        rows = {
            "superblock": span,
            "block": rate if rate < span else span * 2,
            "tail": span + rate // 2 + 1 if rate > 1 else span + 1,
            "last": cls.ROWS - 1,
        }
        for placement, row in rows.items():
            body = [rnd.choice(alphabet.symbols) for _ in range(cls.ROWS - 1)]
            yield placement, "".join(body[:row]) + "$" + "".join(body[row:])

    @staticmethod
    def stored(ra, tmp_path, name):
        """``(label, rank)`` for the table in memory, from bytes, mmap'd."""
        fm = FMIndex._from_parts(ra._alphabet, len(ra) - 1, 8, ra, {})
        blob = fm.to_binary()
        path = tmp_path / f"{name}.fmbin"
        path.write_bytes(blob)
        yield "memory", ra
        yield "bytes", FMIndex.from_binary(blob)._rank
        mapped = FMIndex.load(path, mmap=True)._rank
        assert isinstance(mapped.codes_buffer, memoryview)
        yield "mmap", mapped

    @staticmethod
    def ranges(n, span, rnd):
        """Seeded ranges plus every narrow range around each superblock
        boundary and one reaching from each superblock into the next."""
        out = {(0, n), (n - 1, n)}
        for _ in range(300):
            lo = rnd.randrange(n)
            out.add((lo, rnd.randint(lo + 1, min(n, lo + rnd.choice((1, 2, 3, 40, n))))))
        for edge in range(span, n, span):
            for lo in range(edge - 3, edge + 1):
                for hi in range(edge, edge + 4):
                    if 0 <= lo < hi <= n:
                        out.add((lo, hi))
            out.add((edge - span // 2, min(n, edge + span // 2 + 1)))
        return sorted(out)

    @pytest.mark.parametrize("size", sorted(ALPHABETS))
    @pytest.mark.parametrize("rate", RATES)
    def test_occ_lf_and_children_by_definition(self, tmp_path, rate, size):
        alphabet = self.ALPHABETS[size]
        assert alphabet.size == size
        rnd = random.Random(rate * 1000 + size)
        span = superblock_span(rate)
        for placement, bwt in self.bwts(alphabet, rate, rnd):
            codes = alphabet.encode(bwt)
            n = len(codes)
            prefix = {}
            for code in range(size):
                column, running = [0], 0
                for value in codes:
                    running += value == code
                    column.append(running)
                prefix[code] = column
            c_array = [0]
            for code in range(size):
                c_array.append(c_array[-1] + prefix[code][n])
            # Every code at every row is 256 x 700 probes per table on the
            # largest alphabet; there, the codes of the BWT's first rows,
            # the first and last code and one absent code stand in for the
            # rest.
            checked = range(size)
            if size > 5:
                absent = [code for code in range(size) if not prefix[code][n]]
                checked = sorted(set(codes[:8]) | {0, 1, size - 1} | set(absent[:1]))
            ranges = self.ranges(n, span, rnd)
            ra = RankAll(bwt, alphabet, sample_rate=rate)
            assert ra.sentinel_row == bwt.index("$")
            for label, rank in self.stored(ra, tmp_path, f"{placement}-{rate}-{size}"):
                where = (placement, label)
                for code in checked:
                    column, base = prefix[code], c_array[code]
                    assert [rank.occ(code, i) for i in range(n + 1)] == column, where
                    assert [rank.lf(code, i) - base for i in range(n + 1)] == column, where
                for lo, hi in ranges:
                    expected = tuple(
                        (code, c_array[code] + prefix[code][lo], c_array[code] + prefix[code][hi])
                        for code in range(size - 1, 0, -1)
                        if prefix[code][hi] > prefix[code][lo]
                    )
                    assert rank.children(lo, hi) == expected, (where, lo, hi)

    def test_superblock_span(self):
        assert [superblock_span(rate) for rate in self.RATES] == [
            256, 256, 255, 256, 256, 256, 256, 300
        ]

    def test_verify_catches_one_flipped_byte_in_either_table(self):
        from repro.io import binfmt

        rnd = random.Random(0xF11)
        bwt = "".join(rnd.choice("acgt") for _ in range(599))
        bwt = bwt[:300] + "$" + bwt[300:]
        fm = FMIndex._from_parts(DNA, len(bwt) - 1, 8, RankAll(bwt, DNA), {})
        blob = fm.to_binary()
        info, sections = binfmt.parse_sections(blob)
        FMIndex.from_binary(blob)._rank.verify()
        for tag in (b"RANK", b"SUPR"):
            entry = binfmt._HEADER.size + binfmt.SECTION_TAGS.index(tag) * binfmt._SECTION.size
            offset = binfmt._SECTION.unpack_from(blob, entry)[1]
            for byte in range(len(sections[tag])):
                bad = bytearray(blob)
                bad[offset + byte] ^= 0x10
                with pytest.raises(IndexCorruptionError, match="drift"):
                    FMIndex.from_binary(bytes(bad))._rank.verify()


class TestRange:
    def test_len_and_empty(self):
        assert len(Range(2, 5)) == 3
        assert Range(3, 3).is_empty
        assert EMPTY_RANGE.is_empty
        assert len(Range(5, 2)) == 0


class TestFMIndex:
    def test_count_paper_example(self):
        # Sec. III-A walks r = aca against BWT(acagaca$): two occurrences.
        fm = FMIndex("acagaca", DNA)
        assert fm.count("aca"[::-1]) == 2  # backward search over reversed query

    def test_count_forward_semantics(self):
        # FMIndex searches its own text directly (no reversal here).
        fm = FMIndex("acagaca", DNA)
        assert fm.count("aca") == 2
        assert fm.count("acag") == 1
        assert fm.count("gg") == 0
        assert fm.count("") == fm.n_rows

    def test_locate(self):
        fm = FMIndex("acagaca", DNA)
        assert sorted(fm.locate("aca")) == [0, 4]
        assert sorted(fm.locate("a")) == [0, 2, 4, 6]

    def test_locate_empty_pattern_rejected(self):
        with pytest.raises(PatternError):
            FMIndex("acgt", DNA).locate("")

    def test_contains(self):
        fm = FMIndex("acagaca", DNA)
        assert fm.contains("gac")
        assert not fm.contains("gat")

    @given(dna1, dna1)
    @settings(max_examples=60)
    def test_count_locate_match_brute_force(self, text, pattern):
        fm = FMIndex(text, DNA)
        expected = [
            i for i in range(len(text) - len(pattern) + 1)
            if text[i:i + len(pattern)] == pattern
        ]
        assert fm.count(pattern) == len(expected)
        assert sorted(fm.locate(pattern)) == expected

    @pytest.mark.parametrize("sa_sample", [1, 2, 8, 64])
    def test_locate_any_sa_sampling(self, sa_sample):
        text = "acgtacgtacgtagga"
        fm = FMIndex(text, DNA, sa_sample_rate=sa_sample)
        assert sorted(fm.locate("acgt")) == [0, 4, 8]

    def test_children_full_range(self):
        fm = FMIndex("acagaca", DNA)
        kids = fm.children(fm.full_range())
        codes = [code for code, _, _ in kids]
        assert codes == [DNA.code("g"), DNA.code("c"), DNA.code("a")]
        total = sum(hi - lo for _, lo, hi in kids)
        assert total == fm.n_rows - 1  # everything but the sentinel row

    def test_children_of_empty(self):
        fm = FMIndex("acgt", DNA)
        assert fm.children(EMPTY_RANGE) == ()

    def test_children_consistent_with_extend(self):
        fm = FMIndex("acagacagtt", DNA)
        rng = fm.full_range()
        for code, lo, hi in fm.children(rng):
            assert fm.extend(rng, code) == (lo, hi)

    def test_extend_char(self):
        fm = FMIndex("acagaca", DNA)
        rng = fm.extend_char(fm.full_range(), "a")
        assert len(rng) == 4

    def test_f_interval(self):
        fm = FMIndex("acagaca", DNA)
        assert fm.f_interval(DNA.code("a")) == Range(1, 5)
        assert fm.f_interval(0) == Range(0, 1)  # sentinel row

    def test_suffix_position_walks(self):
        text = "acagaca"
        fm = FMIndex(text, DNA, sa_sample_rate=4)
        from repro.suffix import suffix_array

        sa = suffix_array(text)
        for row in range(fm.n_rows):
            assert fm.suffix_position(row) == sa[row]

    def test_reconstruct_text(self):
        fm = FMIndex("acagaca", DNA)
        assert fm.reconstruct_text() == "acagaca"

    def test_infers_alphabet(self):
        fm = FMIndex("mississippi")
        assert fm.count("issi") == 2

    def test_rejects_bad_sa_sample(self):
        with pytest.raises(IndexCorruptionError):
            FMIndex("acgt", DNA, sa_sample_rate=0)


class TestChildrenKernel:
    """``FMIndex.children`` delegates to the rankall kernel; on every range
    it must equal one ``extend`` per character, highest code first, as a
    tuple of int triples the garbage collector can untrack."""

    @staticmethod
    def indexes(rnd, tmp_path):
        """``(label, index)`` over small random texts: rankall at three
        checkpoint spacings and rankall opened from an mmap'd file."""
        for trial in range(4):
            symbols = "acgt" if trial % 2 == 0 else "abcdefg"
            text = "".join(rnd.choice(symbols) for _ in range(rnd.randint(1, 40)))
            for rate in (1, 3, 4):
                yield f"rankall/{rate}", FMIndex(text, occ_sample_rate=rate)
            path = tmp_path / f"index{trial}.bin"
            FMIndex(text, occ_sample_rate=3).save(path)
            mapped = FMIndex.load(path, mmap=True)
            assert isinstance(mapped._rank.codes_buffer, memoryview)
            yield "rankall/mmap", mapped

    @staticmethod
    def by_extend(fm, rng):
        out = []
        for code in range(fm.alphabet.size - 1, 0, -1):
            child = fm.extend(rng, code)
            if not child.is_empty:
                out.append((code, child.lo, child.hi))
        return tuple(out)

    def test_equals_extend_on_every_range(self, tmp_path):
        labels = set()
        for label, fm in self.indexes(random.Random(0xC41D), tmp_path):
            labels.add(label)
            rate = fm._rank.sample_rate
            n = fm.n_rows
            edges = set()
            for lo in range(n + 1):
                for hi in range(lo, n + 1):
                    rng = Range(lo, hi)
                    assert fm.children(rng) == self.by_extend(fm, rng), (label, lo, hi)
                    assert fm.children((lo, hi)) == fm.children(rng)
                    if rate and lo < hi:
                        edges.add((lo % rate == 0, hi % rate == 0))
            assert fm.children(EMPTY_RANGE) == ()
            assert fm.children((n, n)) == ()
            full = fm.children(fm.full_range())
            assert sum(hi - lo for _, lo, hi in full) == n - 1
            if rate > 1:
                # Ranges starting and ending on and off a checkpoint.
                assert edges == {(True, True), (True, False), (False, True), (False, False)}
        assert labels == {"rankall/1", "rankall/3", "rankall/4", "rankall/mmap"}

    def test_pairs_are_untracked_after_collection(self, tmp_path):
        """Each child triple, and the tuple holding them, is untracked."""
        for label, fm in self.indexes(random.Random(7), tmp_path):
            kids = fm.children(fm.full_range())
            # The outer tuple is untracked once its triples are, and one
            # pass may visit it first: two passes settle both.
            gc.collect()
            gc.collect()
            assert kids, label
            assert type(kids) is tuple, label
            assert not gc.is_tracked(kids), label
            for triple in kids:
                assert [type(x) for x in triple] == [int, int, int], label
                assert not gc.is_tracked(triple), label


class TestLocateRange:
    """``locate_rows`` walks a whole row range per LF level; every range
    must come back as the suffix array's entries, in row order, with the
    steps each row's own walk takes summed."""

    RATES = (1, 2, 8, 32)

    @staticmethod
    def texts(rnd):
        """Random texts and near-tandem repeats, where a range's rows share
        their left context and stay one group for several levels."""
        for _ in range(3):
            yield "".join(rnd.choice("acgt") for _ in range(rnd.randint(1, 90)))
        for unit in ("acgtt", "gaattcaggt"):
            repeat = list(unit * 12)
            repeat[rnd.randrange(len(repeat))] = "c"
            yield "".join(repeat)

    @classmethod
    def indexes(cls, rnd, tmp_path):
        """``(label, text, index)``: rankall in memory and rankall opened
        from an mmap'd file, at every rate."""
        for trial, text in enumerate(cls.texts(rnd)):
            for rate in cls.RATES:
                yield "rankall", text, FMIndex(text, DNA, sa_sample_rate=rate)
                path = tmp_path / f"index{trial}_{rate}.bin"
                FMIndex(text, DNA, sa_sample_rate=rate).save(path)
                mapped = FMIndex.load(path, mmap=True)
                assert isinstance(mapped._rank.codes_buffer, memoryview)
                yield "mmap", text, mapped

    def test_equals_suffix_array(self, tmp_path):
        from repro.suffix import suffix_array

        rnd = random.Random(0x10CA7E)
        seen = set()
        for label, text, fm in self.indexes(rnd, tmp_path):
            sa = suffix_array(text)
            rate = fm.sa_sample_rate
            n = fm.n_rows
            sentinel_row = sa.index(0)  # L[row] = $
            ranges = [(0, n), (sentinel_row, sentinel_row + 1)]
            ranges += [(max(0, sentinel_row - 2), min(n, sentinel_row + 3))]
            ranges += [(row, row + 1) for row in rnd.sample(range(n), min(n, 5))]
            for _ in range(12):
                lo = rnd.randrange(n + 1)
                ranges.append((lo, rnd.randint(lo, n)))
            for lo, hi in ranges:
                positions, steps = fm.locate_rows(lo, hi)
                assert positions == sa[lo:hi], (label, text, rate, lo, hi)
                # A row at position p walks to the sampled p - p % rate.
                assert steps == sum(p % rate for p in sa[lo:hi]), (label, text, rate, lo, hi)
                assert fm.locate_range((lo, hi)) == sa[lo:hi]
                assert fm.locate_range(Range(lo, hi)) == sa[lo:hi]
            assert [fm.suffix_position(row) for row in range(n)] == sa
            seen.add((label, rate))
        assert seen == {(label, rate) for label in ("rankall", "mmap")
                        for rate in self.RATES}

    def test_empty_range(self):
        fm = FMIndex("acagaca", DNA)
        assert fm.locate_rows(3, 3) == ([], 0)
        assert fm.locate_range(EMPTY_RANGE) == []

    def test_a_shared_context_moves_as_one_group(self):
        # Every row prefixed by "acgt" in a period-4 text has the same left
        # context, so each LF level is one children() call for the group,
        # not one occ probe per row.
        text = "acgt" * 40
        fm = FMIndex(text, DNA, sa_sample_rate=8)
        rng = fm.backward_search("acgt")
        assert len(rng) == 40
        calls = {"children": 0, "occ": 0}
        rank = fm._rank
        children, occ = rank.children, rank.occ

        class Counting:
            def __getattr__(self, name):
                return getattr(rank, name)

            def children(self, *args):
                calls["children"] += 1
                return children(*args)

            def occ(self, *args):
                calls["occ"] += 1
                return occ(*args)

        fm._rank = Counting()
        positions, steps = fm.locate_rows(*rng)
        assert sorted(positions) == list(range(0, 160, 4))
        assert steps == sum(p % 8 for p in positions) == 80
        assert calls == {"children": 4, "occ": 0}

    def test_walk_without_a_sampled_row_raises(self):
        for width in (1, 3):
            fm = FMIndex("acagacaacagt", DNA, sa_sample_rate=4)
            fm._sampled_sa = {}
            with pytest.raises(IndexCorruptionError):
                fm.locate_rows(2, 2 + width)
            with pytest.raises(IndexCorruptionError):
                fm.suffix_position(2)


class TestFMIndexSerialization:
    def test_roundtrip(self):
        fm = FMIndex("acagacagtt", DNA)
        clone = FMIndex.loads(fm.dumps())
        assert clone.bwt == fm.bwt
        assert clone.count("aca") == fm.count("aca")
        assert sorted(clone.locate("aca")) == sorted(fm.locate("aca"))

    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            FMIndex.from_dict({"magic": "nope"})

    def test_bad_version(self):
        fm = FMIndex("acgt", DNA)
        payload = fm.to_dict()
        payload["version"] = 99
        with pytest.raises(SerializationError):
            FMIndex.from_dict(payload)

    def test_corrupt_bwt(self):
        fm = FMIndex("acgt", DNA)
        payload = fm.to_dict()
        payload["bwt"] = "aaaa"
        with pytest.raises(SerializationError):
            FMIndex.from_dict(payload)

    def test_invalid_json(self):
        with pytest.raises(SerializationError):
            FMIndex.loads("{not json")
