"""Tests for repro.alphabet."""

import pytest

from repro.alphabet import DNA, PROTEIN, SENTINEL, Alphabet, infer_alphabet
from repro.errors import AlphabetError


class TestConstruction:
    def test_dna_order(self):
        assert DNA.symbols == ("a", "c", "g", "t")

    def test_sentinel_is_code_zero(self):
        assert DNA.code(SENTINEL) == 0
        assert DNA.symbol(0) == SENTINEL

    def test_size_includes_sentinel(self):
        assert DNA.size == 5
        assert PROTEIN.size == 21

    def test_rejects_empty(self):
        with pytest.raises(AlphabetError):
            Alphabet("")

    def test_rejects_duplicates(self):
        with pytest.raises(AlphabetError):
            Alphabet("aab")

    def test_rejects_unsorted(self):
        with pytest.raises(AlphabetError):
            Alphabet("ca")

    def test_rejects_multichar_symbols(self):
        with pytest.raises(AlphabetError):
            Alphabet(["ab"])

    def test_rejects_explicit_sentinel(self):
        with pytest.raises(AlphabetError):
            Alphabet("$a")


class TestCoding:
    def test_codes_are_dense_and_sorted(self):
        assert [DNA.code(c) for c in "acgt"] == [1, 2, 3, 4]

    def test_roundtrip(self):
        text = "acagaca"
        assert DNA.decode(DNA.encode(text)) == text

    def test_encode_rejects_foreign(self):
        with pytest.raises(AlphabetError):
            DNA.encode("acgn")

    def test_symbol_out_of_range(self):
        with pytest.raises(AlphabetError):
            DNA.symbol(99)

    def test_code_unknown_char(self):
        with pytest.raises(AlphabetError):
            DNA.code("x")

    def test_validate_accepts_good(self):
        DNA.validate("acgtacgt")  # no exception

    def test_validate_rejects_sentinel(self):
        with pytest.raises(AlphabetError):
            DNA.validate("ac$a")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("ac$a", "character '$' at position 2 is not in alphabet"),
            ("acgn", "character 'n' at position 3 is not in alphabet"),
            ("acgtA", "character 'A' at position 4 is not in alphabet"),
            ("nnA$", "character 'n' at position 0 is not in alphabet"),
        ],
    )
    def test_validate_names_the_first_offender(self, text, message):
        for check in (DNA.validate, DNA.encode_bytes):
            with pytest.raises(AlphabetError) as info:
                check(text)
            assert str(info.value) == message

    def test_encode_bytes_matches_encode(self):
        text = "acagacaacagacagtacagaca"
        assert DNA.encode_bytes(text) == bytes(DNA.encode(text))
        assert PROTEIN.encode_bytes("WAY") == bytes(PROTEIN.encode("WAY"))
        assert DNA.encode_bytes("") == b""

    def test_encode_bytes_needs_one_byte_codes(self):
        wide = Alphabet(chr(c) for c in range(0x100, 0x200))
        with pytest.raises(AlphabetError):
            wide.encode_bytes(chr(0x100))

    def test_contains(self):
        assert DNA.contains("acgt")
        assert not DNA.contains("acgn")
        assert not DNA.contains("ac$")
        assert DNA.contains("")


class TestInference:
    def test_infer_minimal(self):
        alpha = infer_alphabet("mississippi")
        assert alpha.symbols == ("i", "m", "p", "s")

    def test_infer_rejects_sentinel(self):
        with pytest.raises(AlphabetError):
            infer_alphabet("ab$")

    def test_equality_and_hash(self):
        assert infer_alphabet("acgt") == DNA
        assert hash(infer_alphabet("acgt")) == hash(DNA)
        assert infer_alphabet("ac") != DNA
