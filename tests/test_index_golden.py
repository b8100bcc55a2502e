"""Golden bytes of the FM-index build.

The construction layer (alphabet check, encoding, SA-IS, BWT, rank
directory, SA sample) may be rewritten for speed, but it must emit the
same index.  Each case pins the SHA-256 of ``FMIndex.to_binary()`` (format
v4: META, BWTC, RANK, SUPR, SARO, SAPO) for a fixed seeded text; the
digests were computed with the per-character construction that preceded
the byte-level one.
"""

import hashlib
import random

import pytest

import repro.suffix
from repro import KMismatchIndex
from repro.alphabet import PROTEIN
from repro.bwt import FMIndex
from repro.simulate.catalog import GENOME_CATALOG, build_catalog_genome


def _near_tandem(seed: int) -> str:
    """60 copies of a 47 bp unit, each base diverged with probability 1%."""
    rng = random.Random(seed)
    unit = [rng.choice("acgt") for _ in range(47)]
    return "".join(
        "".join(rng.choice("acgt") if rng.random() < 0.01 else ch for ch in unit)
        for _ in range(60)
    )


def _texts():
    rng = random.Random(20171)
    dna = "".join(rng.choice("acgt") for _ in range(5000))
    protein = "".join(rng.choice(PROTEIN.symbols) for _ in range(3000))
    return {
        "dna": dna,
        "near-tandem": _near_tandem(7),
        "ab-x100": "ab" * 100,  # the rename-recursion path of SA-IS
        "single-symbol": "g" * 700,
        "one-char": "t",
        "protein": protein,
        "rat-20k": build_catalog_genome(GENOME_CATALOG[0], max_length=20_000),
    }


# (case, text, alphabet, occ_sample_rate, sa_sample_rate, sha256)
GOLDEN = [
    ("dna-5k", "dna", None, 4, 8,
     "9002046f9e06452e5174d2bbe4a836fc0ee7c89cc63eeef890ae8b7380194151"),
    ("dna-5k-occ1-sa1", "dna", None, 1, 1,
     "48ff9e3f872d82e70f49cb76e1fd322fb622ce639ecc67540523c64e1d9e78f0"),
    ("dna-5k-occ3-sa5", "dna", None, 3, 5,
     "099b4963d2c4d52e172f12925d393d050218f4efc59d61bea4845547a61bb646"),
    ("dna-5k-occ300-sa32", "dna", None, 300, 32,
     "0a41c2323e838646bfd0233d13640512fb617573dde43cb0640cb64efd885545"),
    ("near-tandem", "near-tandem", None, 4, 8,
     "39176f8a92c9bb18e621ed5a624407acf14e92ceef8becbfb888eed9e13806de"),
    ("ab-x100", "ab-x100", None, 4, 8,
     "8cef47f08433c626773319d2c5e59d4f41a0f79a8f00ffe91626ffb6a7d270cd"),
    ("single-symbol", "single-symbol", None, 4, 8,
     "b4a6ed1766bc5f82e058f60fd2969f86ae3b8bed38cffeeb8ec2fd45cdedeea1"),
    ("one-char", "one-char", None, 4, 8,
     "0b73b98372376c0846098cefa89d2dfc7e48a6b25fc86f79fb0942a072bf465b"),
    ("protein-3k", "protein", PROTEIN, 4, 8,
     "b600c9737c5846698ae3d0b967a1c2b30f123617eba49404de5b7d6cfd5ab732"),
    ("rat-20k", "rat-20k", None, 4, 8,
     "ab9f15dfc96dd567ef845f79807510cff076b037f37f4d69b4a26c3183f17bd5"),
]


@pytest.fixture(scope="module")
def texts():
    return _texts()


@pytest.mark.parametrize(
    "text_key, alphabet, occ_rate, sa_rate, expected",
    [case[1:] for case in GOLDEN],
    ids=[case[0] for case in GOLDEN],
)
def test_index_bytes_are_pinned(texts, text_key, alphabet, occ_rate, sa_rate, expected):
    fm = FMIndex(texts[text_key], alphabet, occ_sample_rate=occ_rate, sa_sample_rate=sa_rate)
    assert hashlib.sha256(fm.to_binary()).hexdigest() == expected


def test_build_calls_suffix_array_through_the_package_once(monkeypatch):
    # Benchmarks time the suffix-array layer by wrapping the package
    # attribute; a build that bound the function elsewhere would escape it.
    calls = []
    original = repro.suffix.suffix_array

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(repro.suffix, "suffix_array", counting)
    KMismatchIndex("acagacaacagacagtacagaca")
    assert len(calls) == 1
    FMIndex("acagaca")
    assert len(calls) == 2
