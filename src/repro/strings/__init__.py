"""Classical string-matching substrate.

These are the exact-matching building blocks the paper's related-work
section is built on (Sec. II): Knuth–Morris–Pratt (the reference the
bit-parallel baseline is tested against), the Aho–Corasick automaton
(used by the Amir baseline's marking stage), the Z-function (used to
derive the pattern's self-mismatch structure) and Hamming-distance
primitives shared by every k-mismatch matcher.
"""

from .zfunc import z_array, prefix_mismatch_positions
from .kmp import kmp_failure, kmp_search
from .aho_corasick import AhoCorasick
from .hamming import (
    hamming_distance,
    hamming_within,
    mismatch_positions,
    count_mismatches_capped,
)

__all__ = [
    "z_array",
    "prefix_mismatch_positions",
    "kmp_failure",
    "kmp_search",
    "AhoCorasick",
    "hamming_distance",
    "hamming_within",
    "mismatch_positions",
    "count_mismatches_capped",
]
