"""Suffix-array construction front end.

Three constructions with one contract:

* :func:`suffix_array_naive` — O(n² log n) comparison sort; the oracle the
  others are tested against.
* :func:`suffix_array_doubling` — O(n log² n) prefix doubling; a useful
  mid-scale fallback and a second independent implementation for
  cross-checking.
* :func:`suffix_array` — the production path: encodes the text to code
  bytes (appending the sentinel) and runs linear-time SA-IS
  (:mod:`repro.suffix.sais`) over them; a caller that already holds the
  code bytes passes them instead.

All return the suffix array ``H`` of ``text + '$'`` as 0-based start
positions: ``H[i]`` is the start of the i-th smallest suffix.  ``H[0]`` is
always ``len(text)`` (the sentinel suffix).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..alphabet import Alphabet, infer_alphabet
from ..errors import AlphabetError
from .sais import sais


def suffix_array_naive(text: str) -> List[int]:
    """Suffix array of ``text + '$'`` by direct sorting (testing oracle).

    >>> suffix_array_naive("acagaca")
    [7, 6, 4, 0, 2, 5, 1, 3]
    """
    s = text + "\x00"  # NUL sorts before any printable character
    n = len(s)
    return sorted(range(n), key=lambda i: s[i:])


def suffix_array_doubling(text: str) -> List[int]:
    """Suffix array of ``text + '$'`` by prefix doubling (O(n log² n)).

    >>> suffix_array_doubling("acagaca")
    [7, 6, 4, 0, 2, 5, 1, 3]
    """
    s = text + "\x00"
    n = len(s)
    sa = list(range(n))
    rank = [ord(c) for c in s]
    tmp = [0] * n
    width = 1
    while True:
        def key(i: int):
            tail = rank[i + width] if i + width < n else -1
            return (rank[i], tail)

        sa.sort(key=key)
        tmp[sa[0]] = 0
        for j in range(1, n):
            tmp[sa[j]] = tmp[sa[j - 1]] + (1 if key(sa[j]) != key(sa[j - 1]) else 0)
        rank = tmp[:]
        if rank[sa[-1]] == n - 1:
            break
        width *= 2
    return sa


def suffix_array(text: Union[str, bytes], alphabet: Optional[Alphabet] = None) -> List[int]:
    """Suffix array of ``text + '$'`` via SA-IS (linear time).

    ``text`` is a string, encoded over ``alphabet`` (default: the smallest
    alphabet covering it), or already its code bytes, each at least 1
    (``Alphabet.encode_bytes`` output); ``alphabet`` is then unused.

    >>> suffix_array("acagaca")
    [7, 6, 4, 0, 2, 5, 1, 3]
    >>> suffix_array(b"\\x01\\x02\\x01\\x03\\x01\\x02\\x01")
    [7, 6, 4, 0, 2, 5, 1, 3]
    """
    if isinstance(text, str):
        if alphabet is None:
            alphabet = infer_alphabet(text) if text else Alphabet("a")
        if alphabet.size > 256:  # codes past one byte: an int list
            alphabet.validate(text)
            return sais(list(alphabet.encode(text)) + [0], alphabet.size)
        text = alphabet.encode_bytes(text)
    elif 0 in text:
        raise AlphabetError("text may not contain the sentinel")
    return sais(text + b"\x00", max(text, default=0) + 1)


def rank_array(sa: Sequence[int]) -> List[int]:
    """Inverse permutation of a suffix array.

    ``rank[p]`` is the lexicographic rank of the suffix starting at ``p``.
    """
    rank = [0] * len(sa)
    for r, p in enumerate(sa):
        rank[p] = r
    return rank
