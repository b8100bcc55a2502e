"""SA-IS: linear-time suffix-array construction by induced sorting.

The paper builds its BWT from a suffix array and cites Hon et al. [25] for
a space-economical construction of the human-genome BWT.  At reproduction
scale the relevant property is *linear time*; SA-IS (Nong, Zhang & Chan,
2009) provides it with a compact, dependency-free implementation.

The function operates on integer sequences: the code bytes of a text at
the top level (:func:`repro.suffix.suffix_array` encodes it and appends
the sentinel, code 0), and int lists of LMS-substring names when it
recurses, since a reduced string may hold more than 256 names.  Every
pass iterates a buffer directly; suffix types live in a ``bytearray``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Sequence


def _classify(text: Sequence[int]):
    """``(types, lms)``: ``types[i]`` is 1 when suffix ``i`` is S-type
    (``text[i:] < text[i+1:]``; the final sentinel is S) and 0 when it is
    L-type, and ``lms`` lists the left-most S-type positions, descending.
    """
    n = len(text)
    types = bytearray(n)
    types[-1] = 1
    lms = []
    s_type = 1
    right = text[-1]
    for i in range(n - 2, -1, -1):
        c = text[i]
        if c < right:
            s_type = 1
        elif c > right:
            if s_type:
                lms.append(i + 1)
            s_type = 0
        if s_type:
            types[i] = 1
        right = c
    return types, lms


def _induce(sa: List[int], text: Sequence[int], types: bytearray, ends: List[int]) -> None:
    """Induce every L-type suffix from the bucket heads, left to right,
    then every S-type suffix from the bucket tails, right to left.

    ``ends[c]`` is one past the last slot of code ``c``'s bucket.  Both
    passes iterate ``sa`` itself: a list iterator reads each slot when it
    reaches it, so it sees the suffixes the pass itself placed.
    """
    heads = [0]
    heads.extend(ends[:-1])
    for p in sa:
        if p > 0:
            j = p - 1
            if not types[j]:
                c = text[j]
                sa[heads[c]] = j
                heads[c] += 1
    tails = list(ends)
    for p in reversed(sa):
        if p > 0:
            j = p - 1
            if types[j]:
                c = text[j]
                tails[c] -= 1
                sa[tails[c]] = j


def _place_lms(n: int, text: Sequence[int], ends: List[int], lms: Sequence[int]) -> List[int]:
    """A suffix array holding only the LMS positions ``lms``, each at the
    tail of its bucket; within a bucket they keep the order of ``lms``."""
    sa = [-1] * n
    tails = list(ends)
    for p in reversed(lms):
        c = text[p]
        tails[c] -= 1
        sa[tails[c]] = p
    return sa


def sais(text: Sequence[int], n_codes: int) -> List[int]:
    """Suffix array of integer sequence ``text`` via induced sorting.

    ``text`` (``bytes`` or a list of ints) must end with a unique smallest
    symbol (value 0 occurring exactly once, at the end).  ``n_codes`` is
    the number of distinct codes (max value + 1).  Runs in O(n) time.

    >>> sais([1, 2, 1, 3, 1, 2, 1, 0], 4)   # 'acagaca$' with a=1,c=2,g=3
    [7, 6, 4, 0, 2, 5, 1, 3]
    >>> sais(b"\\x01\\x02\\x01\\x03\\x01\\x02\\x01\\x00", 4)
    [7, 6, 4, 0, 2, 5, 1, 3]
    """
    n = len(text)
    if n <= 1:
        return list(range(n))

    types, lms = _classify(text)
    lms.reverse()
    if isinstance(text, (bytes, bytearray)):
        sizes = [text.count(c) for c in range(n_codes)]
    else:
        sizes = [0] * n_codes
        for c in text:
            sizes[c] += 1
    ends = list(accumulate(sizes))

    # Step 1: place LMS suffixes at their bucket tails (approximate order),
    # then induce L and S to sort all LMS *substrings*.
    sa = _place_lms(n, text, ends, lms)
    _induce(sa, text, types, ends)
    ordered = [p for p in sa if p and types[p] and not types[p - 1]]

    # Step 2: name LMS substrings in that order.  ``sa`` is free again: it
    # first holds each LMS substring's length (through the next LMS
    # position, inclusive), then its name.  Substrings of equal length and
    # characters also agree in suffix types, so length plus a slice
    # compare decides equality.
    for p, q in zip(lms, lms[1:]):
        sa[p] = q - p + 1
    sa[n - 1] = 1
    name = -1
    prev = prev_len = 0
    for p in ordered:
        length = sa[p]
        if length != prev_len or text[p:p + length] != text[prev:prev + length]:
            name += 1
            prev, prev_len = p, length
        sa[p] = name

    # Step 3: order the LMS suffixes.  Distinct names already give their
    # order; colliding names recurse on the reduced string.  Where the
    # lists are freed is chosen by measurement: this order leaves the
    # least of the build's temporaries resident in the C heap afterwards.
    if name + 1 < len(lms):
        reduced = [sa[p] for p in lms]
        ordered = [lms[i] for i in sais(reduced, name + 1)]
        del reduced
    else:
        del sa

    # Step 4: place LMS suffixes in their true order, induce again.
    sa = _place_lms(n, text, ends, ordered)
    _induce(sa, text, types, ends)
    return sa
