"""Alphabet handling.

The paper targets DNA, where the alphabet is ``{a, c, g, t}`` plus the
sentinel ``$`` that terminates every indexed string and sorts before all
other characters (``$ < a < c < g < t``, paper Sec. III-A).  The library is
nevertheless generic: any :class:`Alphabet` over single-character symbols
works with every index and matcher in the package.

An :class:`Alphabet` provides a dense integer code for each symbol (0 is
always the sentinel) which the byte BWT and the rank structure rely on.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from .errors import AlphabetError

#: Sentinel character appended to every indexed text.  It must not occur in
#: user data and sorts before every alphabet symbol.
SENTINEL = "$"


class Alphabet:
    """An ordered, immutable alphabet with dense integer codes.

    Parameters
    ----------
    symbols:
        The alphabet's characters *excluding* the sentinel, in sort order.
        Each must be a single character and distinct.

    Examples
    --------
    >>> dna = Alphabet("acgt")
    >>> dna.code("c")
    2
    >>> dna.symbol(2)
    'c'
    >>> dna.size
    5
    """

    __slots__ = ("_symbols", "_codes", "_with_sentinel")

    def __init__(self, symbols: Iterable[str]):
        ordered = tuple(symbols)
        if not ordered:
            raise AlphabetError("alphabet must contain at least one symbol")
        seen = set()
        for ch in ordered:
            if len(ch) != 1:
                raise AlphabetError(f"alphabet symbols must be single characters, got {ch!r}")
            if ch == SENTINEL:
                raise AlphabetError("the sentinel '$' is implicit and may not be listed")
            if ch in seen:
                raise AlphabetError(f"duplicate alphabet symbol {ch!r}")
            seen.add(ch)
        if list(ordered) != sorted(ordered):
            raise AlphabetError("alphabet symbols must be given in sorted order")
        self._symbols = ordered
        self._with_sentinel = (SENTINEL,) + ordered
        self._codes = {ch: i for i, ch in enumerate(self._with_sentinel)}

    # -- introspection ----------------------------------------------------

    @property
    def symbols(self) -> Tuple[str, ...]:
        """The alphabet's symbols, sentinel excluded, in sort order."""
        return self._symbols

    @property
    def symbols_with_sentinel(self) -> Tuple[str, ...]:
        """``($,) + symbols`` — code ``i`` maps to ``symbols_with_sentinel[i]``."""
        return self._with_sentinel

    @property
    def size(self) -> int:
        """Number of distinct codes including the sentinel."""
        return len(self._with_sentinel)

    # -- coding -----------------------------------------------------------

    def code(self, ch: str) -> int:
        """Return the integer code of ``ch`` (sentinel has code 0)."""
        try:
            return self._codes[ch]
        except KeyError:
            raise AlphabetError(f"character {ch!r} is not in alphabet {''.join(self._symbols)!r}") from None

    def symbol(self, code: int) -> str:
        """Return the character for integer ``code``."""
        try:
            return self._with_sentinel[code]
        except IndexError:
            raise AlphabetError(f"code {code} out of range for alphabet of size {self.size}") from None

    def encode(self, text: str) -> Sequence[int]:
        """Encode ``text`` into a list of integer codes (no sentinel added)."""
        codes = self._codes
        try:
            return [codes[ch] for ch in text]
        except KeyError as exc:
            raise AlphabetError(f"character {exc.args[0]!r} is not in alphabet") from None

    def decode(self, codes: Iterable[int]) -> str:
        """Decode integer codes back into a string."""
        table = self._with_sentinel
        return "".join(table[c] for c in codes)

    def validate(self, text: str) -> None:
        """Raise :class:`AlphabetError` if ``text`` has out-of-alphabet chars."""
        codes = self._codes
        for i, ch in enumerate(text):
            if ch not in codes or ch == SENTINEL:
                raise AlphabetError(f"character {ch!r} at position {i} is not in alphabet")

    def contains(self, text: str) -> bool:
        """True when every character of ``text`` is a non-sentinel symbol."""
        allowed = set(self._symbols)
        return all(ch in allowed for ch in text)

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and other._symbols == self._symbols

    def __hash__(self) -> int:
        return hash(self._symbols)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Alphabet({''.join(self._symbols)!r})"


#: The DNA alphabet used throughout the paper: ``$ < a < c < g < t``.
DNA = Alphabet("acgt")

#: Protein alphabet (20 amino acids), for generality tests.
PROTEIN = Alphabet("ACDEFGHIKLMNPQRSTVWY")


def infer_alphabet(text: str) -> Alphabet:
    """Build the smallest :class:`Alphabet` covering ``text``.

    Useful for ad-hoc experiments on non-DNA data.

    >>> infer_alphabet("mississippi").symbols
    ('i', 'm', 'p', 's')
    """
    distinct = sorted(set(text))
    if SENTINEL in distinct:
        raise AlphabetError("text may not contain the sentinel '$'")
    return Alphabet(distinct)
