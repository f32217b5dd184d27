"""Ordered alphabets and the canonical order on words.

The paper (Section 2) fixes a finite, *ordered* alphabet ``Sigma`` and
extends its order to the standard lexicographical order on words, then to the
*canonical* (well-founded) order::

    w <= u   iff   |w| < |u|, or |w| = |u| and w <=_lex u

Path enumeration, smallest-consistent-path (SCP) selection and the
characteristic-sample construction all rely on this order, so it lives here
as the single source of truth.

A *word* is represented as a tuple of symbols (``tuple[str, ...]``) rather
than a character string, because the paper's application alphabets contain
multi-character symbols such as ``tram`` or ``ProteinPurification``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Tuple

from repro.errors import AlphabetError

#: A word over an alphabet: a (possibly empty) tuple of symbols.
Word = Tuple[str, ...]

#: The empty word (epsilon).
EPSILON: Word = ()


class Alphabet:
    """A finite, ordered set of symbols.

    The iteration order of an :class:`Alphabet` is its symbol order; it is
    the order used by the lexicographic comparison of words.

    Parameters
    ----------
    symbols:
        The symbols of the alphabet, in the desired order.  Duplicates are
        rejected.  If ``sort`` is true the symbols are sorted first, which
        gives the conventional alphabetical order.
    sort:
        Whether to sort the symbols (default ``True``).
    """

    __slots__ = ("_symbols", "_index")

    def __init__(self, symbols: Iterable[str], *, sort: bool = True) -> None:
        ordered = list(symbols)
        invalid = [s for s in ordered if not isinstance(s, str) or not s]
        if invalid:
            raise AlphabetError(f"invalid symbol: {invalid[0]!r}")
        if sort:
            ordered = sorted(ordered)
        seen: set[str] = set()
        unique: list[str] = []
        for symbol in ordered:
            if symbol in seen:
                raise AlphabetError(f"duplicate symbol: {symbol!r}")
            seen.add(symbol)
            unique.append(symbol)
        self._symbols: tuple[str, ...] = tuple(unique)
        self._index: dict[str, int] = {s: i for i, s in enumerate(self._symbols)}

    # -- container protocol -------------------------------------------------

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._symbols)

    def __len__(self) -> int:
        return len(self._symbols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(self._symbols)

    def __repr__(self) -> str:
        return f"Alphabet({list(self._symbols)!r})"

    # -- accessors -----------------------------------------------------------

    @property
    def symbols(self) -> tuple[str, ...]:
        """The symbols in alphabet order."""
        return self._symbols

    def index(self, symbol: str) -> int:
        """Return the position of ``symbol`` in the alphabet order."""
        try:
            return self._index[symbol]
        except KeyError:
            raise AlphabetError(f"symbol {symbol!r} is not in the alphabet") from None

    def check_word(self, word: Sequence[str]) -> Word:
        """Validate that every symbol of ``word`` belongs to the alphabet.

        Returns the word as a tuple (the library's word representation).
        """
        result = tuple(word)
        for symbol in result:
            if symbol not in self._index:
                raise AlphabetError(f"symbol {symbol!r} is not in the alphabet")
        return result

    # -- orders on words -----------------------------------------------------

    def word_key(self, word: Sequence[str]) -> tuple[int, tuple[int, ...]]:
        """Sort key realizing the canonical order on words.

        Words sort first by length, then lexicographically by symbol order.
        """
        return (len(word), tuple(self._index[s] for s in word))

    def canonical_less(self, left: Sequence[str], right: Sequence[str]) -> bool:
        """Return True iff ``left`` is strictly before ``right`` canonically."""
        return self.word_key(left) < self.word_key(right)

    def canonical_sorted(self, words: Iterable[Sequence[str]]) -> list[Word]:
        """Return the given words sorted in canonical order (as tuples)."""
        return sorted((tuple(w) for w in words), key=self.word_key)

    def canonical_min(self, words: Iterable[Sequence[str]]) -> Word:
        """Return the canonically smallest of the given words."""
        return min((tuple(w) for w in words), key=self.word_key)

    # -- word generation -----------------------------------------------------

    def words_up_to(self, max_length: int) -> Iterator[Word]:
        """Yield every word of length at most ``max_length``, canonically ordered.

        The number of words is ``(|Sigma|^(k+1) - 1) / (|Sigma| - 1)``; callers
        are expected to keep ``max_length`` small (the paper's ``k`` is 2..4).
        """
        if max_length < 0:
            raise AlphabetError("max_length must be non-negative")
        frontier: list[Word] = [EPSILON]
        yield EPSILON
        for _ in range(max_length):
            next_frontier: list[Word] = []
            for word in frontier:
                for symbol in self._symbols:
                    extended = word + (symbol,)
                    next_frontier.append(extended)
                    yield extended
            frontier = next_frontier

    def restrict(self, symbols: Iterable[str]) -> "Alphabet":
        """Return a sub-alphabet containing only the given symbols, same order."""
        keep = set(symbols)
        missing = keep - set(self._symbols)
        if missing:
            raise AlphabetError(f"symbols not in alphabet: {sorted(missing)!r}")
        return Alphabet([s for s in self._symbols if s in keep], sort=False)

    def union(self, other: "Alphabet") -> "Alphabet":
        """Return the alphabet containing the symbols of both, sorted."""
        return Alphabet(set(self._symbols) | set(other.symbols))


def word_to_str(word: Sequence[str]) -> str:
    """Render a word for display, e.g. ``('a','b','c')`` -> ``'a.b.c'``.

    The empty word renders as the conventional epsilon symbol.
    """
    if not word:
        return "ε"
    return ".".join(word)


def canonical_key(alphabet: Alphabet, word: Sequence[str]) -> tuple[int, tuple[int, ...]]:
    """Module-level convenience wrapper of :meth:`Alphabet.word_key`."""
    return alphabet.word_key(word)


def canonical_less(alphabet: Alphabet, left: Sequence[str], right: Sequence[str]) -> bool:
    """Module-level convenience wrapper of :meth:`Alphabet.canonical_less`."""
    return alphabet.canonical_less(left, right)
