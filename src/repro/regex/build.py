"""Compiling regular expressions into canonical tables (Glushkov construction).

Every occurrence of a symbol in the expression is a *position*; a word is
accepted iff it spells a run ``first -> follow -> ... -> last`` over
positions.  The subset construction then runs on position bitmasks straight
into a kernel :class:`~repro.automata.kernel.TableDFA`: a state is the set of
positions the word can end on, its successor on symbol ``c`` is the follow
set of those positions restricted to the occurrences of ``c``.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable

from repro.automata.alphabet import Alphabet
from repro.automata.kernel import NO_STATE, TableDFA
from repro.errors import RegexSyntaxError
from repro.regex.ast import Concat, EmptySet, Epsilon, Regex, Star, Symbol, Union
from repro.regex.parser import parse, too_deep


def _bits(mask: int) -> Iterable[int]:
    """The positions set in ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _glushkov(regex: Regex, alphabet: Alphabet) -> TableDFA:
    """The (not yet minimal) position automaton of ``regex`` as a table."""
    columns: list[int] = []  # the symbol id of each position
    follow: list[int] = []  # follow[p]: the positions that may come after p

    def link(last: int, first: int) -> None:
        for position in _bits(last):
            follow[position] |= first

    def walk(node: Regex) -> tuple[bool, int, int]:
        """``(nullable, first, last)`` of ``node``; numbers its positions."""
        if isinstance(node, Symbol):
            bit = 1 << len(columns)
            columns.append(alphabet.index(node.name))
            follow.append(0)
            return False, bit, bit
        if isinstance(node, Epsilon):
            return True, 0, 0
        if isinstance(node, EmptySet):
            return False, 0, 0
        if isinstance(node, Star):
            _, first, last = walk(node.inner)
            link(last, first)
            return True, first, last
        if isinstance(node, (Concat, Union)):
            left_nullable, left_first, left_last = walk(node.left)
            right_nullable, right_first, right_last = walk(node.right)
            if isinstance(node, Union):
                nullable = left_nullable or right_nullable
                return nullable, left_first | right_first, left_last | right_last
            link(left_last, right_first)
            return (
                left_nullable and right_nullable,
                left_first | (right_first if left_nullable else 0),
                right_last | (left_last if right_nullable else 0),
            )
        raise RegexSyntaxError(f"unknown regex node: {node!r}")

    nullable, first, last = walk(regex)
    m = len(alphabet)
    column_mask = [0] * m
    for position, column in enumerate(columns):
        column_mask[column] |= 1 << position
    # State 0 is the start (no position read yet); every other state is a
    # non-empty position set, so the mask 0 can stand for the start.
    masks, ids = [0], {0: 0}
    finals = 1 if nullable else 0
    trans = array("i")
    for mask in masks:  # grows while it is read: a breadth-first worklist
        reach = first if not mask else 0
        for position in _bits(mask):
            reach |= follow[position]
        row = [NO_STATE] * m
        for column in range(m):
            target = reach & column_mask[column]
            if target:
                state = ids.get(target)
                if state is None:
                    state = ids[target] = len(masks)
                    masks.append(target)
                    if target & last:
                        finals |= 1 << state
                row[column] = state
        trans.extend(row)
    return TableDFA(alphabet, n=len(masks), trans=trans, finals=finals)


def compile_table(
    expression: str | Regex, alphabet: Alphabet | Iterable[str] | None = None
) -> TableDFA:
    """Compile a regular expression (string or AST) into its canonical table.

    The low-level, uncached counterpart of
    :meth:`repro.queries.PathQuery.parse`.  It accepts an explicit
    alphabet so that a query can be evaluated on graphs whose alphabet is
    larger than the set of symbols mentioned in the expression.  Without
    one, the alphabet is the mentioned symbols (``_unused_`` if there are
    none).
    """
    regex = parse(expression) if isinstance(expression, str) else expression
    if alphabet is not None and not isinstance(alphabet, Alphabet):
        alphabet = Alphabet(alphabet)
    try:
        mentioned = regex.alphabet_symbols()
        if alphabet is None:
            alphabet = Alphabet(mentioned if mentioned else ["_unused_"])
        missing = sorted(symbol for symbol in mentioned if symbol not in alphabet)
        if missing:
            raise RegexSyntaxError(f"expression uses symbols outside the alphabet: {missing!r}")
        return _glushkov(regex, alphabet).canonical()
    except RecursionError:
        # The AST passes recurse per operand: a chain of a thousand is as
        # deep as a thousand parentheses, and as much a user error.
        raise too_deep() from None

