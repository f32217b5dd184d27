"""Compiling regular expressions into automata (Thompson construction)."""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from repro.automata.alphabet import Alphabet
from repro.automata.dfa import DFA
from repro.automata.kernel import TableDFA
from repro.automata.minimize import canonical_dfa, canonical_table
from repro.automata.nfa import NFA
from repro.errors import RegexSyntaxError
from repro.regex.ast import Concat, EmptySet, Epsilon, Regex, Star, Symbol, Union
from repro.regex.parser import parse, too_deep


def regex_to_nfa(regex: Regex, alphabet: Alphabet | None = None) -> NFA:
    """Compile a regex AST into an epsilon-NFA via the Thompson construction.

    If ``alphabet`` is omitted, the alphabet is the set of symbols occurring
    in the expression (which must then be non-empty or the expression must be
    epsilon-only).
    """
    if alphabet is None:
        symbols = regex.alphabet_symbols()
        alphabet = Alphabet(symbols if symbols else ["_unused_"])
    nfa = NFA(alphabet)
    counter = itertools.count()

    def fresh() -> int:
        return next(counter)

    def build(node: Regex) -> tuple[int, int]:
        """Return (entry, exit) states of the fragment for ``node``."""
        if isinstance(node, Epsilon):
            entry, exit_ = fresh(), fresh()
            nfa.add_epsilon_transition(entry, exit_)
            return entry, exit_
        if isinstance(node, EmptySet):
            entry, exit_ = fresh(), fresh()
            nfa.add_state(entry)
            nfa.add_state(exit_)
            return entry, exit_
        if isinstance(node, Symbol):
            entry, exit_ = fresh(), fresh()
            nfa.add_transition(entry, node.name, exit_)
            return entry, exit_
        if isinstance(node, Concat):
            left_entry, left_exit = build(node.left)
            right_entry, right_exit = build(node.right)
            nfa.add_epsilon_transition(left_exit, right_entry)
            return left_entry, right_exit
        if isinstance(node, Union):
            entry, exit_ = fresh(), fresh()
            left_entry, left_exit = build(node.left)
            right_entry, right_exit = build(node.right)
            nfa.add_epsilon_transition(entry, left_entry)
            nfa.add_epsilon_transition(entry, right_entry)
            nfa.add_epsilon_transition(left_exit, exit_)
            nfa.add_epsilon_transition(right_exit, exit_)
            return entry, exit_
        if isinstance(node, Star):
            entry, exit_ = fresh(), fresh()
            inner_entry, inner_exit = build(node.inner)
            nfa.add_epsilon_transition(entry, inner_entry)
            nfa.add_epsilon_transition(inner_exit, exit_)
            nfa.add_epsilon_transition(entry, exit_)
            nfa.add_epsilon_transition(inner_exit, inner_entry)
            return entry, exit_
        raise RegexSyntaxError(f"unknown regex node: {node!r}")

    entry, exit_ = build(regex)
    nfa.add_initial(entry)
    nfa.add_final(exit_)
    return nfa


def regex_to_dfa(regex: Regex, alphabet: Alphabet | None = None) -> DFA:
    """Compile a regex AST into the canonical DFA of its language."""
    return canonical_dfa(regex_to_nfa(regex, alphabet))


def compile_table(
    expression: str | Regex, alphabet: Alphabet | Iterable[str] | None = None
) -> TableDFA:
    """Compile a regular expression (string or AST) into its canonical table.

    The kernel-form result of :func:`compile_query`; it accepts an explicit
    alphabet so that a query can be evaluated on graphs whose alphabet is
    larger than the set of symbols mentioned in the expression.
    """
    regex = parse(expression) if isinstance(expression, str) else expression
    if alphabet is not None and not isinstance(alphabet, Alphabet):
        alphabet = Alphabet(alphabet)
    try:
        if alphabet is not None:
            mentioned = regex.alphabet_symbols()
            missing = mentioned - set(alphabet.symbols)
            if missing:
                raise RegexSyntaxError(
                    f"expression uses symbols outside the alphabet: {sorted(missing)!r}"
                )
        return canonical_table(regex_to_nfa(regex, alphabet))
    except RecursionError:
        # The AST passes recurse per operand: a chain of a thousand is as
        # deep as a thousand parentheses, and as much a user error.
        raise too_deep() from None


def compile_query(expression: str | Regex, alphabet: Alphabet | Iterable[str] | None = None) -> DFA:
    """Compile a regular expression (string or AST) into its canonical DFA.

    This is the low-level, uncached counterpart of
    :meth:`repro.queries.PathQuery.parse`.
    """
    return compile_table(expression, alphabet).to_dfa()
