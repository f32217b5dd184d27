"""The Thompson construction (oracle for the Glushkov ``compile_table``).

The regex layer once compiled every expression through an epsilon-NFA
object; the kernel now builds the position automaton straight into a table.
This is the original construction, kept so the two routes can be checked
byte-identical after canonicalisation, beside the random expressions the
property suites feed them.
"""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from repro.automata.alphabet import Alphabet
from repro.automata.kernel import TableDFA
from repro.automata.minimize import canonical_table
from repro.automata.nfa import NFA
from repro.errors import RegexSyntaxError
from repro.regex.ast import (
    Concat,
    EmptySet,
    Epsilon,
    Regex,
    Star,
    Symbol,
    Union,
    concat,
    disjunction,
)


def regexes(symbols=("a", "b", "c")) -> st.SearchStrategy[Regex]:
    """Random small regular expressions over ``symbols``, assembled with the
    parser's smart constructors (so never the empty set)."""
    leaves = st.one_of(st.sampled_from(symbols).map(Symbol), st.just(Epsilon()))

    def extend(children: st.SearchStrategy[Regex]) -> st.SearchStrategy[Regex]:
        return st.one_of(
            st.tuples(children, children).map(lambda pair: concat(*pair)),
            st.tuples(children, children).map(lambda pair: disjunction(*pair)),
            children.map(lambda inner: inner if isinstance(inner, Epsilon) else Star(inner)),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def regex_to_nfa(regex: Regex, alphabet: Alphabet | None = None) -> NFA:
    """Compile a regex AST into an epsilon-NFA via the Thompson construction.

    If ``alphabet`` is omitted, the alphabet is the set of symbols occurring
    in the expression (``_unused_`` when there are none).
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


def thompson_table(regex: Regex, alphabet: Alphabet | None = None) -> TableDFA:
    """The canonical table of ``regex`` by way of its Thompson NFA."""
    return canonical_table(regex_to_nfa(regex, alphabet))
