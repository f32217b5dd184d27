"""Unit tests for determinization, minimization and the canonical DFA."""

import pytest

from repro.automata import Alphabet, canonical_dfa, minimize
from repro.automata.dfa import DFA
from repro.automata.kernel import TableDFA
from repro.automata.minimize import query_size
from repro.automata.nfa import NFA
from repro.regex import compile_query


@pytest.fixture
def abc():
    return Alphabet(["a", "b", "c"])


def determinize(nfa: NFA) -> TableDFA:
    """The kernel's subset construction (the subsets themselves unused)."""
    table, _subsets = TableDFA.from_nfa(nfa)
    return table


class TestDeterminize:
    def test_determinized_language_matches(self, abc):
        nfa = NFA(abc, initial=[0], finals=[2])
        nfa.add_transition(0, "a", 0)
        nfa.add_transition(0, "a", 1)
        nfa.add_transition(1, "b", 2)
        dfa = determinize(nfa)
        for word in [("a", "b"), ("a", "a", "b"), ("b",), ("a",), ()]:
            assert dfa.accepts(word) == nfa.accepts(word)

    def test_determinize_handles_epsilon_transitions(self, abc):
        nfa = NFA(abc, initial=[0], finals=[2])
        nfa.add_epsilon_transition(0, 1)
        nfa.add_transition(1, "a", 2)
        dfa = determinize(nfa)
        assert dfa.accepts(("a",))
        assert not dfa.accepts(())

    def test_determinize_empty_language(self, abc):
        nfa = NFA(abc, initial=[0])
        assert determinize(nfa).is_empty_language()


class TestMinimize:
    def test_minimize_collapses_equivalent_states(self, abc):
        # Two redundant accepting states reached by a and by b.
        dfa = DFA(abc, initial=0, finals=[1, 2])
        dfa.add_transition(0, "a", 1)
        dfa.add_transition(0, "b", 2)
        minimal = minimize(dfa)
        # States: initial, accepting (merged), sink.
        assert len(minimal) <= 3

    def test_minimize_preserves_language(self, abc):
        dfa = compile_query("(a.b)*.c+c", abc)
        minimal = minimize(dfa)
        for word in [("c",), ("a", "b", "c"), ("a", "b"), (), ("c", "c")]:
            assert minimal.accepts(word) == dfa.accepts(word)


class TestCanonicalDFA:
    def test_figure4_size_is_three(self, abc):
        # The paper: the size of (a.b)*.c is 3 (Figure 4).
        assert query_size(compile_query("(a.b)*.c", abc)) == 3

    def test_canonical_dfa_is_trimmed(self, abc):
        dfa = compile_query("a.b", abc)
        canonical = canonical_dfa(dfa)
        assert len(canonical) == 3  # no sink state in the canonical form

    def test_equal_languages_give_structurally_equal_canonical_dfas(self, abc):
        left = canonical_dfa(compile_query("(a.b)*.c", abc))
        right = canonical_dfa(compile_query("c+a.b.(a.b)*.c", abc))
        assert left.structurally_equal(right)

    def test_canonical_dfa_accepts_same_language(self, abc):
        original = compile_query("(a+b).c*", abc)
        canonical = canonical_dfa(original)
        for word in [("a",), ("b", "c", "c"), ("c",), (), ("a", "c")]:
            assert canonical.accepts(word) == original.accepts(word)

    def test_canonical_dfa_accepts_nfa_input(self, abc):
        nfa = NFA.from_words(abc, [("a",), ("a", "b")])
        canonical = canonical_dfa(nfa)
        assert canonical.accepts(("a",))
        assert canonical.accepts(("a", "b"))
        assert not canonical.accepts(("b",))
