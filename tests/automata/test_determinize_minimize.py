"""Unit tests for determinization, minimization and the canonical DFA."""

import pytest
from oracles.automata import DFA, NFA, table_of

from repro.automata import Alphabet
from repro.queries import PathQuery
from repro.regex.build import compile_table


@pytest.fixture
def abc():
    return Alphabet(["a", "b", "c"])


class TestDeterminize:
    def test_determinized_language_matches(self, abc):
        nfa = NFA(abc, initial=[0], finals=[2])
        nfa.add_transition(0, "a", 0)
        nfa.add_transition(0, "a", 1)
        nfa.add_transition(1, "b", 2)
        dfa = table_of(nfa)
        for word in [("a", "b"), ("a", "a", "b"), ("b",), ("a",), ()]:
            assert dfa.accepts(word) == nfa.accepts(word)

    def test_determinize_handles_epsilon_transitions(self, abc):
        nfa = NFA(abc, initial=[0], finals=[2])
        nfa.add_epsilon_transition(0, 1)
        nfa.add_transition(1, "a", 2)
        dfa = table_of(nfa)
        assert dfa.accepts(("a",))
        assert not dfa.accepts(())

    def test_determinize_empty_language(self, abc):
        nfa = NFA(abc, initial=[0])
        assert table_of(nfa).is_empty_language()


class TestMinimize:
    def test_minimize_collapses_equivalent_states(self, abc):
        # Two redundant accepting states reached by a and by b.
        dfa = DFA(abc, initial=0, finals=[1, 2])
        dfa.add_transition(0, "a", 1)
        dfa.add_transition(0, "b", 2)
        minimal = table_of(dfa).minimized()
        # States: initial, accepting (merged), sink.
        assert len(minimal) <= 3

    def test_minimize_preserves_language(self, abc):
        table = compile_table("(a.b)*.c+c", abc)
        minimal = table.minimized()
        for word in [("c",), ("a", "b", "c"), ("a", "b"), (), ("c", "c")]:
            assert minimal.accepts(word) == table.accepts(word)


class TestCanonicalDFA:
    def test_figure4_size_is_three(self, abc):
        # The paper: the size of (a.b)*.c is 3 (Figure 4).
        assert PathQuery.parse("(a.b)*.c", abc).size == 3

    def test_canonical_dfa_is_trimmed(self, abc):
        canonical = compile_table("a.b", abc).canonical()
        assert len(canonical) == 3  # no sink state in the canonical form

    def test_equal_languages_give_structurally_equal_canonical_dfas(self, abc):
        left = compile_table("(a.b)*.c", abc).canonical()
        right = compile_table("c+a.b.(a.b)*.c", abc).canonical()
        assert left.fingerprint() == right.fingerprint()

    def test_canonical_dfa_accepts_same_language(self, abc):
        original = table_of(DFA.single_word(abc, ("a", "c")))
        canonical = original.canonical()
        for word in [("a",), ("a", "c"), ("c",), (), ("a", "c", "c")]:
            assert canonical.accepts(word) == original.accepts(word)

    def test_canonical_dfa_accepts_nfa_input(self, abc):
        nfa = NFA.from_words(abc, [("a",), ("a", "b")])
        canonical = table_of(nfa).canonical()
        assert canonical.accepts(("a",))
        assert canonical.accepts(("a", "b"))
        assert not canonical.accepts(("b",))
