"""Unit tests for the object-level NFA the test oracles are written in."""

import pytest
from oracles.automata import NFA

from repro.automata import Alphabet
from repro.errors import AutomatonError


@pytest.fixture
def ab_alphabet():
    return Alphabet(["a", "b"])


def build_ab_star_b(alphabet) -> NFA:
    """An NFA for (a+b)*b used across several tests."""
    nfa = NFA(alphabet, initial=[0], finals=[1])
    nfa.add_transition(0, "a", 0)
    nfa.add_transition(0, "b", 0)
    nfa.add_transition(0, "b", 1)
    return nfa


class TestConstruction:
    def test_add_transition_with_unknown_symbol_raises(self, ab_alphabet):
        nfa = NFA(ab_alphabet)
        with pytest.raises(AutomatonError):
            nfa.add_transition(0, "z", 1)

    def test_states_include_endpoints_and_markers(self, ab_alphabet):
        nfa = NFA(ab_alphabet, initial=[0], finals=[2])
        nfa.add_transition(0, "a", 1)
        assert nfa.states == {0, 1, 2}
        assert nfa.initial_states == {0}
        assert nfa.final_states == {2}

    def test_transition_count(self, ab_alphabet):
        nfa = build_ab_star_b(ab_alphabet)
        assert nfa.transition_count() == 3
        assert len(nfa) == 2


class TestAcceptance:
    def test_accepts_nondeterministic_language(self, ab_alphabet):
        nfa = build_ab_star_b(ab_alphabet)
        assert nfa.accepts(("b",))
        assert nfa.accepts(("a", "a", "b"))
        assert nfa.accepts(("b", "a", "b"))
        assert not nfa.accepts(())
        assert not nfa.accepts(("a",))
        assert not nfa.accepts(("b", "a"))

    def test_run_returns_reachable_state_set(self, ab_alphabet):
        nfa = build_ab_star_b(ab_alphabet)
        assert nfa.run(("b",)) == {0, 1}
        assert nfa.run(("a",)) == {0}

    def test_epsilon_transitions_are_followed(self, ab_alphabet):
        nfa = NFA(ab_alphabet, initial=[0], finals=[2])
        nfa.add_epsilon_transition(0, 1)
        nfa.add_transition(1, "a", 2)
        assert nfa.accepts(("a",))
        assert nfa.has_epsilon_transitions

    def test_epsilon_closure_is_transitive(self, ab_alphabet):
        nfa = NFA(ab_alphabet)
        nfa.add_epsilon_transition(0, 1)
        nfa.add_epsilon_transition(1, 2)
        assert nfa.epsilon_closure([0]) == {0, 1, 2}


class TestStructure:
    def test_reachable_and_coreachable(self, ab_alphabet):
        nfa = NFA(ab_alphabet, initial=[0], finals=[2])
        nfa.add_transition(0, "a", 1)
        nfa.add_transition(1, "b", 2)
        nfa.add_transition(3, "a", 2)  # unreachable source
        nfa.add_transition(1, "a", 4)  # dead-end target
        assert 3 not in nfa.reachable_states()
        assert 4 not in nfa.coreachable_states()
        trimmed = nfa.trim()
        assert trimmed.states == {0, 1, 2}

    def test_is_empty(self, ab_alphabet):
        empty = NFA(ab_alphabet, initial=[0])
        assert empty.is_empty()
        nonempty = build_ab_star_b(ab_alphabet)
        assert not nonempty.is_empty()

    def test_copy_is_independent(self, ab_alphabet):
        nfa = build_ab_star_b(ab_alphabet)
        clone = nfa.copy()
        clone.add_transition(1, "a", 5)
        assert 5 not in nfa.states

    def test_relabeled_preserves_language(self, ab_alphabet):
        nfa = build_ab_star_b(ab_alphabet)
        relabeled = nfa.relabeled()
        for word in [(), ("b",), ("a", "b"), ("a",), ("b", "a", "b")]:
            assert nfa.accepts(word) == relabeled.accepts(word)


class TestHelpers:
    def test_shortest_accepted_word(self, ab_alphabet):
        nfa = build_ab_star_b(ab_alphabet)
        assert nfa.shortest_accepted_word() == ("b",)

    def test_shortest_accepted_word_of_empty_language_is_none(self, ab_alphabet):
        assert NFA(ab_alphabet, initial=[0]).shortest_accepted_word() is None

    def test_shortest_accepted_word_epsilon(self, ab_alphabet):
        nfa = NFA(ab_alphabet, initial=[0], finals=[0])
        assert nfa.shortest_accepted_word() == ()

    def test_from_words_accepts_exactly_those_words(self, ab_alphabet):
        nfa = NFA.from_words(ab_alphabet, [("a", "b"), ("b",)])
        assert nfa.accepts(("a", "b"))
        assert nfa.accepts(("b",))
        assert not nfa.accepts(("a",))
        assert not nfa.accepts(("a", "b", "b"))
