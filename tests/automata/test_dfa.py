"""Unit tests for the object-level DFA the test oracles are written in."""

import pytest
from oracles.automata import DFA, SINK

from repro.automata import Alphabet
from repro.errors import AutomatonError


@pytest.fixture
def abc():
    return Alphabet(["a", "b", "c"])


def build_abstar_c(alphabet) -> DFA:
    """The canonical DFA of (a.b)*.c (Figure 4 of the paper)."""
    dfa = DFA(alphabet, initial="q0", finals=["q2"])
    dfa.add_transition("q0", "a", "q1")
    dfa.add_transition("q1", "b", "q0")
    dfa.add_transition("q0", "c", "q2")
    return dfa


class TestConstruction:
    def test_duplicate_conflicting_transition_raises(self, abc):
        dfa = DFA(abc, initial=0)
        dfa.add_transition(0, "a", 1)
        with pytest.raises(AutomatonError):
            dfa.add_transition(0, "a", 2)

    def test_duplicate_identical_transition_is_idempotent(self, abc):
        dfa = DFA(abc, initial=0)
        dfa.add_transition(0, "a", 1)
        dfa.add_transition(0, "a", 1)
        assert dfa.transition_count() == 1

    def test_unknown_symbol_raises(self, abc):
        with pytest.raises(AutomatonError):
            DFA(abc, initial=0).add_transition(0, "z", 1)

    def test_set_final_toggles(self, abc):
        dfa = DFA(abc, initial=0)
        dfa.set_final(0, True)
        assert dfa.is_final(0)
        dfa.set_final(0, False)
        assert not dfa.is_final(0)


class TestSemantics:
    def test_accepts_figure4_language(self, abc):
        dfa = build_abstar_c(abc)
        assert dfa.accepts(("c",))
        assert dfa.accepts(("a", "b", "c"))
        assert dfa.accepts(("a", "b", "a", "b", "c"))
        assert not dfa.accepts(())
        assert not dfa.accepts(("a", "b"))
        assert not dfa.accepts(("c", "c"))

    def test_run_dies_on_missing_transition(self, abc):
        dfa = build_abstar_c(abc)
        assert dfa.run(("b",)) is None

    def test_shortest_accepted_word(self, abc):
        dfa = build_abstar_c(abc)
        assert dfa.shortest_accepted_word() == ("c",)

    def test_is_empty(self, abc):
        dfa = DFA(abc, initial=0)
        assert dfa.is_empty()
        assert not build_abstar_c(abc).is_empty()


class TestCompletionAndComplement:
    def test_completed_adds_sink(self, abc):
        dfa = build_abstar_c(abc)
        complete = dfa.completed()
        assert SINK in complete.states
        for state in complete.states:
            for symbol in abc:
                assert complete.delta(state, symbol) is not None

    def test_complement_swaps_acceptance(self, abc):
        dfa = build_abstar_c(abc)
        complement = dfa.complement()
        for word in [(), ("c",), ("a", "b"), ("a", "b", "c"), ("b",)]:
            assert complement.accepts(word) == (not dfa.accepts(word))

    def test_user_state_named_sink_does_not_collide(self, abc):
        # Regression: SINK used to be the string "__sink__", so a user state
        # with that exact name collided with the completion sink -- the user
        # state received the sink's self-loops and (via complement) its
        # rejecting role.  SINK is now a dedicated sentinel object.
        dfa = DFA(abc, initial=0)
        dfa.add_transition(0, "a", "__sink__")
        dfa.add_final("__sink__")
        complete = dfa.completed()
        assert SINK in complete.states
        assert "__sink__" in complete.states
        assert SINK != "__sink__"
        # The accepting user state keeps its language role...
        assert complete.accepts(("a",))
        assert not complete.accepts(("a", "a"))
        # ...and the real sink is a rejecting trap with self-loops.
        assert not complete.is_final(SINK)
        for symbol in abc:
            assert complete.delta(SINK, symbol) is SINK

    def test_complement_with_user_state_named_sink(self, abc):
        dfa = DFA(abc, initial=0)
        dfa.add_transition(0, "a", "__sink__")
        dfa.add_final("__sink__")
        complement = dfa.complement()
        for word in [(), ("a",), ("a", "a"), ("b",)]:
            assert complement.accepts(word) == (not dfa.accepts(word))


class TestStructure:
    def test_trim_removes_dead_states(self, abc):
        dfa = build_abstar_c(abc)
        dfa.add_transition("q2", "a", "dead")
        trimmed = dfa.trim()
        assert "dead" not in trimmed.states

    def test_trim_keeps_initial_even_if_language_empty(self, abc):
        dfa = DFA(abc, initial=0)
        dfa.add_transition(0, "a", 1)
        trimmed = dfa.trim()
        assert trimmed.initial == 0

    def test_relabeled_is_deterministic_and_preserves_language(self, abc):
        dfa = build_abstar_c(abc)
        relabeled = dfa.relabeled()
        assert relabeled.initial == 0
        for word in [("c",), ("a", "b", "c"), ("a",), ()]:
            assert relabeled.accepts(word) == dfa.accepts(word)

    def test_structurally_equal_on_isomorphic_automata(self, abc):
        left = build_abstar_c(abc)
        right = DFA(abc, initial="s", finals=["f"])
        right.add_transition("s", "a", "t")
        right.add_transition("t", "b", "s")
        right.add_transition("s", "c", "f")
        assert left.structurally_equal(right)

    def test_structurally_unequal_on_different_languages(self, abc):
        left = build_abstar_c(abc)
        right = DFA.single_word(abc, ("c",))
        assert not left.structurally_equal(right)


class TestConversions:
    def test_to_nfa_preserves_language(self, abc):
        dfa = build_abstar_c(abc)
        nfa = dfa.to_nfa()
        for word in [("c",), ("a", "b", "c"), ("a",), ()]:
            assert nfa.accepts(word) == dfa.accepts(word)

    def test_single_word(self, abc):
        dfa = DFA.single_word(abc, ("a", "c"))
        assert dfa.accepts(("a", "c"))
        assert not dfa.accepts(("a",))
        assert not dfa.accepts(("a", "c", "a"))
        assert len(dfa) == 3

    def test_single_empty_word(self, abc):
        dfa = DFA.single_word(abc, ())
        assert dfa.accepts(())
        assert not dfa.accepts(("a",))
