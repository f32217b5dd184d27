"""Unit tests for the generalization engine and the word-level RPNI learner."""

import pytest
from oracles.generalize import prefix_tree_acceptor

from repro.automata import Alphabet
from repro.errors import LearningError
from repro.learning import rpni
from repro.learning.generalize import generalize_pta
from repro.queries import PathQuery


@pytest.fixture
def abc():
    return Alphabet(["a", "b", "c"])


class TestGeneralizePTA:
    def test_no_negatives_generalizes_aggressively(self, abc):
        pta = prefix_tree_acceptor(abc, [("a", "b", "c"), ("c",)])
        result = generalize_pta(pta, lambda dfa: False)
        # With nothing blocking merges, everything collapses to one state.
        assert len(result) == 1

    def test_negative_words_block_merges(self, abc):
        pta = prefix_tree_acceptor(abc, [("a", "b", "c"), ("c",)])
        negatives = [(), ("a",), ("a", "b"), ("a", "c"), ("b", "c")]

        def violates(candidate):
            return any(candidate.accepts(word) for word in negatives)

        result = generalize_pta(pta, violates)
        learned = PathQuery.from_automaton(result)
        assert learned == PathQuery.parse("(a.b)*.c", abc)

    def test_initial_guard_violation_raises(self, abc):
        pta = prefix_tree_acceptor(abc, [("a",)])
        with pytest.raises(LearningError):
            generalize_pta(pta, lambda dfa: True)

    def test_max_merges_cap(self, abc):
        pta = prefix_tree_acceptor(abc, [("a", "a", "a", "a")])
        capped = generalize_pta(pta, lambda dfa: False, max_merges=0)
        uncapped = generalize_pta(pta, lambda dfa: False)
        assert len(capped) == len(pta) > len(uncapped)

    def test_result_language_contains_input_words(self, abc):
        words = [("a", "b"), ("c",), ("b", "b", "a")]
        pta = prefix_tree_acceptor(abc, words)
        negatives = [("a",), ("b",)]

        def violates(candidate):
            return any(candidate.accepts(word) for word in negatives)

        result = generalize_pta(pta, violates)
        for word in words:
            assert result.accepts(word)
        for word in negatives:
            assert not result.accepts(word)


class TestRPNI:
    def test_paper_characteristic_words_give_abstar_c(self, abc):
        # Theorem 3.5's example: P+ = {c, abc}, P- = {eps, a, ab, ac, bc}.
        learned = rpni(
            abc,
            [("c",), ("a", "b", "c")],
            [(), ("a",), ("a", "b"), ("a", "c"), ("b", "c")],
        )
        assert PathQuery.from_automaton(learned) == PathQuery.parse("(a.b)*.c", abc)

    def test_learned_dfa_is_consistent_with_sample(self, abc):
        positives = [("a",), ("a", "a", "a")]
        negatives = [("b",), ("a", "b")]
        learned = rpni(abc, positives, negatives)
        for word in positives:
            assert learned.accepts(word)
        for word in negatives:
            assert not learned.accepts(word)

    def test_empty_positive_set_gives_empty_language(self, abc):
        learned = rpni(abc, [], [("a",)])
        assert learned.is_empty()

    def test_contradictory_sample_raises(self, abc):
        with pytest.raises(LearningError):
            rpni(abc, [("a",)], [("a",)])

    def test_single_positive_word(self, abc):
        learned = rpni(abc, [("a", "b")], [])
        # With no negatives, every state of the PTA merges into one, so the
        # learned language is (a+b)* -- maximal over the observed symbols.
        assert learned.accepts(("a", "b"))
        assert learned.accepts(("b", "a", "a"))
        assert len(learned) == 1

    def test_star_language_from_characteristic_words(self, abc):
        # Characteristic-style sample for a*: positives eps, a, aa; negatives b, ab, ba.
        learned = rpni(abc, [(), ("a",), ("a", "a")], [("b",), ("a", "b"), ("b", "a"), ("c",)])
        assert PathQuery.from_automaton(learned) == PathQuery.parse("a*", abc)
