"""Unit tests for characteristic samples and characteristic graphs (Theorem 3.5)."""

import pytest

from repro.automata import Alphabet
from repro.errors import LearningError
from repro.learning import (
    characteristic_graph,
    characteristic_word_sample,
    learn_path_query,
    rpni,
)
from repro.learning.characteristic import theoretical_k
from repro.queries import PathQuery


@pytest.fixture
def abc():
    return Alphabet(["a", "b", "c"])


class TestCharacteristicWordSample:
    def test_running_example_positives(self, abc):
        query = PathQuery.parse("(a.b)*.c", abc)
        positives, negatives = characteristic_word_sample(query)
        # The paper's P+ for (a.b)*.c is {c, abc}.
        assert ("c",) in positives
        assert ("a", "b", "c") in positives
        # Every stated P- word shows up among the negatives.
        for word in [(), ("a",), ("a", "b")]:
            assert word in negatives

    def test_positives_are_in_language_negatives_are_not(self, abc):
        for expression in ["(a.b)*.c", "a.b", "a+b.c", "a*.b"]:
            query = PathQuery.parse(expression, abc)
            positives, negatives = characteristic_word_sample(query)
            assert positives, expression
            for word in positives:
                assert query.accepts_word(word)
            for word in negatives:
                assert not query.accepts_word(word)

    def test_rpni_recovers_query_from_characteristic_sample(self, abc):
        for expression in ["(a.b)*.c", "a.b", "a*.b", "(a+b).c"]:
            query = PathQuery.parse(expression, abc)
            positives, negatives = characteristic_word_sample(query)
            learned = rpni(abc, positives, negatives)
            assert PathQuery.from_automaton(learned) == query, expression

    def test_empty_query_raises(self, abc):
        from repro.automata.dfa import DFA

        with pytest.raises(LearningError):
            characteristic_word_sample(DFA(abc, initial=0))


class TestTheoreticalK:
    def test_value_is_2n_plus_1(self, abc):
        query = PathQuery.parse("(a.b)*.c", abc)
        assert theoretical_k(query) == 2 * query.size + 1 == 7


class TestCharacteristicGraph:
    @pytest.mark.parametrize("expression", ["(a.b)*.c", "a.b", "(a+b).c", "a.b*.c"])
    def test_learner_recovers_goal_from_characteristic_graph(self, abc, expression, engine):
        goal = PathQuery.parse(expression, abc)
        graph, sample = characteristic_graph(goal)
        result = learn_path_query(graph, sample, k=theoretical_k(goal), engine=engine)
        assert not result.is_null
        assert result.query.equivalent_to(goal)

    def test_sample_is_consistent_with_goal(self, abc, engine):
        goal = PathQuery.parse("(a.b)*.c", abc)
        graph, sample = characteristic_graph(goal)
        assert goal.is_consistent_with(graph, sample.positives, sample.negatives, engine=engine)

    def test_extending_the_sample_consistently_keeps_the_result(self, abc, engine):
        # Definition 3.4: any consistent extension of the characteristic
        # sample still makes the learner output the goal query.
        goal = PathQuery.parse("(a.b)*.c", abc)
        graph, sample = characteristic_graph(goal)
        extra_negative = next(
            node
            for node in graph.nodes
            if node not in sample.labeled and not goal.selects(graph, node, engine=engine)
        )
        extended = sample.with_negative(extra_negative)
        result = learn_path_query(graph, extended, k=theoretical_k(goal), engine=engine)
        assert not result.is_null
        assert result.query.equivalent_to(goal)

    def test_sample_size_is_small(self, abc):
        goal = PathQuery.parse("(a.b)*.c", abc)
        _, sample = characteristic_graph(goal)
        assert len(sample.negatives) == 1
        assert len(sample.positives) <= 6
