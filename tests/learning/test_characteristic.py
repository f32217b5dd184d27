"""Unit tests for characteristic samples and characteristic graphs (Theorem 3.5)."""

import hashlib

import pytest

from repro.automata import Alphabet
from repro.automata.kernel import TableDFA
from repro.engine import QueryEngine
from repro.errors import LearningError
from repro.evaluation.workloads import (
    biological_query_expressions,
    synthetic_query_expressions,
)
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
        with pytest.raises(LearningError):
            characteristic_word_sample(PathQuery.from_automaton(TableDFA.blank(abc, 1)))


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


#: Per workload goal: sha256 of ``repr((sorted(P+), sorted(P-)))`` of the word
#: sample its characteristic graph is built from, and that graph's node and
#: edge counts.  Recorded before the sample construction moved from object
#: DFAs to the query's table; bio5 is left out (its graph has about 1.37M
#: nodes: step (iii) writes out every word up to the largest positive's
#: length, so the graph grows as |alphabet|^length).
WORKLOAD_SAMPLES = {
    "syn1": ("3dded1efad5ee9f1a1af586a02b1157cdd0306b5981334bf6a07f4dbca947ae6", 153, 147),
    "syn2": ("9c2614627bd219c5fc86f6c943d54edaddb13e55be658591418cf24fbc53e4a3", 80, 71),
    "syn3": ("b1573a28f46ea726903a2e178c6fc5dec1f8c1da5db23c3ea7e654d2d5d59765", 65, 59),
    "bio1": ("4852b8a82f6c0bf33ef0f8f35a0862f382efd3a4f9f257f47909603671984745", 135, 124),
    "bio2": ("8c3a7c83829ea3cab8876616b44634bb12a2661b06de18522a61f745b5cadd48", 12723, 12701),
    "bio3": ("4305aa13fb979ad15182e217113760d6efd6ab830a81cde97e97922ba1c2d44f", 171, 159),
    "bio4": ("0098170bc54891d93d9df482147a2ee2d2bd4acf4c817fd00615e2a6e1f3ee8b", 54, 38),
    "bio6": ("36e0ce093c9233eacd7cb58b1510ca9ce8619ecf0ed2b2b7a10833d9a9816041", 68, 48),
}


def workload_goals() -> dict:
    expressions = {**synthetic_query_expressions(6), **biological_query_expressions()}
    return {name: expressions[name] for name in WORKLOAD_SAMPLES}


@pytest.mark.parametrize("name, expression", workload_goals().items())
def test_learner_identifies_workload_goals_from_their_characteristic_graph(name, expression):
    """Theorem 3.5 beyond the worked examples: on syn1-3 and bio1-4, bio6,
    the characteristic sample is the recorded one, and Algorithm 1 at
    ``theoretical_k`` returns the goal's prefix-free form."""
    goal = PathQuery.parse(expression)
    positives, negatives = characteristic_word_sample(goal.prefix_free_form())
    digest = hashlib.sha256(repr((sorted(positives), sorted(negatives))).encode()).hexdigest()
    graph, sample = characteristic_graph(goal)
    assert (digest, graph.node_count(), graph.edge_count()) == WORKLOAD_SAMPLES[name]
    result = learn_path_query(graph, sample, k=theoretical_k(goal), engine=QueryEngine())
    assert result.query is not None and result.query == goal
    assert result.query.table.fingerprint() == goal.prefix_free_form().table.fingerprint()
