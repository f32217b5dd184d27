"""Unit tests for Algorithms 2 and 3 (binary and n-ary learners)."""

import pytest

from repro.errors import LearningError
from repro.graphdb import GraphDB
from repro.learning import BinarySample, NarySample, learn_binary_query, learn_nary_query
from repro.queries import BinaryPathQuery


@pytest.fixture
def chain_graph():
    graph = GraphDB(["a", "b", "c"])
    graph.add_edges(
        [
            ("n1", "a", "n2"),
            ("n2", "b", "n3"),
            ("n3", "c", "n4"),
            ("n1", "c", "n5"),
            ("n5", "c", "n4"),
            ("n2", "a", "n2"),
        ]
    )
    return graph


class TestBinaryLearner:
    def test_learns_consistent_binary_query(self, chain_graph, engine):
        sample = BinarySample({("n1", "n3")}, {("n1", "n5"), ("n3", "n4")})
        result = learn_binary_query(chain_graph, sample, k=3, engine=engine)
        assert not result.is_null
        assert result.query.is_consistent_with(
            chain_graph, sample.positives, sample.negatives, engine=engine
        )

    def test_scp_uses_destination_information(self, chain_graph, engine):
        # The smallest path between n1 and n3 is ab; the monadic learner
        # would have considered the smaller path c (towards n5) as well.
        sample = BinarySample({("n1", "n3")}, {("n3", "n4")})
        result = learn_binary_query(chain_graph, sample, k=3, engine=engine)
        assert result.scps[("n1", "n3")] == ("a", "b")

    def test_empty_positive_sample_abstains(self, chain_graph, engine):
        assert learn_binary_query(chain_graph, BinarySample(), k=2, engine=engine).is_null

    def test_unreachable_positive_pair_abstains(self, chain_graph, engine):
        sample = BinarySample({("n4", "n1")})
        assert learn_binary_query(chain_graph, sample, k=4, engine=engine).is_null

    def test_negative_k_raises(self, chain_graph, engine):
        with pytest.raises(LearningError):
            learn_binary_query(chain_graph, BinarySample({("n1", "n2")}), k=-1, engine=engine)

    def test_self_pair_with_epsilon(self, chain_graph, engine):
        sample = BinarySample({("n1", "n1")})
        result = learn_binary_query(chain_graph, sample, k=2, engine=engine)
        assert not result.is_null
        assert result.query.selects(chain_graph, "n1", "n1", engine=engine)


class TestNaryLearner:
    def test_learns_component_queries(self, chain_graph, engine):
        sample = NarySample(
            {("n1", "n2", "n3")},
            {("n1", "n5", "n4")},
        )
        result = learn_nary_query(chain_graph, sample, k=3, engine=engine)
        assert not result.is_null
        assert result.query.arity == 3
        assert result.query.selects(chain_graph, ("n1", "n2", "n3"), engine=engine)
        assert not result.query.selects(chain_graph, ("n1", "n5", "n4"), engine=engine)

    def test_abstains_when_a_component_abstains(self, chain_graph, engine):
        # No path from n4 back to n1, so the first component cannot be learned.
        sample = NarySample({("n4", "n1", "n2")})
        result = learn_nary_query(chain_graph, sample, k=3, engine=engine)
        assert result.is_null
        assert result.components[0].is_null

    def test_empty_sample_abstains(self, chain_graph, engine):
        assert learn_nary_query(chain_graph, NarySample(), k=2, engine=engine).is_null

    def test_negative_k_raises(self, chain_graph, engine):
        with pytest.raises(LearningError):
            learn_nary_query(chain_graph, NarySample({("n1", "n2", "n3")}), k=-1, engine=engine)

    def test_component_results_are_exposed(self, chain_graph, engine):
        sample = NarySample({("n1", "n2", "n3")})
        result = learn_nary_query(chain_graph, sample, k=3, engine=engine)
        assert len(result.components) == 2
        assert all(isinstance(c.query, BinaryPathQuery) for c in result.components)
