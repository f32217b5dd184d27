"""Unit tests for binary and n-ary path query semantics."""

import pytest

from repro.errors import QueryError
from repro.graphdb import GraphDB
from repro.queries import BinaryPathQuery, NaryPathQuery


@pytest.fixture
def chain_graph():
    graph = GraphDB(["a", "b", "c"])
    graph.add_edges(
        [
            ("n1", "a", "n2"),
            ("n2", "b", "n3"),
            ("n3", "c", "n4"),
            ("n1", "b", "n3"),
            ("n2", "b", "n2"),
        ]
    )
    return graph


class TestBinaryQueries:
    def test_evaluate(self, chain_graph, engine):
        query = BinaryPathQuery.parse("a.b", chain_graph.alphabet)
        pairs = query.evaluate(chain_graph, engine=engine)
        assert ("n1", "n3") in pairs
        assert ("n1", "n2") in pairs  # via a then the b self-loop on n2
        assert ("n2", "n3") not in pairs

    def test_selects(self, chain_graph, engine):
        query = BinaryPathQuery.parse("a.b*.c", chain_graph.alphabet)
        assert query.selects(chain_graph, "n1", "n4", engine=engine)
        assert not query.selects(chain_graph, "n2", "n4", engine=engine)

    def test_selectivity(self, chain_graph, engine):
        query = BinaryPathQuery.parse("c", chain_graph.alphabet)
        assert query.selectivity(chain_graph, engine=engine) == pytest.approx(1 / 16)

    def test_equality_is_strict_language_equivalence(self, chain_graph):
        # Binary semantics observes the end node, so a and a.b* differ.
        assert BinaryPathQuery.parse("a") != BinaryPathQuery.parse("a.b*")
        assert BinaryPathQuery.parse("a+b") == BinaryPathQuery.parse("b+a")

    def test_consistency(self, chain_graph, engine):
        query = BinaryPathQuery.parse("a.b", chain_graph.alphabet)
        assert query.is_consistent_with(chain_graph, {("n1", "n3")}, {("n2", "n4")}, engine=engine)
        assert not query.is_consistent_with(chain_graph, {("n2", "n4")}, set(), engine=engine)

    def test_expression_roundtrip(self):
        assert BinaryPathQuery.parse("a.b").expression == "a.b"


class TestNaryQueries:
    def test_arity_and_components(self):
        query = NaryPathQuery.parse(["a", "b.c"])
        assert query.arity == 3
        assert query.expressions == ("a", "b.c")
        assert query.size >= 1

    def test_empty_components_raise(self):
        with pytest.raises(QueryError):
            NaryPathQuery([])

    def test_selects_tuple(self, chain_graph, engine):
        query = NaryPathQuery.parse(["a", "b", "c"], chain_graph.alphabet)
        assert query.selects(chain_graph, ("n1", "n2", "n3", "n4"), engine=engine)
        assert not query.selects(chain_graph, ("n1", "n3", "n3", "n4"), engine=engine)

    def test_selects_wrong_arity_raises(self, chain_graph, engine):
        query = NaryPathQuery.parse(["a"], chain_graph.alphabet)
        with pytest.raises(QueryError):
            query.selects(chain_graph, ("n1",), engine=engine)

    def test_evaluate_joins_positions(self, chain_graph, engine):
        query = NaryPathQuery.parse(["a", "b"], chain_graph.alphabet)
        tuples = query.evaluate(chain_graph, engine=engine)
        assert ("n1", "n2", "n3") in tuples
        assert ("n1", "n2", "n2") in tuples

    def test_evaluate_limit(self, chain_graph, engine):
        query = NaryPathQuery.parse(["a+b", "b+c"], chain_graph.alphabet)
        limited = query.evaluate(chain_graph, limit=1, engine=engine)
        assert len(limited) == 1

    def test_is_consistent_with(self, chain_graph, engine):
        query = NaryPathQuery.parse(["a", "b"], chain_graph.alphabet)
        assert query.is_consistent_with(
            chain_graph, {("n1", "n2", "n3")}, {("n3", "n4", "n1")}, engine=engine
        )

    def test_equality_and_hash(self):
        assert NaryPathQuery.parse(["a", "b"]) == NaryPathQuery.parse(["a", "b"])
        assert NaryPathQuery.parse(["a", "b"]) != NaryPathQuery.parse(["a", "c"])
