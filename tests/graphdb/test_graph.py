"""Unit tests for the GraphDB container, and the edge-set readers the tests
use in its place (``oracles.graph``)."""

import pytest
from oracles.graph import (
    degree_statistics,
    has_cycle_reachable_from,
    label_histogram,
    origins,
    out_edges,
    successors,
)

from repro.automata import Alphabet
from repro.errors import GraphError
from repro.graphdb import GraphDB


class TestConstruction:
    def test_add_nodes_and_edges(self):
        graph = GraphDB()
        graph.add_edge("x", "a", "y")
        graph.add_node("z")
        assert graph.nodes == {"x", "y", "z"}
        assert graph.edges == {("x", "a", "y")}
        assert graph.node_count() == 3
        assert graph.edge_count() == 1

    def test_duplicate_edges_are_stored_once(self):
        graph = GraphDB()
        graph.add_edge("x", "a", "y")
        graph.add_edge("x", "a", "y")
        assert graph.edge_count() == 1

    def test_parallel_edges_with_different_labels(self):
        graph = GraphDB()
        graph.add_edge("x", "a", "y")
        graph.add_edge("x", "b", "y")
        assert graph.edge_count() == 2

    def test_fixed_alphabet_rejects_unknown_label(self):
        graph = GraphDB(["a", "b"])
        with pytest.raises(GraphError):
            graph.add_edge("x", "z", "y")

    def test_derived_alphabet_grows_with_labels(self):
        graph = GraphDB()
        graph.add_edge("x", "b", "y")
        graph.add_edge("y", "a", "x")
        assert graph.alphabet == Alphabet(["a", "b"])

    def test_alphabet_of_empty_unlabeled_graph_raises(self):
        with pytest.raises(GraphError):
            GraphDB().alphabet

    def test_invalid_label_and_node(self):
        graph = GraphDB()
        with pytest.raises(GraphError):
            graph.add_edge("x", "", "y")
        with pytest.raises(GraphError):
            graph.add_node(None)

    def test_from_edges(self):
        graph = GraphDB.from_edges([("x", "a", "y")], nodes=["z"])
        assert graph.nodes == {"x", "y", "z"}


class TestAdjacency:
    @pytest.fixture
    def graph(self):
        g = GraphDB(["a", "b"])
        g.add_edges([("x", "a", "y"), ("x", "a", "z"), ("x", "b", "y"), ("y", "a", "z")])
        return g

    def test_successors(self, graph):
        assert successors(graph, "x", "a") == {"y", "z"}
        assert successors(graph, "x") == {"y", "z"}
        assert successors(graph, "z") == frozenset()

    def test_predecessors(self, graph):
        reverse = origins(graph)
        assert reverse[("y", "a")] == {"x"}
        assert reverse[("z", "a")] == {"x", "y"}
        assert ("x", "a") not in reverse

    def test_out_edges_and_in_edges(self, graph):
        assert set(out_edges(graph, "y")) == {("a", "z")}
        reverse = origins(graph)
        assert reverse[("y", "a")] == reverse[("y", "b")] == {"x"}

    def test_unknown_node_raises(self, graph):
        with pytest.raises(GraphError):
            successors(graph, "missing")
        with pytest.raises(GraphError):
            successors(graph, "missing", "a")

    def test_has_edge_and_contains(self, graph):
        assert graph.has_edge("x", "a", "y")
        assert not graph.has_edge("y", "b", "x")
        assert "x" in graph
        assert "missing" not in graph


class TestNeighborhoodsAndSubgraphs:
    @pytest.fixture
    def chain(self):
        g = GraphDB(["a"])
        g.add_edges([("n1", "a", "n2"), ("n2", "a", "n3"), ("n3", "a", "n4")])
        return g

    def test_copy_is_independent(self, chain):
        clone = chain.copy()
        clone.add_edge("n4", "a", "n1")
        assert not chain.has_edge("n4", "a", "n1")


class TestCyclesAndStatistics:
    def test_cycle_detection(self):
        graph = GraphDB(["a"])
        graph.add_edges([("x", "a", "y"), ("y", "a", "x"), ("z", "a", "x"), ("w", "a", "v")])
        assert has_cycle_reachable_from(graph, "z")
        assert has_cycle_reachable_from(graph, "x")
        assert not has_cycle_reachable_from(graph, "w")
        assert not has_cycle_reachable_from(graph, "v")

    def test_label_histogram(self):
        graph = GraphDB(["a", "b"])
        graph.add_edges([("x", "a", "y"), ("y", "a", "z"), ("x", "b", "z")])
        assert label_histogram(graph) == {"a": 2, "b": 1}

    def test_degree_statistics(self):
        graph = GraphDB(["a"])
        graph.add_edges([("x", "a", "y"), ("x", "a", "z")])
        stats = degree_statistics(graph)
        assert stats["max_out_degree"] == 2.0
        assert stats["mean_out_degree"] == pytest.approx(2 / 3)
