"""Unit tests for query evaluation via the product construction (the
reference oracle the engine parity suites compare against)."""

import pytest

from oracles.automata import DFA, compile_dfa
from oracles.product import (
    reference_any_node_selects as any_node_selects,
    reference_binary_evaluate as binary_evaluate,
    reference_evaluate as evaluate,
    reference_node_selects as node_selects,
    reference_pair_selects as pair_selects,
)
from repro.errors import GraphError
from repro.graphdb import GraphDB


class TestMonadicEvaluation:
    def test_paper_examples_on_g0(self, g0):
        # Section 2: a selects all nodes except v4; (a.b)*.c selects v1 and v3;
        # b.b.c.c selects no node.
        assert evaluate(g0, compile_dfa("a", g0.alphabet)) == g0.nodes - {"v4"}
        assert evaluate(g0, compile_dfa("(a.b)*.c", g0.alphabet)) == {"v1", "v3"}
        assert evaluate(g0, compile_dfa("b.b.c.c", g0.alphabet)) == frozenset()

    def test_geo_running_example(self, geo):
        query = compile_dfa("(tram+bus)*.cinema", geo.alphabet)
        assert evaluate(geo, query) == {"N1", "N2", "N4", "N6"}

    def test_epsilon_query_selects_every_node(self, g0):
        assert evaluate(g0, compile_dfa("eps", g0.alphabet)) == g0.nodes

    def test_empty_language_selects_nothing(self, g0):
        empty = DFA(g0.alphabet, initial=0)
        assert evaluate(g0, empty) == frozenset()

    def test_node_selects_agrees_with_evaluate(self, g0):
        query = compile_dfa("(a.b)*.c", g0.alphabet)
        selected = evaluate(g0, query)
        for node in g0.nodes:
            assert node_selects(g0, query, node) == (node in selected)

    def test_node_selects_unknown_node_raises(self, g0):
        with pytest.raises(GraphError):
            node_selects(g0, compile_dfa("a", g0.alphabet), "missing")

    def test_query_with_labels_absent_from_graph(self, g0):
        # A query over a larger alphabet evaluates fine; unknown labels
        # simply never match an edge.
        assert evaluate(g0, compile_dfa("z", ["a", "b", "c", "z"])) == frozenset()
        assert evaluate(g0, compile_dfa("a.b.c+z", ["a", "b", "c", "z"])) == {
            "v1",
            "v3",
        }


class TestAnyNodeSelects:
    def test_merge_guard_of_paper_example(self, g0):
        negatives = {"v2", "v7"}
        # a*(c+bc) -- the result of merging eps and a -- selects the negative v2.
        assert any_node_selects(g0, compile_dfa("a*.(c+b.c)", g0.alphabet), negatives)
        # (a.b)*.c selects no negative node.
        assert not any_node_selects(g0, compile_dfa("(a.b)*.c", g0.alphabet), negatives)

    def test_empty_node_set(self, g0):
        assert not any_node_selects(g0, compile_dfa("a", g0.alphabet), set())

    def test_epsilon_in_language_selects_any_node(self, g0):
        assert any_node_selects(g0, compile_dfa("a*", g0.alphabet), {"v4"})


class TestBinaryEvaluation:
    @pytest.fixture
    def chain(self):
        graph = GraphDB(["a", "b"])
        graph.add_edges([("x", "a", "y"), ("y", "b", "z"), ("x", "b", "z")])
        return graph

    def test_binary_evaluate(self, chain):
        pairs = binary_evaluate(chain, compile_dfa("a.b", chain.alphabet))
        assert pairs == {("x", "z")}

    def test_binary_evaluate_with_star(self, chain):
        pairs = binary_evaluate(chain, compile_dfa("a*", chain.alphabet))
        # Every node reaches itself with eps, plus x reaches y with a.
        assert ("x", "x") in pairs
        assert ("x", "y") in pairs
        assert ("y", "y") in pairs
        assert ("y", "x") not in pairs

    def test_pair_selects(self, chain):
        query = compile_dfa("a.b", chain.alphabet)
        assert pair_selects(chain, query, "x", "z")
        assert not pair_selects(chain, query, "x", "y")
        assert not pair_selects(chain, query, "y", "z")

    def test_pair_selects_epsilon(self, chain):
        query = compile_dfa("b*", chain.alphabet)
        assert pair_selects(chain, query, "y", "y")
        assert pair_selects(chain, query, "y", "z")

    def test_pair_selects_unknown_node_raises(self, chain):
        with pytest.raises(GraphError):
            pair_selects(chain, compile_dfa("a", chain.alphabet), "x", "missing")

    def test_binary_agrees_with_pairwise_checks(self, g0):
        query = compile_dfa("a.b", g0.alphabet)
        pairs = binary_evaluate(g0, query)
        for origin in g0.nodes:
            for end in g0.nodes:
                assert pair_selects(g0, query, origin, end) == ((origin, end) in pairs)
