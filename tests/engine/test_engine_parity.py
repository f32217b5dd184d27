"""Parity of the engine subsystem against the reference product construction.

The engine (CSR index + compiled plans + int-array kernels) must return
results identical to the original dict/frozenset implementation kept in
``tests/oracles/product.py`` as ``reference_*`` -- on the paper's worked
examples, on the documented edge cases, and on randomized synthetic graphs.
"""

from __future__ import annotations

import random

import pytest

from oracles.product import (
    reference_any_node_selects,
    reference_binary_evaluate,
    reference_evaluate,
    reference_node_selects,
    reference_pair_selects,
)
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.engine import QueryEngine
from repro.errors import GraphError
from repro.graphdb import GraphDB
from repro.regex import compile_query

EXPRESSIONS = ["a", "(a.b)*.c", "a*.(c+b.c)", "b.b.c.c", "eps", "a*", "(a+b)*.c", "c.b*"]


def random_graph(rng: random.Random, labels: list[str]) -> GraphDB:
    graph = GraphDB(labels)
    node_count = rng.randint(2, 14)
    for _ in range(rng.randint(1, 40)):
        graph.add_edge(
            rng.randint(0, node_count), rng.choice(labels), rng.randint(0, node_count)
        )
    return graph


class TestWorkedExamples:
    def test_paper_examples_on_g0(self, engine, g0):
        assert engine.evaluate(g0, compile_query("a", g0.alphabet)) == g0.nodes - {"v4"}
        assert engine.evaluate(g0, compile_query("(a.b)*.c", g0.alphabet)) == {"v1", "v3"}
        assert engine.evaluate(g0, compile_query("b.b.c.c", g0.alphabet)) == frozenset()

    def test_geo_running_example(self, engine, geo):
        query = compile_query("(tram+bus)*.cinema", geo.alphabet)
        assert engine.evaluate(geo, query) == {"N1", "N2", "N4", "N6"}


class TestEdgeCases:
    def test_empty_language_no_finals(self, engine, g0):
        empty = DFA(g0.alphabet, initial=0)
        assert engine.evaluate(g0, empty) == frozenset()
        assert engine.binary_evaluate(g0, empty) == frozenset()
        assert not engine.any_selects(g0, empty, list(g0.nodes))

    def test_empty_language_unreachable_final(self, engine, g0):
        # A final state exists but no transition reaches it.
        dfa = DFA(g0.alphabet, initial=0, states=[0, 1], finals=[1])
        assert engine.evaluate(g0, dfa) == frozenset()
        assert not engine.selects(g0, dfa, "v1")

    def test_epsilon_nfa_rejected(self, engine, g0):
        nfa = NFA(g0.alphabet, states=[0, 1], initial=[0], finals=[1])
        nfa.add_epsilon_transition(0, 1)
        with pytest.raises(GraphError):
            engine.evaluate(g0, nfa)
        with pytest.raises(GraphError):
            engine.any_selects(g0, nfa, ["v1"])
        with pytest.raises(GraphError):
            engine.any_selects(g0, nfa, ["v1"], ephemeral=True)

    def test_epsilon_free_nfa_accepted(self, engine, g0):
        nfa = compile_query("a.b", g0.alphabet).to_nfa()
        assert engine.evaluate(g0, nfa) == reference_evaluate(g0, nfa)

    def test_unknown_node_raises(self, engine, g0):
        query = compile_query("a", g0.alphabet)
        with pytest.raises(GraphError):
            engine.selects(g0, query, "missing")
        with pytest.raises(GraphError):
            engine.any_selects(g0, query, ["v1", "missing"])
        with pytest.raises(GraphError):
            engine.pair_selects(g0, query, "v1", "missing")
        with pytest.raises(GraphError):
            engine.pair_selects(g0, query, "missing", "v1", ephemeral=True)

    def test_empty_word_acceptance(self, engine, g0):
        # initials & finals != {} : every node has the empty path.
        star = compile_query("a*", g0.alphabet)
        assert engine.evaluate(g0, star) == g0.nodes
        for node in g0.nodes:
            assert engine.selects(g0, star, node)
            assert engine.pair_selects(g0, star, node, node)

    def test_negative_max_depth_rejected(self, engine, g0):
        from repro.automata.kernel import TableDFA
        from repro.errors import QueryError

        table, _ = TableDFA.from_dfa(compile_query("a.b", g0.alphabet))
        with pytest.raises(QueryError, match="non-negative"):
            engine.evaluate(g0, table, ephemeral=True, max_depth=-3)
        with pytest.raises(QueryError, match="non-negative"):
            engine.any_selects(g0, table, ["v1"], ephemeral=True, max_depth=-3)
        # Zero stays legal: only the empty word fits.
        assert engine.evaluate(g0, table, ephemeral=True, max_depth=0) == frozenset()

    def test_rejected_calls_leave_the_stats_untouched(self, g0):
        from repro.automata.kernel import TableDFA
        from repro.errors import QueryError

        engine = QueryEngine()
        dfa = compile_query("a.b", g0.alphabet)
        table, _ = TableDFA.from_dfa(dfa)
        epsilon = NFA(g0.alphabet, states=[0, 1], initial=[0], finals=[1])
        epsilon.add_epsilon_transition(0, 1)
        before = engine.stats.as_dict()
        any_of, pair, whole = engine.any_selects, engine.pair_selects, engine.evaluate
        rejected = [
            (QueryError, lambda: any_of(g0, dfa, ["v1"], ephemeral=True, max_depth=2)),
            (QueryError, lambda: any_of(g0, dfa, ["v1"], max_depth=2)),
            (QueryError, lambda: any_of(g0, table, ["v1"], ephemeral=True, max_depth=-1)),
            (QueryError, lambda: any_of(g0, "not a query", ["v1"], ephemeral=True)),
            (GraphError, lambda: any_of(g0, table, ["missing"], ephemeral=True)),
            (QueryError, lambda: pair(g0, object(), "v1", "v2", ephemeral=True)),
            (GraphError, lambda: pair(g0, table, "v1", "missing", ephemeral=True)),
            (QueryError, lambda: whole(g0, dfa, max_depth=2)),
            (QueryError, lambda: whole(g0, dfa, ephemeral=True)),
            (QueryError, lambda: whole(g0, table, ephemeral=True, max_depth=-3)),
        ]
        for error, call in rejected:
            with pytest.raises(error):
                call()
            assert engine.stats.as_dict() == before
        # An epsilon NFA is refused at the door, on every entry point and in
        # both modes, before the plan cache is even asked.
        before = engine.stats_snapshot()
        for call in (
            lambda: any_of(g0, epsilon, ["v1"], ephemeral=True),
            lambda: pair(g0, epsilon, "v1", "v2", ephemeral=True),
            lambda: any_of(g0, epsilon, ["v1"]),
            lambda: pair(g0, epsilon, "v1", "v2"),
            lambda: whole(g0, epsilon),
            lambda: engine.binary_evaluate(g0, epsilon),
            lambda: engine.explain(g0, epsilon),
        ):
            with pytest.raises(GraphError, match="epsilon-free"):
                call()
            assert engine.stats_snapshot() == before

    def test_empty_node_set(self, engine, g0):
        query = compile_query("a*", g0.alphabet)
        assert not engine.any_selects(g0, query, [])
        assert not engine.any_selects(g0, query, [], ephemeral=True)

    def test_query_alphabet_disjoint_from_graph(self, engine, g0):
        query = compile_query("z", ["a", "b", "c", "z"])
        assert engine.evaluate(g0, query) == frozenset()
        assert engine.evaluate(g0, compile_query("a.b.c+z", ["a", "b", "c", "z"])) == {
            "v1",
            "v3",
        }

    def test_isolated_nodes_and_label_free_graph(self, engine):
        graph = GraphDB(["a"])
        graph.add_nodes(["x", "y"])
        query = compile_query("a", ["a"])
        assert engine.evaluate(graph, query) == frozenset()
        assert engine.evaluate(graph, compile_query("a*", ["a"])) == {"x", "y"}


class TestRandomizedParity:
    LABELS = ["a", "b", "c"]

    def test_monadic_parity(self, engine):
        rng = random.Random(7)
        for _ in range(25):
            graph = random_graph(rng, self.LABELS)
            for expression in EXPRESSIONS:
                query = compile_query(expression, self.LABELS)
                assert engine.evaluate(graph, query) == reference_evaluate(graph, query)

    def test_selects_parity(self, engine):
        rng = random.Random(11)
        for _ in range(10):
            graph = random_graph(rng, self.LABELS)
            for expression in EXPRESSIONS:
                query = compile_query(expression, self.LABELS)
                for node in sorted(graph.nodes)[:6]:
                    assert engine.selects(graph, query, node) == reference_node_selects(
                        graph, query, node
                    )

    def test_any_selects_parity_both_modes(self, engine):
        rng = random.Random(13)
        for _ in range(10):
            graph = random_graph(rng, self.LABELS)
            subset = sorted(graph.nodes)[:4]
            for expression in EXPRESSIONS:
                query = compile_query(expression, self.LABELS)
                expected = reference_any_node_selects(graph, query, subset)
                assert engine.any_selects(graph, query, subset) == expected
                assert engine.any_selects(graph, query, subset, ephemeral=True) == expected

    def test_binary_parity(self, engine):
        rng = random.Random(17)
        for _ in range(10):
            graph = random_graph(rng, self.LABELS)
            for expression in EXPRESSIONS:
                query = compile_query(expression, self.LABELS)
                pairs = reference_binary_evaluate(graph, query)
                assert engine.binary_evaluate(graph, query) == pairs
                for origin in sorted(graph.nodes)[:4]:
                    for end in sorted(graph.nodes)[:4]:
                        expected = reference_pair_selects(graph, query, origin, end)
                        assert engine.pair_selects(graph, query, origin, end) == expected
                        assert (
                            engine.pair_selects(graph, query, origin, end, ephemeral=True)
                            == expected
                        )

    def test_wrapper_functions_match_reference(self, engine):
        # The query objects' evaluate() wrappers delegate to the engine they
        # are handed; their results must match the reference implementation.
        from repro.queries import BinaryPathQuery, PathQuery

        rng = random.Random(23)
        for _ in range(8):
            graph = random_graph(rng, self.LABELS)
            for expression in EXPRESSIONS:
                query = compile_query(expression, self.LABELS)
                assert PathQuery(query).evaluate(graph, engine=engine) == reference_evaluate(
                    graph, query
                )
                assert BinaryPathQuery(query).evaluate(
                    graph, engine=engine
                ) == reference_binary_evaluate(graph, query)


class TestTableAutomatonParity:
    """Kernel automata through the engine's plan path: a table must compile
    and evaluate exactly like the DFA it encodes.  (The ephemeral walks over
    tables and mid-merge folds are pinned, per stop rule, by the source x
    stop-rule matrix in ``test_walk_matrix.py``.)"""

    LABELS = ["a", "b", "c"]

    def test_compiled_table_plan_matches_dfa_plan(self, engine):
        from repro.automata.kernel import TableDFA

        rng = random.Random(37)
        for _ in range(6):
            graph = random_graph(rng, self.LABELS)
            for expression in EXPRESSIONS:
                dfa = compile_query(expression, self.LABELS)
                table, _ = TableDFA.from_dfa(dfa)
                assert engine.evaluate(graph, table) == engine.evaluate(graph, dfa)

    def test_table_fingerprint_shares_plan_cache(self, g0):
        from repro.automata.kernel import TableDFA

        dfa = compile_query("(a.b)*.c", self.LABELS)
        left, _ = TableDFA.from_dfa(dfa)
        right, _ = TableDFA.from_dfa(dfa)
        assert left.fingerprint() == right.fingerprint()
        for planner in ("auto", "off"):
            engine = QueryEngine(planner=planner)
            plan, _ = engine._resolve_plan(g0, left)
            # The raw DFA is int-coded at the door to the same table, so it
            # shares the entry too.
            assert engine._resolve_plan(g0, right)[0] is plan
            assert engine._resolve_plan(g0, dfa)[0] is plan
            assert engine.stats.plan_compilations == 1


class TestBatchEvaluation:
    def test_evaluate_many_matches_single_calls(self, g0):
        engine = QueryEngine()
        queries = [compile_query(expression, g0.alphabet) for expression in EXPRESSIONS]
        batched = engine.evaluate_many(g0, queries)
        assert batched == [reference_evaluate(g0, query) for query in queries]
        # One graph, one index build for the whole batch.
        assert engine.stats.index_builds == 1

    def test_evaluate_many_amortizes_caches(self, g0):
        engine = QueryEngine()
        queries = [compile_query(expression, g0.alphabet) for expression in EXPRESSIONS]
        engine.evaluate_many(g0, queries)
        evaluations_after_first = engine.stats.evaluations
        engine.evaluate_many(g0, queries)
        # The second batch is answered entirely from the result cache.
        assert engine.stats.evaluations == evaluations_after_first
