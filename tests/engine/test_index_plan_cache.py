"""Unit tests of the engine internals: CSR index, plans (kernel tables), caches."""

from __future__ import annotations

import pytest
from oracles.graph import successors as oracle_successors

from repro.automata.alphabet import Alphabet
from repro.automata.kernel import TableDFA
from repro.engine import GraphIndex, LRUCache, QueryEngine
from repro.engine.executor import bind
from repro.graphdb import GraphDB
from repro.queries import PathQuery


class TestGraphIndex:
    def test_csr_matches_adjacency(self, g0):
        index = GraphIndex.build(g0)
        assert index.num_nodes == g0.node_count()
        for node in g0.nodes:
            node_id = index.node_ids[node]
            for label in g0.labels():
                label_id = index.label_ids[label]
                successors = {
                    index.nodes_by_id[t] for t in index.successors_slice(label_id, node_id)
                }
                assert successors == oracle_successors(g0, node, label)
                offsets = index.bwd_offsets[label_id]
                predecessors = {
                    index.nodes_by_id[t]
                    for t in index.bwd_targets[label_id][offsets[node_id] : offsets[node_id + 1]]
                }
                assert predecessors == {o for o, a, e in g0.edges if (a, e) == (label, node)}

    def test_version_tracking(self):
        graph = GraphDB(["a"])
        graph.add_edge("x", "a", "y")
        index = GraphIndex.build(graph)
        assert index.is_current(graph)
        graph.add_edge("y", "a", "x")
        assert not index.is_current(graph)
        assert GraphIndex.build(graph).is_current(graph)

    def test_version_idempotent_mutations(self):
        graph = GraphDB(["a"])
        graph.add_edge("x", "a", "y")
        version = graph.version
        graph.add_edge("x", "a", "y")  # duplicate edge: no state change
        graph.add_node("x")  # existing node: no state change
        assert graph.version == version

    def test_uids_are_unique(self):
        graph = GraphDB(["a"])
        graph.add_edge("x", "a", "y")
        assert graph.uid != graph.copy().uid

    def test_deepcopy_and_pickle_mint_fresh_uids(self):
        import copy
        import pickle

        graph = GraphDB(["a"])
        graph.add_edge(0, "a", 1)
        clone = copy.deepcopy(graph)
        assert clone.uid != graph.uid
        restored = pickle.loads(pickle.dumps(graph))
        assert restored.uid != graph.uid
        assert restored.edges == graph.edges

    def test_deepcopy_does_not_alias_result_cache(self):
        # Regression: a deepcopied graph sharing the original's uid made the
        # engine serve one graph's cached results for the other.
        import copy

        engine = QueryEngine()
        graph = GraphDB(["a"])
        graph.add_edge(0, "a", 1)
        clone = copy.deepcopy(graph)
        graph.add_edge(1, "a", 2)
        clone.add_edge(5, "a", 0)  # same version counter, different content
        query = PathQuery.parse("a.a", ["a"])
        assert engine.evaluate(graph, query) == {0}
        assert engine.evaluate(clone, query) == {5}

    def test_empty_graph(self):
        graph = GraphDB(["a"])
        index = GraphIndex.build(graph)
        assert index.num_nodes == 0
        assert index.edge_count == 0


class TestCompiledPlan:
    """A plan is its table: what ``CompiledPlan`` used to carry (fingerprint,
    emptiness flags, predecessor tables, the symbol binding) is read off the
    kernel ``TableDFA`` and the rows :func:`bind` makes of it."""

    def test_fingerprint_shared_by_equal_queries(self):
        left = PathQuery.parse("a.b*", ["a", "b"])
        right = PathQuery.parse("a.b*", ["a", "b"])
        assert left is not right
        assert left.table.fingerprint() == right.table.fingerprint()

    def test_fingerprint_distinguishes_languages(self):
        one = PathQuery.parse("a", ["a", "b"]).table
        other = PathQuery.parse("b", ["a", "b"]).table
        assert one.fingerprint() != other.fingerprint()

    def test_empty_word_and_empty_language_flags(self):
        graph = GraphDB(["a"])
        graph.add_edge("x", "a", "y")
        index = GraphIndex.build(graph)
        star = bind(index, PathQuery.parse("a*", ["a"]).table)
        assert star.accepts_empty
        assert not star.empty
        empty = bind(index, TableDFA.blank(Alphabet(["a"]), 1))
        assert empty.empty

    def test_delta_round_trip(self):
        graph = GraphDB(["a", "b"])
        graph.add_edge("x", "a", "y")
        graph.add_edge("y", "b", "x")
        index = GraphIndex.build(graph)
        moves = bind(index, PathQuery.parse("(a.b)*.a", ["a", "b"]).table)
        # The backward rows invert the forward rows.
        forward = {
            (state, label_id, target)
            for state in range(moves.span)
            for label_id, targets, _ in moves.rows[state]
            for target in targets
        }
        backward = {
            (source, label_id, state)
            for state, row in enumerate(moves.reverse_rows())
            for label_id, sources, _ in row
            for source in sources
        }
        assert forward == backward and forward

    def test_bind_symbols_maps_missing_labels_to_minus_one(self):
        table = PathQuery.parse("a.z", ["a", "z"]).table
        binding = table.bind_labels({"a": 0, "b": 1})
        assert binding[table.alphabet.index("a")] == 0
        assert binding[table.alphabet.index("z")] == -1


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_hit_miss_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("absent")
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestEngineCaching:
    def test_plan_cache_reused_across_equal_queries(self, g0):
        engine = QueryEngine()
        engine.evaluate(g0, PathQuery.parse("(a.b)*.c", g0.alphabet))
        compilations = engine.stats.plan_compilations
        engine.evaluate(g0, PathQuery.parse("(a.b)*.c", g0.alphabet))
        assert engine.stats.plan_compilations == compilations

    def test_result_cache_invalidated_by_mutation(self):
        engine = QueryEngine()
        graph = GraphDB(["a"])
        graph.add_edge("x", "a", "y")
        query = PathQuery.parse("a.a", ["a"])
        assert engine.evaluate(graph, query) == frozenset()
        graph.add_edge("y", "a", "z")
        # The version bump must invalidate the cached empty result; the
        # stale index is refreshed from the mutation delta, not rebuilt.
        assert engine.evaluate(graph, query) == {"x"}
        assert engine.stats.index_builds == 1
        assert engine.stats.index_refreshes == 1

    def test_selects_answers_from_cached_evaluation(self, g0):
        engine = QueryEngine()
        query = PathQuery.parse("(a.b)*.c", g0.alphabet)
        selected = engine.evaluate(g0, query)
        evaluations = engine.stats.evaluations
        for node in g0.nodes:
            assert engine.selects(g0, query, node) == (node in selected)
        # Membership came from the result cache: no kernel runs.
        assert engine.stats.evaluations == evaluations

    def test_stats_snapshot_keys(self, g0):
        engine = QueryEngine()
        engine.evaluate(g0, PathQuery.parse("a", g0.alphabet))
        snapshot = engine.stats_snapshot()
        for key in (
            "evaluations",
            "index_builds",
            "plan_compilations",
            "states_expanded",
            "edges_scanned",
            "plan_cache_hits",
            "result_cache_misses",
        ):
            assert key in snapshot

    def test_clear_caches(self, g0):
        engine = QueryEngine()
        engine.evaluate(g0, PathQuery.parse("a", g0.alphabet))
        engine.clear_caches()
        assert len(engine.plan_cache) == 0
        assert len(engine.result_cache) == 0
