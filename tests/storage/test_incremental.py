"""Incremental index maintenance: registry-tail refresh parity and cache behavior.

The storage layer's contract is that CSR arrays are *canonical*: a
refreshed index must be byte-identical to a freshly built one, whatever
interleaving of node/edge insertions produced the delta.  These tests pin
that with randomized mutation sequences, and check the engine-level
behavior on top: refreshes instead of rebuilds, result-cache invalidation
across deltas, and the fallbacks (another graph, oversized delta).
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.engine import GraphIndex, QueryEngine
from repro.graphdb import GraphDB
from repro.queries import PathQuery


def assert_byte_identical(left: GraphIndex, right: GraphIndex) -> None:
    assert left.nodes_by_id == right.nodes_by_id
    assert left.labels_by_id == right.labels_by_id
    assert left.node_ids == right.node_ids
    assert left.label_ids == right.label_ids
    assert left.edge_count == right.edge_count
    for lid in range(right.num_labels):
        assert left.fwd_offsets[lid].tobytes() == right.fwd_offsets[lid].tobytes()
        assert left.fwd_targets[lid].tobytes() == right.fwd_targets[lid].tobytes()
        assert left.bwd_offsets[lid].tobytes() == right.bwd_offsets[lid].tobytes()
        assert left.bwd_targets[lid].tobytes() == right.bwd_targets[lid].tobytes()


def random_graph(rng: random.Random, nodes: int = 60, edges: int = 150) -> GraphDB:
    graph = GraphDB()
    for _ in range(edges):
        graph.add_edge(
            f"n{rng.randrange(nodes)}",
            f"l{rng.randrange(5)}",
            f"n{rng.randrange(nodes)}",
        )
    return graph


class TestRefreshParity:
    def test_single_edge(self):
        graph = GraphDB()
        graph.add_edge("a", "l", "b")
        index = GraphIndex.build(graph)
        graph.add_edge("b", "l", "c")
        assert_byte_identical(index.refresh(graph, max_ratio=10.0), GraphIndex.build(graph))

    def test_new_label_appended(self):
        graph = GraphDB()
        graph.add_edge("a", "l", "b")
        index = GraphIndex.build(graph)
        graph.add_edge("a", "brand-new-label", "b")
        refreshed = index.refresh(graph, max_ratio=10.0)
        assert refreshed.labels_by_id == ("l", "brand-new-label")
        assert_byte_identical(refreshed, GraphIndex.build(graph))

    def test_isolated_nodes_appended(self):
        graph = GraphDB()
        graph.add_edge("a", "l", "b")
        index = GraphIndex.build(graph)
        graph.add_node("lonely")
        graph.add_node("also-lonely")
        refreshed = index.refresh(graph, max_ratio=10.0)
        assert refreshed.nodes_by_id == ("a", "b", "lonely", "also-lonely")
        assert_byte_identical(refreshed, GraphIndex.build(graph))

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_mutation_sequences(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng)
        index = GraphIndex.build(graph)
        # Several rounds of interleaved mutations, refreshing each round
        # from the previous round's index (refresh-of-refresh).
        for _ in range(4):
            for _ in range(rng.randrange(1, 12)):
                action = rng.random()
                if action < 0.2:
                    graph.add_node(f"x{rng.randrange(200)}")
                elif action < 0.3:
                    graph.add_edge(
                        f"n{rng.randrange(80)}",
                        f"fresh{rng.randrange(3)}",
                        f"x{rng.randrange(200)}",
                    )
                else:
                    graph.add_edge(
                        f"n{rng.randrange(80)}", f"l{rng.randrange(5)}", f"n{rng.randrange(80)}"
                    )
            refreshed = index.refresh(graph, max_ratio=10.0)
            assert refreshed is not None
            assert_byte_identical(refreshed, GraphIndex.build(graph))
            index = refreshed

    def test_duplicate_adds_do_not_appear_in_delta(self):
        graph = GraphDB()
        graph.add_edge("a", "l", "b")
        index = GraphIndex.build(graph)
        graph.add_edge("a", "l", "b")  # no-op
        graph.add_node("a")  # no-op
        assert index.refresh(graph) is index  # version unchanged -> same index
        graph.add_edge("a", "l", "c")
        assert_byte_identical(index.refresh(graph, max_ratio=10.0), GraphIndex.build(graph))


class TestRefreshFallbacks:
    def test_different_graph_refused(self):
        one, other = GraphDB(), GraphDB()
        one.add_edge("a", "l", "b")
        other.add_edge("a", "l", "b")
        assert GraphIndex.build(one).refresh(other) is None

    def test_oversized_delta_refused(self):
        graph = GraphDB()
        for i in range(50):
            graph.add_edge(f"n{i}", "l", f"n{i + 1}")
        index = GraphIndex.build(graph)
        for i in range(40):
            graph.add_edge(f"m{i}", "l", f"m{i + 1}")
        # 120 events > max(16, 0.25 * 50): the heuristic demands a rebuild.
        assert index.refresh(graph, max_ratio=0.25) is None
        assert index.refresh(graph, max_ratio=10.0) is not None

    def test_graph_without_registries_refused(self):
        # Same identity, newer version, but no insertion-ordered registries
        # to read the delta from: only a rebuild can follow it.
        graph = GraphDB()
        graph.add_edge("a", "l", "b")
        index = GraphIndex.build(graph)
        stand_in = SimpleNamespace(uid=graph.uid, version=graph.version + 1)
        assert index.refresh(stand_in) is None


class TestEngineIntegration:
    def test_engine_refreshes_instead_of_rebuilding(self):
        engine = QueryEngine()
        graph = GraphDB(["l"])
        for i in range(30):
            graph.add_edge(f"n{i}", "l", f"n{i + 1}")
        query = PathQuery.parse("l.l", ["l"])
        engine.evaluate(graph, query)
        assert engine.stats.index_builds == 1
        graph.add_edge("n0", "l", "n5")
        engine.evaluate(graph, query)
        assert engine.stats.index_builds == 1
        assert engine.stats.index_refreshes == 1

    def test_engine_rebuilds_when_refresh_declines(self):
        # There is no switch: the engine always asks for a refresh, and
        # rebuilds only when the index declines (here: a delta past the
        # break-even share of the indexed edges, the default 1.0, and past
        # the 16-event floor).
        engine = QueryEngine()
        graph = GraphDB(["l"])
        graph.add_edge("a", "l", "b")
        query = PathQuery.parse("l", ["l"])
        engine.evaluate(graph, query)
        for i in range(20):
            graph.add_edge(f"n{i}", "l", f"n{i + 1}")
        assert engine.evaluate(graph, query) == {"a"} | {f"n{i}" for i in range(20)}
        assert engine.stats.index_builds == 2
        assert engine.stats.index_refreshes == 0
        assert_byte_identical(engine.index_for(graph), GraphIndex.build(graph))

    def test_result_caches_invalidate_across_deltas(self):
        engine = QueryEngine()
        graph = GraphDB(["l"])
        graph.add_edge("a", "l", "b")
        query = PathQuery.parse("l.l", ["l"])
        assert engine.evaluate(graph, query) == frozenset()
        # Served from cache on repeat.
        assert engine.evaluate(graph, query) == frozenset()
        assert engine.result_cache.hits == 1
        graph.add_edge("b", "l", "c")
        # The refreshed index carries the new version: the stale cached
        # result must not be returned.
        assert engine.evaluate(graph, query) == {"a"}
        graph.add_edge("c", "l", "d")
        assert engine.evaluate(graph, query) == {"a", "b"}
        assert engine.stats.index_refreshes == 2

    def test_selects_and_any_selects_after_refresh(self):
        engine = QueryEngine()
        graph = GraphDB(["l", "m"])
        graph.add_edge("a", "l", "b")
        query = PathQuery.parse("l.m", ["l", "m"])
        assert not engine.selects(graph, query, "a")
        graph.add_edge("b", "m", "c")
        assert engine.selects(graph, query, "a")
        assert engine.any_selects(graph, query, ["a", "b"])
        assert engine.stats.index_refreshes >= 1

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_queries_interleaved_with_mutations(self, seed):
        rng = random.Random(1000 + seed)
        graph = random_graph(rng, nodes=40, edges=80)
        incremental = QueryEngine()
        expressions = ["l0.l1", "(l0+l2)*.l3", "l4*", "l1.l1"]
        for _ in range(20):
            if rng.random() < 0.6:
                graph.add_edge(
                    f"n{rng.randrange(50)}", f"l{rng.randrange(5)}", f"n{rng.randrange(50)}"
                )
            else:
                graph.add_node(f"x{rng.randrange(30)}")
            query = PathQuery.parse(rng.choice(expressions), graph.alphabet)
            rebuilt = QueryEngine()
            rebuilt.adopt_index(graph, GraphIndex.build(graph))
            assert incremental.evaluate(graph, query) == rebuilt.evaluate(graph, query)
        assert incremental.stats.index_refreshes > 0
        assert incremental.stats.index_builds == 1


#: One mutation: ("node", name) or ("edge", origin, label, end), over a few
#: names so that duplicate nodes and edges are common.
_NAMES = st.sampled_from("abcde")
_MUTATIONS = st.one_of(
    st.tuples(st.just("node"), _NAMES),
    st.tuples(st.just("edge"), _NAMES, st.sampled_from("lm"), _NAMES),
)


class TestRegistryDelta:
    @given(st.lists(_MUTATIONS, max_size=40))
    def test_version_counts_registered_nodes_and_edges(self, mutations):
        graph = GraphDB()
        for mutation in mutations:
            if mutation[0] == "node":
                graph.add_node(mutation[1])
            else:
                graph.add_edge(*mutation[1:])
            assert graph.version == graph.node_count() + graph.edge_count()

    def test_refresh_past_the_old_log_cap_matches_build(self):
        # More than 65,536 mutations since the index: the capped delta log
        # the registries replaced could not reach back this far.
        graph = GraphDB()
        graph.add_edge("a", "l", "b")
        index = GraphIndex.build(graph)
        for i in range(35_000):
            graph.add_edge(f"n{i}", "l" if i % 3 else "m", f"n{i + 1}")
        assert graph.version - index.graph_version > 65_536
        refreshed = index.refresh(graph, max_ratio=1e6)
        assert refreshed is not None
        assert_byte_identical(refreshed, GraphIndex.build(graph))

    def test_pickled_graph_keeps_its_registries_under_a_fresh_uid(self):
        import pickle

        graph = GraphDB()
        graph.add_edge("a", "l", "b")
        index = GraphIndex.build(graph)
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.uid != graph.uid
        assert tuple(clone.iter_edges()) == tuple(graph.iter_edges())
        assert clone.node_order == graph.node_order
        assert clone.version == graph.version
        clone.add_edge("b", "l", "c")
        # The clone has a fresh uid, so the old index refuses to refresh it...
        assert index.refresh(clone) is None
        # ...but the clone's own index refreshes from its registries' tails.
        clone_index = GraphIndex.build(clone)
        clone.add_edge("c", "l", "d")
        assert_byte_identical(clone_index.refresh(clone, max_ratio=10.0), GraphIndex.build(clone))
