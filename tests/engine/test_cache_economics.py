"""Cache economics: byte budgets, eviction accounting, cross-engine sharing.

The LRU caches gained two economic dimensions in the planner PR: an
optional **byte budget** (estimated entry sizes; LRU eviction past it, the
most recent entry always survives) and a process-wide **shared registry**
keyed by snapshot content identity, which lets every engine serving the
same bytes pay for a plan or a result exactly once.  A monadic answer is
charged exactly: the bytes of its id array.
"""

from __future__ import annotations

import sys

import pytest

from repro.datasets.synthetic import scale_free_graph
from repro.engine import QueryEngine
from repro.engine.cache import (
    LRUCache,
    clear_shared_caches,
    estimate_entry_bytes,
    shared_cache_keys,
    shared_caches,
)
from repro.graphdb import GraphDB
from repro.queries import PathQuery


@pytest.fixture(autouse=True)
def _isolated_registry():
    clear_shared_caches()
    yield
    clear_shared_caches()


def big_value(tag: int) -> frozenset:
    return frozenset((tag, i) for i in range(500))


class TestEstimateEntryBytes:
    def test_proportional_to_cardinality(self):
        small = estimate_entry_bytes(frozenset(range(10)))
        large = estimate_entry_bytes(frozenset(range(10_000)))
        assert large > small * 100

    def test_flat_buffers_are_exact_enough(self):
        assert estimate_entry_bytes(b"x" * 1000) >= 1000


class TestByteBudget:
    def test_budget_evicts_lru_entries(self):
        cache = LRUCache(100, budget_bytes=estimate_entry_bytes(big_value(0)) * 3)
        for tag in range(10):
            cache.put(tag, big_value(tag))
        assert len(cache) < 10
        assert cache.evictions > 0
        assert cache.size_bytes <= cache.budget_bytes

    def test_most_recent_entry_always_survives(self):
        cache = LRUCache(100, budget_bytes=1)  # nothing fits
        cache.put("huge", big_value(1))
        assert "huge" in cache
        cache.put("huger", big_value(2))
        assert "huger" in cache and "huge" not in cache
        assert len(cache) == 1

    def test_replacing_a_key_does_not_double_count(self):
        cache = LRUCache(100, budget_bytes=1 << 30)
        cache.put("k", big_value(1))
        first = cache.size_bytes
        cache.put("k", big_value(2))
        assert cache.size_bytes == pytest.approx(first, rel=0.2)
        assert len(cache) == 1

    def test_clear_resets_byte_accounting(self):
        cache = LRUCache(100, budget_bytes=1 << 30)
        cache.put("k", big_value(1))
        cache.clear()
        assert cache.size_bytes == 0 and len(cache) == 0

    def test_no_budget_skips_size_accounting(self):
        cache = LRUCache(100)
        cache.put("k", big_value(1))
        assert cache.size_bytes == 0
        assert cache.metrics()["budget_bytes"] is None

    def test_metrics_expose_the_economics(self):
        cache = LRUCache(4, budget_bytes=1 << 20)
        cache.put("k", "v")
        cache.get("k")
        cache.get("absent")
        metrics = cache.metrics()
        assert set(metrics) == {
            "capacity",
            "size",
            "hits",
            "misses",
            "hit_rate",
            "evictions",
            "budget_bytes",
            "size_bytes",
        }
        assert metrics["hits"] == 1 and metrics["misses"] == 1

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(4, budget_bytes=0)


class TestAnswerBytes:
    """The result cache charges an answer the id array it holds."""

    def test_size_bytes_is_the_id_arrays_and_eviction_still_happens(self):
        graph = scale_free_graph(3000, alphabet_size=6, zipf_exponent=1.0, seed=7)
        labels = sorted(graph.labels())
        engine = QueryEngine(cache_budget_bytes=64 * 1024)
        cache = engine.result_cache
        for first in labels:
            for second in labels:
                query = PathQuery.parse(f"{first}*.{second}", graph.alphabet)
                answer = engine.answer(graph, query)
                assert sys.getsizeof(answer) >= len(answer) * answer.ids.itemsize
        assert cache.evictions > 0 and cache.size_bytes <= cache.budget_bytes
        held = list(cache._data.items())
        assert len(held) > 1
        real = sum(
            estimate_entry_bytes(key) + len(answer) * answer.ids.itemsize
            for key, answer in held
        )
        assert cache.size_bytes == pytest.approx(real, rel=0.1)

    def test_reading_names_does_not_grow_the_cached_answer(self):
        graph = scale_free_graph(500, alphabet_size=4, seed=3)
        engine = QueryEngine(cache_budget_bytes=1 << 20)
        query = PathQuery.parse(" + ".join(sorted(graph.labels())), graph.alphabet)
        answer = engine.answer(graph, query)
        charged, size = engine.result_cache.size_bytes, sys.getsizeof(answer)
        assert engine.evaluate(graph, query) == answer.node_set() and len(answer) > 100
        assert engine.answer(graph, query) is answer  # a hit: the cached object
        assert sys.getsizeof(answer) == size and engine.result_cache.size_bytes == charged

    def test_an_evaluated_answer_is_charged_its_name_set_too(self):
        graph = scale_free_graph(500, alphabet_size=4, seed=3)
        engine = QueryEngine(cache_budget_bytes=1 << 20)
        query = PathQuery.parse(" + ".join(sorted(graph.labels())), graph.alphabet)
        names = engine.evaluate(graph, query)
        answer = engine.answer(graph, query)  # a hit: the cached object
        assert answer.node_set() is names and engine.evaluate(graph, query) is names
        assert sys.getsizeof(answer) > sys.getsizeof(answer.ids) + sys.getsizeof(names)
        keys = engine.result_cache.size_bytes - sys.getsizeof(answer)
        assert 0 < keys < sys.getsizeof(names)


class TestSharedRegistry:
    def test_same_content_key_shares_one_pair(self):
        first = shared_caches(("rgz", "/tmp/a.rgz", 123))
        second = shared_caches(("rgz", "/tmp/a.rgz", 123))
        assert first[0] is second[0] and first[1] is second[1]
        assert shared_caches(("rgz", "/tmp/b.rgz", 999))[0] is not first[0]
        assert len(shared_cache_keys()) == 2

    def test_first_caller_fixes_the_capacities(self):
        plan_cache, result_cache = shared_caches(
            ("k",), plan_capacity=7, result_capacity=9, budget_bytes=1 << 20
        )
        again_plan, again_result = shared_caches(
            ("k",), plan_capacity=100, result_capacity=100, budget_bytes=None
        )
        assert again_plan is plan_cache and again_result is result_cache
        assert again_plan.capacity == 7
        assert again_result.capacity == 9
        assert again_result.budget_bytes == 1 << 20

    def test_adopting_engines_share_plans_and_results(self):
        graph = GraphDB(["a"])
        graph.add_edge("x", "a", "y")
        query = PathQuery.parse("a", graph.alphabet)
        first = QueryEngine()
        second = QueryEngine()
        first.adopt_shared_caches(("content", 1))
        second.adopt_shared_caches(("content", 1))
        assert first.plan_cache is second.plan_cache
        assert first.result_cache is second.result_cache
        expected = first.evaluate(graph, query)
        hits_before = second.result_cache.hits
        assert second.evaluate(graph, query) == expected
        assert second.result_cache.hits > hits_before
        # The sibling compiled nothing: the shared plan cache already had it.
        assert second.stats.plan_compilations == 0

    def test_snapshot_content_identity_spans_workspaces(self, tmp_path):
        # Two independent opens of the same snapshot mint distinct process
        # uids but identical content identities, so adopted shared caches
        # serve one open's results to the other.
        from repro.api import Workspace
        from repro.datasets import geo_graph

        path = tmp_path / "geo.rgz"
        Workspace(geo_graph()).save_snapshot(path)
        first = Workspace.open_snapshot(path)
        second = Workspace.open_snapshot(path)
        uid = first.graph.content_uid
        assert uid is not None and uid == second.graph.content_uid
        first.engine.adopt_shared_caches(uid)
        second.engine.adopt_shared_caches(uid)
        expected = first.query("(tram+bus)*.cinema").selected
        hits_before = second.engine.result_cache.hits
        assert second.query("(tram+bus)*.cinema").selected == expected
        assert second.engine.result_cache.hits > hits_before

    def test_adoption_rewires_the_stats_snapshot(self):
        engine = QueryEngine()
        engine.adopt_shared_caches(("content", 2))
        graph = GraphDB(["a"])
        graph.add_edge("x", "a", "y")
        engine.evaluate(graph, PathQuery.parse("a", graph.alphabet))
        snapshot = engine.stats.snapshot()
        assert snapshot["plan_cache_misses"] == engine.plan_cache.misses
        assert snapshot["result_cache_misses"] == engine.result_cache.misses
