"""Engine vs. reference: repeated query workload on a 10k-node synthetic graph.

The scenario the engine subsystem exists for: one (static) graph serving a
workload in which the same queries come back repeatedly.  The reference
product construction re-derives everything from hash-set adjacency on every
call; the engine builds the CSR index once, compiles each distinct query
once, and serves repeats from the versioned result cache.  The assertion is
the acceptance criterion of the subsystem: the cached/batched engine path
must beat the uncached path on the same workload (it is typically an order
of magnitude faster).
"""

from __future__ import annotations

import time

from oracles.automata import dfa_of
from oracles.product import reference_evaluate

from repro.datasets.synthetic import scale_free_graph
from repro.engine import QueryEngine
from repro.evaluation.workloads import synthetic_queries

#: The paper's smallest synthetic size (Section 5.1): 10k nodes, 3x edges.
NODE_COUNT = 10_000
#: How many times each query recurs in the simulated workload.
ROUNDS = 3


def _workload():
    graph = scale_free_graph(NODE_COUNT, alphabet_size=20, zipf_exponent=1.0, seed=29)
    queries = list(synthetic_queries(graph, alphabet_size=20).values())
    return graph, queries


def _run_engine(engine, graph, queries):
    results = []
    for _ in range(ROUNDS):
        results.append(engine.evaluate_many(graph, queries))
    return results


def test_engine_beats_uncached_product(benchmark):
    graph, queries = _workload()

    dfas = [dfa_of(query.table) for query in queries]
    started = time.perf_counter()
    reference_results = [[reference_evaluate(graph, dfa) for dfa in dfas] for _ in range(ROUNDS)]
    reference_seconds = time.perf_counter() - started

    engine = QueryEngine()
    # Round 1 is cold (index build + plan compilation + kernels), round 2 is
    # served from the result cache.
    engine_results = benchmark.pedantic(
        _run_engine, args=(engine, graph, queries), rounds=2, iterations=1
    )
    cold_seconds = benchmark.stats.stats.max
    warm_seconds = benchmark.stats.stats.min

    assert engine_results == reference_results

    snapshot = engine.stats_snapshot()
    cold_speedup = reference_seconds / cold_seconds if cold_seconds else float("inf")
    warm_speedup = reference_seconds / warm_seconds if warm_seconds else float("inf")
    benchmark.extra_info["reference_seconds"] = reference_seconds
    benchmark.extra_info["cold_speedup"] = cold_speedup
    benchmark.extra_info["warm_speedup"] = warm_speedup
    # The machine-independent metric benchmarks/compare.py gates on.
    benchmark.extra_info["speedup"] = cold_speedup
    benchmark.extra_info["result_cache_hits"] = snapshot["result_cache_hits"]

    print()
    print(
        f"workload: {len(queries)} queries x {ROUNDS} rounds on "
        f"{graph.node_count()} nodes / {graph.edge_count()} edges"
    )
    print(f"uncached product path:  {reference_seconds:8.3f}s")
    print(f"engine, cold (index+compile+evaluate): {cold_seconds:8.3f}s  ({cold_speedup:.1f}x)")
    print(f"engine, warm (result cache):           {warm_seconds:8.6f}s  ({warm_speedup:.0f}x)")
    print(
        f"engine stats: {snapshot['index_builds']} index build(s), "
        f"{snapshot['plan_compilations']} plan compilation(s), "
        f"{snapshot['result_cache_hits']} result-cache hit(s)"
    )

    # One index build and one plan per distinct query; every repeat round is
    # answered from the result cache.
    assert snapshot["index_builds"] == 1
    assert snapshot["plan_compilations"] == len(queries)
    assert snapshot["result_cache_hits"] >= (ROUNDS - 1) * len(queries)
    # The acceptance criterion: cached/batched beats uncached.  The warm
    # round must beat the reference outright; the cold round normally does
    # too (~3x), but it gets a generous noise allowance so a GC pause or CPU
    # spike on a shared CI runner cannot fail the suite.
    assert warm_seconds < reference_seconds
    assert cold_seconds < reference_seconds * 2.0
