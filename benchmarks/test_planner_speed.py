"""Planner vs. fixed pipeline: rewriting and adaptive dispatch must pay.

Two workloads, each answered by a ``planner="auto"`` engine and a
``planner="off"`` twin on the same graphs:

* **Monadic dead-branch queries** declared over an alphabet wider than the
  graph's labels.  The unrewritten automaton drags whole unreachable union
  arms into every backward product walk; the planner prunes them after
  alphabet restriction, so the planned engine must scan no more edges than
  the fixed one (and is measurably faster).
* **Sparse selective binary queries** (a rare label guards the initial
  state).  The fixed PR8 dispatch order forces the chunked numpy kernel
  whenever the backend resolves to numpy, paying dense visited masks the
  selectivity never fills; the cost model keeps the python kernel on this
  shape.  This is the acceptance gate of the planner PR: >= 1.3x with
  byte-identical answers.

Both engines run ``result_cache_size=1`` and alternate multiple queries, so
every timed evaluation re-runs its kernel (plan caches and CSR indexes stay
warm -- the planner's own latency is inside the timed path).
"""

from __future__ import annotations

import random
import time

from repro.engine import QueryEngine
from repro.graphdb import GraphDB
from repro.queries import PathQuery

#: Graph labels l0..l7; x0..x3 exist only in the declared query alphabet,
#: so every union arm entered through one is prunable.
GRAPH_LABELS = [f"l{i}" for i in range(8)]
WIDE_ALPHABET = GRAPH_LABELS + [f"x{i}" for i in range(4)]

MONADIC_EXPRESSIONS = [
    "(l1+l2)*.l3 + x0.(l4+l5)*.l6",
    "l0.(l1+l4)* + x1.(l2+l3)*.l5",
    "(l6+l7)*.l0 + x2.l1*.(l2+l7)",
]

#: l0 is rare (a handful of edges), so almost every source of an all-pairs
#: evaluation dies in its first layer.
BINARY_EXPRESSIONS = [
    "l0.l1*",
    "l0.(l2+l3).l4*",
]

ROUNDS = 3


def selective_graph(nodes: int, *, rare_edges: int = 8, seed: int = 17) -> GraphDB:
    """A sparse random graph where l0 is rare and l1..l7 are everywhere."""
    rng = random.Random(seed)
    graph = GraphDB(GRAPH_LABELS)
    for i in range(nodes):
        for _ in range(3):
            graph.add_edge(
                i, f"l{rng.randrange(1, 8)}", rng.randrange(nodes)
            )
    for _ in range(rare_edges):
        graph.add_edge(rng.randrange(nodes), "l0", rng.randrange(nodes))
    return graph


def _queries(expressions):
    return [PathQuery.parse(expression, WIDE_ALPHABET) for expression in expressions]


def _run_monadic(engine, graph, queries):
    return [engine.evaluate(graph, query) for query in queries for _ in range(ROUNDS)]


def _run_binary(engine, graph, queries):
    return [engine.binary_evaluate(graph, query) for query in queries for _ in range(ROUNDS)]


def test_planner_prunes_dead_branches(benchmark):
    graph = selective_graph(2500)
    queries = _queries(MONADIC_EXPRESSIONS)
    # Both sides on the python kernel: the only difference is the automaton
    # the planner compiled, so the work counters are directly comparable.
    planned = QueryEngine(planner="auto", backend="python", result_cache_size=1)
    fixed = QueryEngine(planner="off", backend="python", result_cache_size=1)

    # Warm indexes and plan caches on both sides.
    expected = _run_monadic(fixed, graph, queries)
    assert _run_monadic(planned, graph, queries) == expected

    fixed_before = fixed.stats_snapshot()
    started = time.perf_counter()
    for _ in range(ROUNDS):
        _run_monadic(fixed, graph, queries)
    fixed_seconds = (time.perf_counter() - started) / ROUNDS

    planned_before = planned.stats_snapshot()
    results = benchmark.pedantic(
        _run_monadic, args=(planned, graph, queries), rounds=ROUNDS, iterations=1
    )
    planned_seconds = benchmark.stats.stats.min
    assert results == expected

    # The planner may only ever remove kernel work, never add it.  Both
    # deltas span exactly ROUNDS workload executions.
    fixed_edges = fixed.stats_snapshot()["edges_scanned"] - fixed_before["edges_scanned"]
    planned_edges = (
        planned.stats_snapshot()["edges_scanned"] - planned_before["edges_scanned"]
    )
    assert planned_edges <= fixed_edges

    speedup = fixed_seconds / planned_seconds if planned_seconds else float("inf")
    benchmark.extra_info["fixed_seconds"] = fixed_seconds
    benchmark.extra_info["speedup"] = speedup
    print()
    print(
        f"monadic dead-branch workload: {len(queries)} queries x {ROUNDS} rounds on "
        f"{graph.node_count()} nodes / {graph.edge_count()} edges"
    )
    print(f"planner off: {fixed_seconds:8.4f}s/round")
    print(f"planner on:  {planned_seconds:8.4f}s/round  ({speedup:.2f}x)")
    # Pruned automata must not lose; the committed baseline records the
    # actual win and benchmarks/compare.py gates the ratio.
    assert speedup > 0.9


def test_planner_beats_forced_numpy_on_selective_binary(benchmark):
    # Larger than the monadic workload: the numpy kernel's dense visited
    # masks grow with n*k, which is exactly the asymmetry being measured.
    graph = selective_graph(5000)
    queries = _queries(BINARY_EXPRESSIONS)
    # backend="auto" on both: the fixed engine reproduces the historical
    # numpy-first dispatch, the planned one chooses per query from the cost
    # model.  This is the regression the adaptive dispatch exists to fix.
    planned = QueryEngine(planner="auto", backend="auto", result_cache_size=1)
    fixed = QueryEngine(planner="off", backend="auto", result_cache_size=1)
    assert fixed.backend == "numpy"

    expected = _run_binary(fixed, graph, queries)
    assert _run_binary(planned, graph, queries) == expected

    started = time.perf_counter()
    _run_binary(fixed, graph, queries)
    fixed_seconds = time.perf_counter() - started

    results = benchmark.pedantic(
        _run_binary, args=(planned, graph, queries), rounds=ROUNDS, iterations=1
    )
    planned_seconds = benchmark.stats.stats.min
    assert results == expected

    speedup = fixed_seconds / planned_seconds if planned_seconds else float("inf")
    benchmark.extra_info["fixed_seconds"] = fixed_seconds
    benchmark.extra_info["speedup"] = speedup
    print()
    print(
        f"selective binary workload: {len(queries)} queries x {ROUNDS} rounds on "
        f"{graph.node_count()} nodes / {graph.edge_count()} edges"
    )
    print(f"planner off (forced numpy dispatch): {fixed_seconds:8.4f}s")
    print(f"planner on (cost-chosen kernel):     {planned_seconds * ROUNDS:8.4f}s  ({speedup:.2f}x)")
    # The PR's acceptance criterion: byte-identical answers, >= 1.3x.
    assert speedup >= 1.3
