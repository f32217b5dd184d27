"""The vectorized whole-graph walk, asserted against its in-test twin.

* the numpy-vectorized ``evaluate_all`` must beat the pure-python oracle
  by at least 2x on a ~100k-edge whole-graph workload (results must be
  byte-identical -- the speedup is worthless otherwise);
* dispatching it through the engine facade may not cost more than 50%
  over the bare kernels.
"""

from __future__ import annotations

import time

from repro.datasets.synthetic import scale_free_graph
from repro.engine import executor
from repro.engine.engine import QueryEngine
from repro.engine.index import GraphIndex
from repro.regex.build import compile_table

#: ~100k edges: 33k nodes x 3 edges each (scale_free_graph's density).
VECTOR_NODES = 33_000
#: Star-heavy whole-graph queries -- wide BFS layers, where vectorized
#: frontier expansion actually has work to amortize.
EXPRESSION_SHAPES = [
    "{0}.({1}+{2})*",
    "({0}+{1})*.{3}",
    "{2}*.{4}",
    "({0}+{1}+{2})*",
    "{5}.({0}+{3})*.{1}",
]


def _workload(node_count: int, seed: int):
    graph = scale_free_graph(node_count, alphabet_size=8, zipf_exponent=1.0, seed=seed)
    labels = sorted(graph.labels())
    plans = [compile_table(shape.format(*labels), tuple(labels)) for shape in EXPRESSION_SHAPES]
    return graph, plans


def same_answers(first: list, second: list) -> bool:
    """Whether two lists of walk answers (id arrays) hold the same ids."""
    return [ids.tolist() for ids in first] == [ids.tolist() for ids in second]


def test_numpy_kernel_beats_python(benchmark):
    graph, plans = _workload(VECTOR_NODES, seed=13)
    index = GraphIndex.build(graph)

    # Warm both paths once (first-touch page faults, numpy import).
    python_results = [executor.evaluate_all(index, plan) for plan in plans]
    numpy_results = [executor.numpy_evaluate_all(index, plan) for plan in plans]
    assert same_answers(numpy_results, python_results)  # identical or the race is void

    started = time.perf_counter()
    python_results = [executor.evaluate_all(index, plan) for plan in plans]
    python_seconds = time.perf_counter() - started

    numpy_results = benchmark.pedantic(
        lambda: [executor.numpy_evaluate_all(index, plan) for plan in plans],
        rounds=3,
        iterations=1,
    )
    numpy_seconds = benchmark.stats.stats.min
    assert same_answers(numpy_results, python_results)

    speedup = python_seconds / numpy_seconds if numpy_seconds else float("inf")
    benchmark.extra_info["python_seconds"] = python_seconds
    benchmark.extra_info["numpy_seconds"] = numpy_seconds
    # The machine-independent metric benchmarks/compare.py gates on.
    benchmark.extra_info["speedup"] = speedup

    print()
    print(
        f"workload: {len(plans)} whole-graph queries on "
        f"{graph.node_count()} nodes / {graph.edge_count()} edges"
    )
    print(f"python kernel: {python_seconds:8.3f}s")
    print(f"numpy kernel:  {numpy_seconds:8.3f}s  ({speedup:.1f}x)")

    # The tentpole acceptance criterion: vectorization must win by >= 2x.
    assert speedup >= 2.0


def test_engine_dispatch_overhead_is_negligible(benchmark):
    """`backend="numpy"` through the engine facade must keep the kernel win.

    Guards the dispatch layer itself: if `_run_whole_graph` ever grew a
    per-call cost comparable to a kernel run (accidental re-resolution,
    counter contention), this would catch it.
    """
    graph, plans = _workload(VECTOR_NODES, seed=13)
    engine = QueryEngine(backend="numpy", result_cache_size=1)
    index = engine.index_for(graph)

    direct = [executor.numpy_evaluate_all(index, plan) for plan in plans]

    def through_engine():
        return [
            engine._run_whole_graph(index, plan, binary=False)[0] for plan in plans
        ]

    results = benchmark.pedantic(through_engine, rounds=3, iterations=1)
    assert same_answers(results, direct)

    started = time.perf_counter()
    [executor.numpy_evaluate_all(index, plan) for plan in plans]
    kernel_seconds = time.perf_counter() - started
    dispatch_seconds = benchmark.stats.stats.min
    benchmark.extra_info["kernel_seconds"] = kernel_seconds
    benchmark.extra_info["dispatch_seconds"] = dispatch_seconds
    # Dispatch may not cost more than 50% over the bare kernels.
    assert dispatch_seconds <= kernel_seconds * 1.5
