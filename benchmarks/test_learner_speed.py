"""Kernel learner vs. the pre-refactor baseline: end-to-end learning speed.

The scenario the int-coded automata kernel exists for: Algorithm 1 run
end-to-end on the paper's smallest synthetic size (10k nodes, 3x edges,
20 labels), over the syn1-syn3 goal queries.  The pre-refactor path --
per-positive ``covered_by`` walks over dict adjacency, a ``DFA``-object
PTA, the copying red-blue merge loop and Moore canonicalization -- is
reproduced here from the ``reference_*`` implementations in
``tests/oracles``; the kernel path is plain :func:`learn_path_query` (CSR-backed SCP
coverage cache, ``TableDFA`` PTA, in-place ``MergeFold`` with undo,
Hopcroft canonicalization).

Two assertions pin the refactor's acceptance criteria: the learned queries
must be byte-identical (canonical-DFA equality) between the two paths, and
the kernel path must be at least 2x faster end-to-end.
"""

from __future__ import annotations

import random
import time

from oracles.generalize import prefix_tree_acceptor, reference_generalize_pta
from oracles.minimize import reference_canonical_dfa

from repro.datasets.synthetic import scale_free_graph
from repro.engine import QueryEngine
from repro.evaluation.static import draw_sample
from repro.evaluation.workloads import synthetic_queries
from repro.learning.learner import learn_path_query, learn_with_dynamic_k
from repro.learning.scp import smallest_consistent_path
from repro.queries.path_query import PathQuery

#: The paper's smallest synthetic size (Section 5.1): 10k nodes, 3x edges.
NODE_COUNT = 10_000
#: Fraction of nodes labeled per drawn sample (the static sweep's midrange).
LABELED_FRACTION = 0.03
#: Seed of the sample draw (fixed: both paths must see identical samples).
SAMPLE_SEED = 13


def _workload():
    graph = scale_free_graph(NODE_COUNT, alphabet_size=20, zipf_exponent=1.0, seed=29)
    queries = synthetic_queries(graph, alphabet_size=20)
    rng = random.Random(SAMPLE_SEED)
    sampler = QueryEngine()
    samples = {
        name: draw_sample(
            graph, query, labeled_fraction=LABELED_FRACTION, rng=rng, engine=sampler
        )
        for name, query in sorted(queries.items())
    }
    return graph, samples


def _legacy_learn(graph, sample, *, k, engine):
    """Algorithm 1 exactly as the pre-refactor main ran it.

    Object-level SCP selection (multi-source ``covered_by`` from scratch
    per candidate path), DFA-object PTA, copying red-blue generalization,
    Moore minimization -- wired to the same engine-backed merge guard the
    kernel path uses, so the measured difference is the automata kernel,
    not the graph index.
    """
    scps = {}
    for node in sample.positives:
        path = smallest_consistent_path(graph, node, sample.negatives, k=k)
        if path is not None:
            scps[node] = path
    if not scps:
        return None
    pta = prefix_tree_acceptor(graph.alphabet, scps.values())
    negatives = sample.negatives

    def violates(candidate):
        if not negatives:
            return False
        return engine.any_selects(graph, candidate, negatives, ephemeral=True)

    generalized = reference_generalize_pta(pta, violates, alphabet=graph.alphabet)
    canonical = reference_canonical_dfa(generalized)
    all(engine.selects(graph, canonical, node) for node in sample.positives)
    return PathQuery(canonical)


def _run_kernel(engine, graph, samples):
    return {
        name: learn_path_query(graph, sample, k=2, engine=engine)
        for name, sample in samples.items()
    }


def test_kernel_learner_beats_prerefactor(benchmark):
    graph, samples = _workload()

    # Separate engines with pre-built CSR indexes: both paths start warm and
    # neither inherits the other's plan/result caches.
    legacy_engine = QueryEngine()
    legacy_engine.index_for(graph)
    kernel_engine = QueryEngine()
    kernel_engine.index_for(graph)

    started = time.perf_counter()
    legacy_queries = {
        name: _legacy_learn(graph, sample, k=2, engine=legacy_engine)
        for name, sample in samples.items()
    }
    legacy_seconds = time.perf_counter() - started

    results = benchmark.pedantic(
        _run_kernel, args=(kernel_engine, graph, samples), rounds=1, iterations=1
    )
    kernel_seconds = benchmark.stats.stats.max

    # Byte-identical learned queries: PathQuery equality is canonical-DFA
    # structural equality, which is exactly the acceptance criterion.
    for name in samples:
        assert results[name].best_effort_query == legacy_queries[name], name

    speedup = legacy_seconds / kernel_seconds if kernel_seconds else float("inf")
    snapshot = kernel_engine.stats_snapshot()
    benchmark.extra_info["node_count"] = graph.node_count()
    benchmark.extra_info["edge_count"] = graph.edge_count()
    benchmark.extra_info["legacy_seconds"] = legacy_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["states_expanded"] = snapshot["states_expanded"]
    benchmark.extra_info["sample_sizes"] = {
        name: [len(sample.positives), len(sample.negatives)]
        for name, sample in samples.items()
    }

    print()
    print(
        f"workload: {len(samples)} samples ({LABELED_FRACTION:.0%} labeled) on "
        f"{graph.node_count()} nodes / {graph.edge_count()} edges"
    )
    print(f"pre-refactor learner:  {legacy_seconds:8.3f}s")
    print(f"kernel learner:        {kernel_seconds:8.3f}s  ({speedup:.1f}x)")

    # The acceptance criterion: the kernel-backed learner is at least 2x
    # faster end-to-end.  Local runs measure ~3-5x; the margin below 3x is
    # the noise allowance for shared CI runners.
    assert kernel_seconds * 2.0 <= legacy_seconds


def test_dynamic_k_workload_timing(benchmark):
    """The Section 5.1 dynamic-k procedure, timed end-to-end on the kernel.

    No legacy twin here (the fixed-k test carries the comparison); this
    records the dynamic-k envelope in the JSON artifact and pins that every
    workload sample still learns a non-null query.
    """
    graph, samples = _workload()
    engine = QueryEngine()
    engine.index_for(graph)

    def run():
        return {
            name: learn_with_dynamic_k(graph, sample, k_start=2, k_max=4, engine=engine)
            for name, sample in samples.items()
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, result in results.items():
        assert result.ok, f"dynamic-k abstained on {name}"
    total_learning = sum(result.elapsed for result in results.values())
    benchmark.extra_info["learning_seconds"] = total_learning
    benchmark.extra_info["ks"] = {name: result.k for name, result in results.items()}
    print()
    print(f"dynamic-k workload: {total_learning:.3f}s learning time across {len(results)} samples")
