"""A strategy's proposal without a session state.

What ``Strategy.propose`` ran when it was called without a
``SessionState``: the unlabeled nodes as a fresh list in the graph's stable
order, and per-candidate ``oracles.informativeness`` walks.  It makes the
RNG calls the state-backed proposal makes on its kept ids, so with equal
seeds both propose the same node and leave the same RNG state.
"""

from __future__ import annotations

from oracles.informativeness import is_k_informative, uncovered_k_paths

from repro.graphdb.graph import GraphDB, Node
from repro.interactive.strategies import KInformativeRandomStrategy, RandomStrategy, Strategy
from repro.learning.sample import Sample


def stateless_propose(strategy: Strategy, graph: GraphDB, sample: Sample, *, k: int) -> Node | None:
    """``strategy.propose(graph, sample, k=k, state=...)``, on per-node walks."""
    rng = strategy._rng
    population = [node for node in graph.node_order if node not in sample.labeled]
    if isinstance(strategy, RandomStrategy):
        return rng.choice(population) if population else None
    if strategy._pool_size is None or len(population) <= strategy._pool_size:
        pool = population
        rng.shuffle(pool)
    else:
        pool = rng.sample(population, strategy._pool_size)
    if isinstance(strategy, KInformativeRandomStrategy):
        return next((node for node in pool if is_k_informative(graph, sample, node, k=k)), None)
    best_node, best_count = None, None
    for node in pool:  # kS: the fewest uncovered k-paths, the first of them on a tie
        count = uncovered_k_paths(graph, node, sample.negatives, k=k, limit=strategy.count_cap)
        if count and (best_count is None or count < best_count):
            best_node, best_count = node, count
            if count == 1:
                break
    return best_node
