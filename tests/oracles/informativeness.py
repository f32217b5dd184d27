"""Certainty and k-informativeness on object automata and dict adjacency.

The certainty checks of Lemma 4.1 as inclusions of object NFAs (the
library's are ``NegativeCoverage.includes`` walks), and the per-node
k-informativeness walks that ``SessionState``'s batched verdicts and counts
are pinned against.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice

from oracles.operations import language_included, union
from oracles.paths import covered_by, enumerate_paths, paths_nfa

from repro.graphdb.graph import GraphDB, Node
from repro.learning.sample import Sample


def reference_is_certain_positive(graph: GraphDB, sample: Sample, node: Node) -> bool:
    """The pre-kernel certain-positive check (object automata; parity oracle)."""
    if not sample.positives:
        return False
    node_paths = paths_nfa(graph, node)
    if sample.negatives:
        cover = union(paths_nfa(graph, sample.negatives), node_paths)
    else:
        cover = node_paths
    for positive in sample.positives:
        if language_included(paths_nfa(graph, positive), cover):
            return True
    return False


def reference_is_certain_negative(graph: GraphDB, sample: Sample, node: Node) -> bool:
    """The pre-kernel certain-negative check (object automata; parity oracle)."""
    if not sample.negatives:
        return False
    return language_included(
        paths_nfa(graph, node), paths_nfa(graph, sample.negatives)
    )


def uncovered_k_paths(
    graph: GraphDB, node: Node, negatives: Iterable[Node], *, k: int, limit: int | None = None
) -> int:
    """How many paths of ``node`` (length <= k) no negative covers, stopping at ``limit``."""
    negatives = frozenset(negatives)
    paths = enumerate_paths(graph, node, max_length=k)
    return sum(1 for _ in islice((p for p in paths if not covered_by(graph, p, negatives)), limit))


def is_k_informative(graph: GraphDB, sample: Sample, node: Node, *, k: int) -> bool:
    """Unlabeled, with a path of length <= ``k`` no negative covers (Section 4.2)."""
    if node in sample.labeled:
        return False
    return uncovered_k_paths(graph, node, sample.negatives, k=k, limit=1) > 0


def k_informative_nodes(
    graph: GraphDB, sample: Sample, *, k: int, candidates: Iterable[Node] | None = None
) -> Iterator[Node]:
    """The k-informative nodes among ``candidates`` (default: all nodes)."""
    pool = graph.nodes if candidates is None else candidates
    return (node for node in pool if is_k_informative(graph, sample, node, k=k))
