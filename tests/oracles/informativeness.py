"""The pre-kernel certainty checks of Lemma 4.1 on object automata."""

from __future__ import annotations

from oracles.operations import language_included, union

from repro.graphdb.graph import GraphDB, Node
from repro.graphdb.paths import paths_nfa
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
