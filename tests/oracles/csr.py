"""Reference CSR rows, read off the graph's own adjacency sets.

For every label in the graph's first-use order and every node in its
insertion order: the ascending ids of ``oracles.graph.successors(graph,
node, label)`` and
of the origins of the edges into ``node`` (``oracles.graph.origins``), laid
out as offsets and a flat targets array.  No packed codes, no sort of the
edge set, no counting: the executable specification of the canonical form
that ``GraphIndex.build``, ``GraphIndex.refresh`` and the bulk ingester must
each produce byte for byte.
"""

from __future__ import annotations

from array import array
from functools import partial

from oracles.graph import origins, successors
from repro.graphdb.graph import GraphDB


def reference_csr(graph: GraphDB) -> list[tuple[array, array, array, array]]:
    """Per label, ``(fwd_offsets, fwd_targets, bwd_offsets, bwd_targets)``."""
    nodes = graph.node_order
    node_ids = {node: position for position, node in enumerate(nodes)}

    def rows(neighbours, label: str) -> tuple[array, array]:
        offsets, targets = array("l", [0]), array("l")
        for node in nodes:
            targets.extend(sorted(node_ids[other] for other in neighbours(node, label)))
            offsets.append(len(targets))
        return offsets, targets

    reverse = origins(graph)

    def predecessors(node, label: str) -> set:
        return reverse.get((node, label), set())

    return [
        (*rows(partial(successors, graph), label), *rows(predecessors, label))
        for label in graph.label_order
    ]
