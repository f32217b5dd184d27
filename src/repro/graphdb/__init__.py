"""Graph database substrate.

A graph database (Section 2 of the paper) is a finite, directed,
edge-labeled graph ``G = (V, E)`` with ``E`` a subset of ``V x Sigma x V``.
This subpackage provides:

* :class:`~repro.graphdb.graph.GraphDB` -- the graph itself: node/edge
  construction and the insertion-ordered node, edge and label registries
  the engine's CSR index is built from, and refreshed from their tails;
* :mod:`repro.graphdb.io` -- edge-list and JSON serialization.

The path semantics, monadic ``paths_G(X)`` and binary
``paths2_G(origin, end)``, are walked on that index, in
:class:`~repro.learning.scp.NegativeCoverage`.
"""

from repro.graphdb.graph import GraphDB
from repro.graphdb.io import (
    graph_from_edge_list,
    graph_from_json,
    graph_to_edge_list,
    graph_to_json,
    load_graph,
    save_graph,
)

__all__ = [
    "GraphDB",
    "graph_from_edge_list",
    "graph_to_edge_list",
    "graph_from_json",
    "graph_to_json",
    "load_graph",
    "save_graph",
]
