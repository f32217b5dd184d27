"""Graph database substrate.

A graph database (Section 2 of the paper) is a finite, directed,
edge-labeled graph ``G = (V, E)`` with ``E`` a subset of ``V x Sigma x V``.
This subpackage provides:

* :class:`~repro.graphdb.graph.GraphDB` -- the graph itself, with node/edge
  construction, adjacency queries, neighborhood extraction and (de)serialization;
* :mod:`repro.graphdb.paths` -- the binary path semantics
  ``paths2_G(origin, end)`` as a bounded canonical-order enumeration (the
  monadic ``paths_G(X)`` lives on the CSR index, in
  :class:`~repro.learning.scp.NegativeCoverage`);
* :mod:`repro.graphdb.io` -- edge-list and JSON serialization.
"""

from repro.graphdb.graph import GraphDB
from repro.graphdb.paths import enumerate_paths_between
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
    "enumerate_paths_between",
    "graph_from_edge_list",
    "graph_to_edge_list",
    "graph_from_json",
    "graph_to_json",
    "load_graph",
    "save_graph",
]
