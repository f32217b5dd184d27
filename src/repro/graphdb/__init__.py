"""Graph database substrate.

A graph database (Section 2 of the paper) is a finite, directed,
edge-labeled graph ``G = (V, E)`` with ``E`` a subset of ``V x Sigma x V``.
This subpackage provides:

* :class:`~repro.graphdb.graph.GraphDB` -- the graph itself, with node/edge
  construction, adjacency queries, neighborhood extraction and (de)serialization;
* :mod:`repro.graphdb.paths` -- the path semantics ``paths_G(nu)``: the graph
  viewed as an NFA, bounded canonical-order path enumeration, and coverage
  checks against sets of nodes;
* :mod:`repro.graphdb.io` -- edge-list and JSON serialization.
"""

from repro.graphdb.graph import GraphDB
from repro.graphdb.paths import (
    covered_by,
    enumerate_paths,
    enumerate_paths_between,
    paths_nfa,
    paths_between_nfa,
)
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
    "paths_nfa",
    "paths_between_nfa",
    "enumerate_paths",
    "enumerate_paths_between",
    "covered_by",
    "graph_from_edge_list",
    "graph_to_edge_list",
    "graph_from_json",
    "graph_to_json",
    "load_graph",
    "save_graph",
]
