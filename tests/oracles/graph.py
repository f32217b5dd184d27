"""Graph readers the tests need and the library does not carry.

The library reads a graph through its CSR index; ``GraphDB`` keeps only its
insertion-ordered node, edge and label registries (``iter_edges``,
``has_edge`` and the stable orders).  What else the tests ask of a graph --
one node's successors, its out-edges, the origins of the edges into a node,
label counts, degree statistics, a reachable cycle -- is one function each
here, read off ``graph.iter_edges()`` or ``graph.edges``.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import GraphError
from repro.graphdb.graph import GraphDB, Node

#: ``(uid, version) -> {(origin, label or None): ends}``.  A graph's uid is
#: never reused and its version grows with every mutation, so an entry never
#: goes stale; the map is cleared when it grows, to bound test memory.
_FORWARD: dict[tuple[int, int], dict[tuple[Node, str | None], frozenset[Node]]] = {}


def successors(graph: GraphDB, node: Node, label: str | None = None) -> frozenset[Node]:
    """Nodes reachable from ``node`` by one edge (optionally of one label)."""
    if node not in graph:
        raise GraphError(f"node {node!r} is not in the graph")
    key = (graph.uid, graph.version)
    forward = _FORWARD.get(key)
    if forward is None:
        if len(_FORWARD) >= 64:
            _FORWARD.clear()
        sets: dict[tuple[Node, str | None], set[Node]] = {}
        for origin, edge_label, end in graph.iter_edges():
            sets.setdefault((origin, edge_label), set()).add(end)
            sets.setdefault((origin, None), set()).add(end)
        forward = _FORWARD[key] = {pair: frozenset(ends) for pair, ends in sets.items()}
    return forward.get((node, label), frozenset())


def out_edges(graph: GraphDB, node: Node) -> list[tuple[str, Node]]:
    """The ``(label, end)`` pairs of the edges leaving ``node``."""
    return [(label, end) for label in graph.label_order for end in successors(graph, node, label)]


def origins(graph: GraphDB) -> dict[tuple[Node, str], set[Node]]:
    """``(end, label) -> {origin}``: the reverse adjacency, read off the edge set."""
    reverse: dict[tuple[Node, str], set[Node]] = {}
    for origin, label, end in graph.edges:
        reverse.setdefault((end, label), set()).add(origin)
    return reverse


def label_histogram(graph: GraphDB) -> dict[str, int]:
    """The number of edges per label."""
    return dict(Counter(label for _, label, _ in graph.edges))


def degree_statistics(graph: GraphDB) -> dict[str, float]:
    """The largest and the mean out-degree over every node."""
    if not len(graph):
        return {"max_out_degree": 0.0, "mean_out_degree": 0.0}
    degrees = Counter(origin for origin, _, _ in graph.edges)
    return {
        "max_out_degree": float(max(degrees.values(), default=0)),
        "mean_out_degree": graph.edge_count() / len(graph),
    }


def has_cycle_reachable_from(graph: GraphDB, node: Node) -> bool:
    """Whether a cycle is reachable from ``node`` (``paths_G(node)`` is then
    infinite, Section 2): some node it reaches reaches itself again."""
    return any(start in _reach(graph, successors(graph, start)) for start in _reach(graph, {node}))


def _reach(graph: GraphDB, starts) -> set[Node]:
    """``starts`` and every node reachable from them."""
    seen, stack = set(starts), list(starts)
    while stack:
        for target in successors(graph, stack.pop()):
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return seen
