"""Certain and informative nodes (Section 4.2).

A node is *certain* w.r.t. a sample when labeling it cannot eliminate any
consistent query; Lemma 4.1 characterizes the two flavours:

* certain-positive: some positive node's paths are all covered by the
  negatives together with this node's paths;
* certain-negative: the node's paths are all covered by the negatives.

A node is *informative* when it is neither labeled nor certain.  Deciding
informativeness exactly is PSPACE-complete (Lemma 4.2) -- the exact
functions here are unbounded
:meth:`~repro.learning.scp.NegativeCoverage.includes` walks, exponential in
the worst case, and are intended for small graphs (tests, worked examples).
The practical notion the strategies use is ``k``-informativeness: a node
with at least one path of length at most ``k`` that no negative covers is
guaranteed informative, and counting such paths is cheap
(:class:`~repro.interactive.state.SessionState`).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.engine.engine import QueryEngine
from repro.errors import GraphError
from repro.graphdb.graph import GraphDB, Node
from repro.learning.sample import Sample
from repro.learning.scp import NegativeCoverage


def _negatives(graph: GraphDB, sample: Sample, nodes: Iterable[Node], engine: QueryEngine):
    """The index and the negatives' coverage, once every node the check
    reads (the probed ``nodes`` and the sample's) is known to the graph."""
    for node in (*nodes, *sample.labeled):
        if node not in graph:
            raise GraphError(f"node {node!r} is not in the graph")
    index = engine.index_for(graph)
    return index, NegativeCoverage(index, sample.negatives)


def _certain_positive(index, negatives: NegativeCoverage, sample: Sample, node: Node) -> bool:
    # paths(S-) | paths(node) is one more start node, on the negatives' memo.
    cover = NegativeCoverage(index, negatives.nodes | {node}, memo_from=negatives)
    return any(map(cover.includes, sample.positives))


def is_certain_positive(graph: GraphDB, sample: Sample, node: Node, *, engine: QueryEngine) -> bool:
    """Exact certain-positive check (Lemma 4.1, item 1).

    Whether some positive's paths are included in the paths of the negatives
    *and* the node: the covering language is one more start node of the
    negatives' frontier automaton, asked with
    :meth:`~repro.learning.scp.NegativeCoverage.includes` on ``engine``'s CSR
    index.
    """
    return _certain_positive(*_negatives(graph, sample, (node,), engine), sample, node)


def is_certain_negative(graph: GraphDB, sample: Sample, node: Node, *, engine: QueryEngine) -> bool:
    """Exact certain-negative check (Lemma 4.1, item 2).

    Whether the node's paths are included in the negatives' paths, on the
    same automaton as :func:`is_certain_positive`.
    """
    return _negatives(graph, sample, (node,), engine)[1].includes(node)


def is_certain(graph: GraphDB, sample: Sample, node: Node, *, engine: QueryEngine) -> bool:
    """Whether the node is certain (either certain-positive or certain-negative)."""
    index, negatives = _negatives(graph, sample, (node,), engine)
    return negatives.includes(node) or _certain_positive(index, negatives, sample, node)


def is_informative(graph: GraphDB, sample: Sample, node: Node, *, engine: QueryEngine) -> bool:
    """Exact informativeness: not labeled and not certain.

    PSPACE-complete in general (Lemma 4.2); use the session state's
    k-informativeness on anything larger than toy graphs.
    """
    return node not in sample.labeled and not is_certain(graph, sample, node, engine=engine)


def certain_positive_nodes(graph: GraphDB, sample: Sample, *, engine: QueryEngine) -> frozenset:
    """All unlabeled nodes that are certain-positive (exact, small graphs only).

    Every node's check grows the one frontier memo of the negatives.
    """
    index, negatives = _negatives(graph, sample, (), engine)
    unlabeled = graph.nodes - sample.labeled
    return frozenset(n for n in unlabeled if _certain_positive(index, negatives, sample, n))


def certain_negative_nodes(graph: GraphDB, sample: Sample, *, engine: QueryEngine) -> frozenset:
    """All unlabeled nodes that are certain-negative (exact, small graphs only).

    Every node's check grows the one frontier memo of the negatives.
    """
    negatives = _negatives(graph, sample, (), engine)[1]
    unlabeled = graph.nodes - sample.labeled
    return frozenset(filter(negatives.includes, unlabeled))
