"""Certain, informative and k-informative nodes (Section 4.2).

A node is *certain* w.r.t. a sample when labeling it cannot eliminate any
consistent query; Lemma 4.1 characterizes the two flavours:

* certain-positive: some positive node's paths are all covered by the
  negatives together with this node's paths;
* certain-negative: the node's paths are all covered by the negatives.

A node is *informative* when it is neither labeled nor certain.  Deciding
informativeness exactly is PSPACE-complete (Lemma 4.2) -- the exact
functions here go through automata inclusion and are intended for small
graphs (tests, worked examples).  The practical notion the strategies use is
``k``-informativeness: a node with at least one path of length at most ``k``
that no negative covers is guaranteed informative, and counting such paths
is cheap.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.automata.kernel import language_included_tables
from repro.graphdb.graph import GraphDB, Node
from repro.graphdb.paths import covered_by, enumerate_paths, paths_table
from repro.learning.sample import Sample


def is_certain_positive(graph: GraphDB, sample: Sample, node: Node) -> bool:
    """Exact certain-positive check (Lemma 4.1, item 1).

    Runs on the kernel: both path languages are determinized into
    :class:`~repro.automata.kernel.TableDFA` form and compared with the
    linear product-inclusion walk (no complementation).  The covering
    language ``paths(S-) | paths(node)`` is one multi-initial NFA -- the
    graph with the negatives *and* the node as start states -- rather than
    an explicit union automaton.
    """
    if not sample.positives:
        return False
    cover = paths_table(graph, set(sample.negatives) | {node})
    for positive in sample.positives:
        if language_included_tables(paths_table(graph, positive), cover):
            return True
    return False


def is_certain_negative(graph: GraphDB, sample: Sample, node: Node) -> bool:
    """Exact certain-negative check (Lemma 4.1, item 2).

    Kernel-backed like :func:`is_certain_positive`.
    """
    if not sample.negatives:
        return False
    return language_included_tables(
        paths_table(graph, node), paths_table(graph, sample.negatives)
    )


def is_certain(graph: GraphDB, sample: Sample, node: Node) -> bool:
    """Whether the node is certain (either certain-positive or certain-negative)."""
    return is_certain_negative(graph, sample, node) or is_certain_positive(
        graph, sample, node
    )


def is_informative(graph: GraphDB, sample: Sample, node: Node) -> bool:
    """Exact informativeness: not labeled and not certain.

    PSPACE-complete in general (Lemma 4.2); use :func:`is_k_informative` on
    anything larger than toy graphs.
    """
    if node in sample.labeled:
        return False
    return not is_certain(graph, sample, node)


def certain_positive_nodes(graph: GraphDB, sample: Sample) -> frozenset[Node]:
    """All unlabeled nodes that are certain-positive (exact, small graphs only)."""
    return frozenset(
        node
        for node in graph.nodes
        if node not in sample.labeled and is_certain_positive(graph, sample, node)
    )


def certain_negative_nodes(graph: GraphDB, sample: Sample) -> frozenset[Node]:
    """All unlabeled nodes that are certain-negative (exact, small graphs only)."""
    return frozenset(
        node
        for node in graph.nodes
        if node not in sample.labeled and is_certain_negative(graph, sample, node)
    )


# -- the practical, bounded notion ---------------------------------------------


def uncovered_k_paths(
    graph: GraphDB,
    node: Node,
    negatives: Iterable[Node],
    *,
    k: int,
    limit: int | None = None,
) -> int:
    """The number of paths of ``node`` (length <= k) not covered by the negatives.

    This is the quantity the ``kS`` strategy minimizes.  ``limit`` stops the
    count early (the strategies only need to compare small counts).
    """
    negative_set = frozenset(negatives)
    count = 0
    for path in enumerate_paths(graph, node, max_length=k):
        if not covered_by(graph, path, negative_set):
            count += 1
            if limit is not None and count >= limit:
                break
    return count


def is_k_informative(graph: GraphDB, sample: Sample, node: Node, *, k: int) -> bool:
    """Whether the node is ``k``-informative (Section 4.2).

    A node is k-informative when it is unlabeled and has at least one path
    of length at most ``k`` that no negative example covers.  Every
    k-informative node is informative; the converse need not hold.
    """
    if node in sample.labeled:
        return False
    return uncovered_k_paths(graph, node, sample.negatives, k=k, limit=1) > 0


def k_informative_nodes(
    graph: GraphDB,
    sample: Sample,
    *,
    k: int,
    candidates: Iterable[Node] | None = None,
) -> Iterator[Node]:
    """Yield the k-informative nodes among ``candidates`` (default: all nodes)."""
    pool = candidates if candidates is not None else graph.nodes
    for node in pool:
        if is_k_informative(graph, sample, node, k=k):
            yield node
