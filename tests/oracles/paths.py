"""``paths_G(X)`` on dict adjacency: the walks ``NegativeCoverage`` replaced.

The graph as an object NFA (:func:`paths_nfa`, the exact checks' oracle
through ``oracles.operations.language_included``), a bounded
canonical-order enumeration (:func:`enumerate_paths`), one word's coverage
by a node set (:func:`covered_by`; ``covered_by(graph, w, [nu])`` is
``w in paths_G(nu)``) and the single-node SCP built from the two.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from heapq import heappop, heappush

from repro.automata.alphabet import Word
from repro.automata.nfa import NFA
from repro.errors import GraphError, LearningError
from repro.graphdb.graph import GraphDB, Node


def paths_nfa(graph: GraphDB, start_nodes: Iterable[Node] | Node) -> NFA:
    """The NFA of ``paths_G(X)``: the graph's nodes as states, all accepting."""
    if isinstance(start_nodes, (str, bytes)) or not isinstance(start_nodes, Iterable):
        start_nodes = [start_nodes]
    starts = list(start_nodes)
    for node in starts:
        if node not in graph:
            raise GraphError(f"node {node!r} is not in the graph")
    nfa = NFA(graph.alphabet, states=graph.nodes, initial=starts, finals=graph.nodes)
    for origin, label, end in graph.edges:
        nfa.add_transition(origin, label, end)
    return nfa


def enumerate_paths(
    graph: GraphDB, node: Node, *, max_length: int, limit: int | None = None
) -> Iterator[Word]:
    """The distinct paths of ``node`` of length <= ``max_length``, canonically:
    shorter first, ties in the alphabet's order (a best-first search over
    (word key, frontier) pairs)."""
    if node not in graph:
        raise GraphError(f"node {node!r} is not in the graph")
    if max_length < 0:
        raise GraphError("max_length must be non-negative")
    alphabet = graph.alphabet
    heap = [(alphabet.word_key(()), (), frozenset([node]))]
    emitted: set[Word] = set()
    while heap and (limit is None or len(emitted) < limit):
        _, word, frontier = heappop(heap)
        if word in emitted:
            continue
        emitted.add(word)
        yield word
        if len(word) >= max_length:
            continue
        for symbol in alphabet:
            moved = frozenset(m for n in frontier for m in graph.successors(n, symbol))
            extended = word + (symbol,)
            if moved and extended not in emitted:
                heappush(heap, (alphabet.word_key(extended), extended, moved))


def covered_by(graph: GraphDB, word: Sequence[str], nodes: Iterable[Node]) -> bool:
    """Whether some node of ``nodes`` has the path ``word`` (one multi-source run)."""
    frontier = set(nodes)
    for node in frontier:
        if node not in graph:
            raise GraphError(f"node {node!r} is not in the graph")
    for symbol in word:
        frontier = {m for n in frontier for m in graph.successors(n, symbol)}
    return bool(frontier)


def smallest_consistent_path(
    graph: GraphDB, node: Node, negatives: Iterable[Node], *, k: int
) -> Word | None:
    """The smallest path of ``node`` (length <= k) no negative covers, or None."""
    if k < 0:
        raise LearningError("the path-length bound k must be non-negative")
    negatives = frozenset(negatives)
    paths = enumerate_paths(graph, node, max_length=k)
    return next((path for path in paths if not covered_by(graph, path, negatives)), None)
