"""The path semantics of a graph database.

For a node ``nu``, ``paths_G(nu)`` is the language of all words matching a
node sequence starting at ``nu`` (Section 2).  The library holds it in one
place, :class:`~repro.learning.scp.NegativeCoverage`: the frontier automaton
of ``paths_G(X)`` on the engine's CSR index, tested against the dict
adjacency walks in ``tests/oracles/``.  What remains here is the binary
semantics ``paths2_G(origin, end)`` as a bounded enumeration in canonical
order (:func:`enumerate_paths_between`), which the binary learner
(Algorithm 2) consumes.
"""

from __future__ import annotations

from collections.abc import Iterator
from heapq import heappop, heappush

from repro.automata.alphabet import Word
from repro.errors import GraphError
from repro.graphdb.graph import GraphDB, Node


def enumerate_paths_between(
    graph: GraphDB,
    origin: Node,
    end: Node,
    *,
    max_length: int,
    limit: int | None = None,
) -> Iterator[Word]:
    """Yield the label words of paths from ``origin`` to ``end`` (canonical order).

    Paths are produced shorter first, ties broken lexicographically by the
    graph's alphabet order, each label word once: a best-first search over
    (word-key, frontier-of-nodes) pairs yields the canonical order directly,
    without materializing a whole level.  Used by the binary learner
    (Algorithm 2).
    """
    if origin not in graph or end not in graph:
        raise GraphError("both endpoints must be in the graph")
    if max_length < 0:
        raise GraphError("max_length must be non-negative")
    alphabet = graph.alphabet
    count = 0
    heap: list[tuple[tuple[int, tuple[int, ...]], Word, frozenset[Node]]] = []
    heappush(heap, (alphabet.word_key(()), (), frozenset([origin])))
    seen_words: set[Word] = set()
    while heap:
        _, word, frontier = heappop(heap)
        if word in seen_words:
            continue
        seen_words.add(word)
        if end in frontier:
            yield word
            count += 1
            if limit is not None and count >= limit:
                return
        if len(word) >= max_length:
            continue
        for symbol in alphabet:
            next_frontier: set[Node] = set()
            for current in frontier:
                next_frontier.update(graph.successors(current, symbol))
            if next_frontier:
                extended = word + (symbol,)
                if extended not in seen_words:
                    heappush(
                        heap,
                        (alphabet.word_key(extended), extended, frozenset(next_frontier)),
                    )
