"""The path semantics of a graph database.

For a node ``nu``, ``paths_G(nu)`` is the language of all words matching a
node sequence starting at ``nu`` (Section 2).  The set is infinite as soon
as a cycle is reachable from ``nu``, so the library exposes it in two forms:

* as an :class:`~repro.automata.nfa.NFA` whose states are the graph's own
  nodes and whose states are all accepting (:func:`paths_nfa`), and that NFA
  determinized into a kernel table (:func:`paths_table`) -- the form the
  exact language-level checks of Lemmas 3.1/4.1 compare by inclusion;
* as a bounded enumeration in canonical order (:func:`enumerate_paths`) --
  this is what the learner's SCP-selection step and the ``k``-informativeness
  strategies consume.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from heapq import heappop, heappush

from repro.automata.alphabet import Word
from repro.automata.kernel import TableDFA
from repro.automata.nfa import NFA
from repro.errors import GraphError
from repro.graphdb.graph import GraphDB, Node


def paths_nfa(graph: GraphDB, start_nodes: Iterable[Node] | Node) -> NFA:
    """The NFA whose language is ``paths_G(X)`` for the given start nodes.

    The automaton reuses the graph's nodes as states; every state is
    accepting because a path may stop at any node (including immediately:
    the empty word belongs to ``paths_G(nu)`` for every node).
    """
    if isinstance(start_nodes, (str, bytes)) or not isinstance(start_nodes, Iterable):
        starts: list[Node] = [start_nodes]
    else:
        starts = list(start_nodes)
    for node in starts:
        if node not in graph:
            raise GraphError(f"node {node!r} is not in the graph")
    nfa = NFA(graph.alphabet, states=graph.nodes, initial=starts, finals=graph.nodes)
    for origin, label, end in graph.edges:
        nfa.add_transition(origin, label, end)
    return nfa


def paths_table(graph: GraphDB, start_nodes: Iterable[Node] | Node) -> TableDFA:
    """``paths_G(X)`` determinized straight into the int-coded kernel."""
    table, _subsets = TableDFA.from_nfa(paths_nfa(graph, start_nodes))
    return table


def paths_between_nfa(graph: GraphDB, origin: Node, end: Node) -> NFA:
    """The NFA whose language is ``paths2_G(origin, end)`` (binary semantics).

    Same construction as :func:`paths_nfa` but with ``end`` as the only
    accepting state, so the accepted words are exactly the labels of paths
    from ``origin`` to ``end``.
    """
    for node in (origin, end):
        if node not in graph:
            raise GraphError(f"node {node!r} is not in the graph")
    nfa = NFA(graph.alphabet, states=graph.nodes, initial=[origin], finals=[end])
    for edge_origin, label, edge_end in graph.edges:
        nfa.add_transition(edge_origin, label, edge_end)
    return nfa


def enumerate_paths(
    graph: GraphDB,
    node: Node,
    *,
    max_length: int,
    limit: int | None = None,
) -> Iterator[Word]:
    """Yield the distinct paths of ``node`` of length <= ``max_length``.

    Paths (label words) are produced in the canonical order: shorter first,
    ties broken lexicographically by the graph's alphabet order.  Distinct
    node sequences carrying the same label word are yielded once.

    A best-first search over (word-key, frontier-of-nodes) pairs produces
    the canonical order directly without materializing all words of a level.
    """
    if node not in graph:
        raise GraphError(f"node {node!r} is not in the graph")
    if max_length < 0:
        raise GraphError("max_length must be non-negative")
    alphabet = graph.alphabet
    count = 0
    # Heap of (canonical key, word, frozenset of nodes reachable via word).
    heap: list[tuple[tuple[int, tuple[int, ...]], Word, frozenset[Node]]] = []
    heappush(heap, (alphabet.word_key(()), (), frozenset([node])))
    emitted: set[Word] = set()
    while heap:
        _, word, frontier = heappop(heap)
        if word in emitted:
            continue
        emitted.add(word)
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
                if extended not in emitted:
                    heappush(
                        heap,
                        (alphabet.word_key(extended), extended, frozenset(next_frontier)),
                    )


def enumerate_paths_between(
    graph: GraphDB,
    origin: Node,
    end: Node,
    *,
    max_length: int,
    limit: int | None = None,
) -> Iterator[Word]:
    """Yield the label words of paths from ``origin`` to ``end`` (canonical order).

    This is the binary-semantics counterpart of :func:`enumerate_paths`,
    used by the binary learner (Algorithm 2).
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


def node_has_path(graph: GraphDB, node: Node, word: Sequence[str]) -> bool:
    """Whether ``word`` belongs to ``paths_G(node)``.

    Runs the word over the graph starting from ``node``; linear in
    ``len(word) * |V|`` in the worst case.
    """
    if node not in graph:
        raise GraphError(f"node {node!r} is not in the graph")
    frontier: set[Node] = {node}
    for symbol in word:
        next_frontier: set[Node] = set()
        for current in frontier:
            next_frontier.update(graph.successors(current, symbol))
        frontier = next_frontier
        if not frontier:
            return False
    return True


def covered_by(graph: GraphDB, word: Sequence[str], nodes: Iterable[Node]) -> bool:
    """Whether ``word`` is *covered* by one of the given nodes.

    A path ``w`` is covered by a node ``nu`` when ``w`` is in ``paths_G(nu)``
    (Section 2).  The learner uses this with the negative example set: a
    candidate path for a positive node is *consistent* only if it is not
    covered by any negative node.

    The check runs the word over the graph from all the given nodes at once
    (one multi-source frontier), so its cost does not grow with the number
    of nodes beyond the initial frontier size.
    """
    frontier: set[Node] = set()
    for node in nodes:
        if node not in graph:
            raise GraphError(f"node {node!r} is not in the graph")
        frontier.add(node)
    if not frontier:
        return False
    for symbol in word:
        next_frontier: set[Node] = set()
        for current in frontier:
            next_frontier.update(graph.successors(current, symbol))
        frontier = next_frontier
        if not frontier:
            return False
    return True
