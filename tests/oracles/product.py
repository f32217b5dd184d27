"""Query evaluation on a graph via the product construction.

Monadic semantics (Section 2)::

    q(G) = { nu in G | L(q) & paths_G(nu) != {} }

Evaluation builds the product of the graph with the query automaton: product
states are pairs ``(node, automaton state)``, and a node ``nu`` is selected
iff from ``(nu, q0)`` some pair whose automaton state is accepting is
reachable.  Computing the co-reachable set of accepting pairs once (backward
breadth-first search) evaluates the query on *all* nodes in
``O(|E| * |Q| + |V| * |Q|)`` time.

The ``reference_*`` functions keep the original dict/frozenset product
construction as the executable specification.  The engine's parity tests
(``tests/engine``) pin the engine's walks against them on randomized graphs.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable

from oracles.automata import DFA, NFA
from oracles.graph import out_edges
from repro.errors import GraphError
from repro.graphdb.graph import GraphDB, Node

AutomatonState = Hashable


def _automaton_parts(automaton: DFA | NFA):
    """Return (initial states, final states, delta(state, symbol) -> set) helpers."""
    if isinstance(automaton, DFA):
        initials = frozenset([automaton.initial])
        finals = automaton.final_states

        def successors(state: AutomatonState, symbol: str) -> frozenset[AutomatonState]:
            target = automaton.delta(state, symbol)
            return frozenset() if target is None else frozenset([target])

        return initials, finals, successors
    if automaton.has_epsilon_transitions:
        raise GraphError("query automata must be epsilon-free; determinize first")
    initials = automaton.epsilon_closure(automaton.initial_states)
    finals = automaton.final_states

    def successors(state: AutomatonState, symbol: str) -> frozenset[AutomatonState]:
        return automaton.successors(state, symbol)

    return initials, finals, successors


def _accepting_pairs(graph: GraphDB, automaton: DFA | NFA) -> set[tuple[Node, AutomatonState]]:
    """All product pairs from which an accepting pair is reachable (backward BFS)."""
    initials, finals, successors = _automaton_parts(automaton)
    # Build the backward product adjacency lazily: predecessors of (v', s')
    # are pairs (v, s) with an edge (v, a, v') and s' in delta(s, a).
    alphabet = graph.alphabet
    usable_symbols = [s for s in alphabet if s in automaton.alphabet]

    automaton_states = (
        automaton.states if isinstance(automaton, NFA) else frozenset(automaton.states)
    )
    # Pre-index the automaton transitions per symbol, keeping only the
    # symbols with at least one transition ...
    delta_by_symbol: dict[str, list[tuple[AutomatonState, frozenset[AutomatonState]]]] = {}
    for state in automaton_states:
        for symbol in usable_symbols:
            targets = successors(state, symbol)
            if targets:
                delta_by_symbol.setdefault(symbol, []).append((state, targets))

    # ... so that each graph edge only meets the automaton states that
    # actually move on its label (instead of all |Q| states per edge).
    predecessors: dict[tuple[Node, AutomatonState], set[tuple[Node, AutomatonState]]] = {}
    for origin, label, end in graph.edges:
        moves = delta_by_symbol.get(label)
        if not moves:
            continue
        for state, targets in moves:
            for target in targets:
                predecessors.setdefault((end, target), set()).add((origin, state))

    coreachable: set[tuple[Node, AutomatonState]] = set()
    queue: deque[tuple[Node, AutomatonState]] = deque()
    for node in graph.nodes:
        for final in finals:
            pair = (node, final)
            coreachable.add(pair)
            queue.append(pair)
    while queue:
        pair = queue.popleft()
        for predecessor in predecessors.get(pair, ()):
            if predecessor not in coreachable:
                coreachable.add(predecessor)
                queue.append(predecessor)
    return coreachable


def reference_evaluate(graph: GraphDB, automaton: DFA | NFA) -> frozenset[Node]:
    """The original whole-graph evaluation (backward product BFS)."""
    initials, finals, _ = _automaton_parts(automaton)
    if not finals:
        return frozenset()
    coreachable = _accepting_pairs(graph, automaton)
    selected: set[Node] = set()
    for node in graph.nodes:
        if any((node, initial) in coreachable for initial in initials):
            selected.add(node)
    return frozenset(selected)


def reference_node_selects(graph: GraphDB, automaton: DFA | NFA, node: Node) -> bool:
    """The original single-node check (forward product BFS, early exit)."""
    if node not in graph:
        raise GraphError(f"node {node!r} is not in the graph")
    initials, finals, successors = _automaton_parts(automaton)
    if not finals:
        return False
    if initials & finals:
        return True
    queue: deque[tuple[Node, AutomatonState]] = deque(
        (node, initial) for initial in initials
    )
    seen: set[tuple[Node, AutomatonState]] = set(queue)
    while queue:
        current_node, current_state = queue.popleft()
        for label, target_node in out_edges(graph, current_node):
            targets = successors(current_state, label) if label in automaton.alphabet else frozenset()
            for target_state in targets:
                if target_state in finals:
                    return True
                pair = (target_node, target_state)
                if pair not in seen:
                    seen.add(pair)
                    queue.append(pair)
    return False


def reference_any_node_selects(
    graph: GraphDB, automaton: DFA | NFA, nodes: Iterable[Node]
) -> bool:
    """The original multi-source intersection-emptiness test."""
    initials, finals, successors = _automaton_parts(automaton)
    if not finals:
        return False
    starts = list(nodes)
    for node in starts:
        if node not in graph:
            raise GraphError(f"node {node!r} is not in the graph")
    if not starts:
        return False
    if initials & finals:
        return True
    queue: deque[tuple[Node, AutomatonState]] = deque(
        (node, initial) for node in starts for initial in initials
    )
    seen: set[tuple[Node, AutomatonState]] = set(queue)
    while queue:
        current_node, current_state = queue.popleft()
        for label, target_node in out_edges(graph, current_node):
            if label not in automaton.alphabet:
                continue
            for target_state in successors(current_state, label):
                if target_state in finals:
                    return True
                pair = (target_node, target_state)
                if pair not in seen:
                    seen.add(pair)
                    queue.append(pair)
    return False


def reference_binary_evaluate(
    graph: GraphDB, automaton: DFA | NFA
) -> frozenset[tuple[Node, Node]]:
    """The original binary-semantics evaluation (one BFS per source node)."""
    initials, finals, successors = _automaton_parts(automaton)
    result: set[tuple[Node, Node]] = set()
    if not finals:
        return frozenset()
    for source in graph.nodes:
        queue: deque[tuple[Node, AutomatonState]] = deque(
            (source, initial) for initial in initials
        )
        seen: set[tuple[Node, AutomatonState]] = set(queue)
        for node, state in list(queue):
            if state in finals:
                result.add((source, node))
        while queue:
            current_node, current_state = queue.popleft()
            for label, target_node in out_edges(graph, current_node):
                if label not in automaton.alphabet:
                    continue
                for target_state in successors(current_state, label):
                    pair = (target_node, target_state)
                    if pair in seen:
                        continue
                    seen.add(pair)
                    queue.append(pair)
                    if target_state in finals:
                        result.add((source, target_node))
    return frozenset(result)


def reference_pair_selects(
    graph: GraphDB, automaton: DFA | NFA, origin: Node, end: Node
) -> bool:
    """The original pair check (forward product BFS, early exit)."""
    if origin not in graph or end not in graph:
        raise GraphError("both endpoints must be in the graph")
    initials, finals, successors = _automaton_parts(automaton)
    if not finals:
        return False
    if origin == end and (initials & finals):
        return True
    queue: deque[tuple[Node, AutomatonState]] = deque(
        (origin, initial) for initial in initials
    )
    seen: set[tuple[Node, AutomatonState]] = set(queue)
    while queue:
        current_node, current_state = queue.popleft()
        if current_node == end and current_state in finals:
            return True
        for label, target_node in out_edges(graph, current_node):
            if label not in automaton.alphabet:
                continue
            for target_state in successors(current_state, label):
                pair = (target_node, target_state)
                if pair not in seen:
                    seen.add(pair)
                    queue.append(pair)
    return False
