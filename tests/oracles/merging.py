"""The copying merge-and-fold over ``DFA`` objects (oracle for ``MergeFold``)."""

from __future__ import annotations

from collections.abc import Hashable

from oracles.automata import DFA
from repro.errors import AutomatonError

State = Hashable


def reference_deterministic_merge(dfa: DFA, keep: State, remove: State) -> DFA:
    """The original copying merge-and-fold over ``DFA`` objects.

    Kept as the parity oracle for :class:`MergeFold` and as the legacy
    baseline of the learner-speed benchmark.
    """
    if keep not in dfa.states or remove not in dfa.states:
        raise AutomatonError("both states must belong to the automaton")
    if keep == remove:
        return dfa.copy()

    # Union-find over the DFA's states; each class will become one new state.
    parent: dict[State, State] = {state: state for state in dfa.states}

    def find(state: State) -> State:
        root = state
        while parent[root] != root:
            root = parent[root]
        while parent[state] != root:
            parent[state], state = root, parent[state]
        return root

    def union(left: State, right: State) -> None:
        left_root, right_root = find(left), find(right)
        if left_root != right_root:
            parent[right_root] = left_root

    pending: list[tuple[State, State]] = [(keep, remove)]
    while pending:
        left, right = pending.pop()
        left_root, right_root = find(left), find(right)
        if left_root == right_root:
            continue
        union(left_root, right_root)
        merged_root = find(left_root)
        # Collect the outgoing transitions of the merged class and detect
        # conflicts that require further merges.
        targets_by_symbol: dict[str, State] = {}
        for member in dfa.states:
            if find(member) != merged_root:
                continue
            for symbol, target in dfa.outgoing(member):
                target_root = find(target)
                existing = targets_by_symbol.get(symbol)
                if existing is None:
                    targets_by_symbol[symbol] = target_root
                elif find(existing) != target_root:
                    pending.append((existing, target_root))

    representative: dict[State, State] = {state: find(state) for state in dfa.states}
    merged = DFA(
        dfa.alphabet,
        initial=representative[dfa.initial],
        states=set(representative.values()),
        finals={representative[s] for s in dfa.final_states},
    )
    for source, symbol, target in dfa.transitions():
        src, tgt = representative[source], representative[target]
        existing = merged.delta(src, symbol)
        if existing is None:
            merged.add_transition(src, symbol, tgt)
        elif existing != tgt:
            # The union-find closure above guarantees this cannot happen.
            raise AutomatonError("merge-and-fold left a nondeterministic transition")
    return merged
