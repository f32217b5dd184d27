"""The object-level subset construction (``oracles.automata.table_of`` of an
NFA, and the oracle of the Glushkov compiler's subset construction)."""

from __future__ import annotations

from collections import deque

from oracles.automata import DFA, NFA


def reference_determinize(nfa: NFA) -> DFA:
    """The object-level subset construction: the reachable subsets, read
    breadth first with symbols in alphabet order, named by themselves."""
    start = nfa.epsilon_closure(nfa.initial_states)
    dfa = DFA(nfa.alphabet, initial=start)
    if start & nfa.final_states:
        dfa.add_final(start)
    queue: deque[frozenset] = deque([start])
    seen: set[frozenset] = {start}
    while queue:
        current = queue.popleft()
        for symbol in nfa.alphabet:
            target = nfa.step(current, symbol)
            if not target:
                continue
            dfa.add_transition(current, symbol, target)
            if target & nfa.final_states:
                dfa.add_final(target)
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return dfa
