"""The object-level subset construction (oracle for ``TableDFA.from_nfa``)."""

from __future__ import annotations

from collections import deque

from repro.automata.dfa import DFA
from repro.automata.nfa import NFA


def reference_determinize(nfa: NFA) -> DFA:
    """The original object-level subset construction, kept as the parity
    oracle for the kernel's :meth:`TableDFA.from_nfa`."""
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
