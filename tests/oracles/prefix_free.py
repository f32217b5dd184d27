"""The object-level prefix-free check and construction (oracles for
``repro.automata.prefix_free``'s table versions)."""

from __future__ import annotations

from oracles.minimize import reference_canonical_dfa

from repro.automata.dfa import DFA
from repro.automata.nfa import NFA


def reference_is_prefix_free(automaton: DFA | NFA) -> bool:
    """Whether no accepted word is a proper prefix of another accepted word.

    Checked on the canonical DFA: the language is prefix-free iff no final
    state can reach a final state through a non-empty path.
    """
    dfa = reference_canonical_dfa(automaton)
    for final in dfa.final_states:
        # Breadth-first search from the successors of the final state.
        frontier = [target for _, target in dfa.outgoing(final)]
        seen = set(frontier)
        while frontier:
            state = frontier.pop()
            if dfa.is_final(state):
                return False
            for _, target in dfa.outgoing(state):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
    return True


def reference_prefix_free(automaton: DFA | NFA) -> DFA:
    """The canonical DFA of the prefix-free query equivalent to the input.

    Construction from the paper: take the canonical DFA and drop every
    outgoing transition of every final state, then re-canonicalize (the drop
    can make states unreachable or non-distinguishable).
    """
    dfa = reference_canonical_dfa(automaton)
    stripped = DFA(
        dfa.alphabet,
        initial=dfa.initial,
        states=dfa.states,
        finals=dfa.final_states,
    )
    for source, symbol, target in dfa.transitions():
        if not dfa.is_final(source):
            stripped.add_transition(source, symbol, target)
    return reference_canonical_dfa(stripped)
