"""Moore refinement and the pre-kernel canonical-DFA pipeline (oracles for
``TableDFA.minimized`` / ``TableDFA.canonical``)."""

from __future__ import annotations

from repro.automata.dfa import DFA
from repro.automata.nfa import NFA


def reference_minimize(dfa: DFA) -> DFA:
    """The original Moore partition refinement over ``DFA`` objects.

    Kept as the parity oracle for :meth:`TableDFA.minimized`; quadratic in
    the number of states, so only suitable for small automata.
    """
    complete = dfa.trim().completed()
    states = list(complete.states)
    finals = complete.final_states

    # Initial partition: accepting vs non-accepting states.
    partition: list[set] = []
    accepting = {s for s in states if s in finals}
    rejecting = {s for s in states if s not in finals}
    if accepting:
        partition.append(accepting)
    if rejecting:
        partition.append(rejecting)

    def block_of(state, blocks):
        for index, block in enumerate(blocks):
            if state in block:
                return index
        raise AssertionError("state missing from partition")

    changed = True
    while changed:
        changed = False
        new_partition: list[set] = []
        for block in partition:
            # Split the block by the signature of successor blocks.
            signature_groups: dict[tuple, set] = {}
            for state in block:
                signature = tuple(
                    block_of(complete.delta(state, symbol), partition)
                    for symbol in complete.alphabet
                )
                signature_groups.setdefault(signature, set()).add(state)
            if len(signature_groups) > 1:
                changed = True
            new_partition.extend(signature_groups.values())
        partition = new_partition

    representative = {}
    for index, block in enumerate(partition):
        for state in block:
            representative[state] = index

    minimal = DFA(
        complete.alphabet,
        initial=representative[complete.initial],
        states=set(representative.values()),
        finals={representative[s] for s in finals},
    )
    for source, symbol, target in complete.transitions():
        existing = minimal.delta(representative[source], symbol)
        if existing is None:
            minimal.add_transition(representative[source], symbol, representative[target])
    return minimal


def reference_canonical_dfa(automaton: DFA | NFA) -> DFA:
    """The pre-kernel canonical-DFA pipeline (Moore + trim + relabel).

    Used by the parity tests and the learner-speed benchmark to reproduce
    the pre-refactor behaviour exactly.
    """
    from oracles.determinize import reference_determinize

    dfa = automaton if isinstance(automaton, DFA) else reference_determinize(automaton)
    return reference_minimize(dfa).trim().relabeled()
