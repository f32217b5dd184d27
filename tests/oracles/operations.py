"""Boolean operations on object automata (oracle for the kernel's inclusion).

The exact characterizations of Lemmas 3.1 and 4.1 once ran on these:
language inclusion as emptiness of ``L(left) & complement(L(right))``, the
complement taken after an object-level subset construction.  The library
decides inclusion on kernel tables
(:func:`repro.automata.kernel.language_included_tables`); this is the
original route, kept so the two can be checked against each other.
"""

from __future__ import annotations

from collections import deque

from oracles.determinize import reference_determinize

from repro.automata.alphabet import Alphabet
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA

Automaton = DFA | NFA


def _as_nfa(automaton: Automaton) -> NFA:
    return automaton if isinstance(automaton, NFA) else automaton.to_nfa()


def _common_alphabet(left: Automaton, right: Automaton) -> Alphabet:
    if left.alphabet == right.alphabet:
        return left.alphabet
    return left.alphabet.union(right.alphabet)


def intersect(left: Automaton, right: Automaton) -> NFA:
    """The product automaton accepting ``L(left) & L(right)``.

    Only the part of the product reachable from the initial pairs is built.
    Epsilon transitions are handled by closing each side first.
    """
    left_nfa = _as_nfa(left)
    right_nfa = _as_nfa(right)
    alphabet = _common_alphabet(left_nfa, right_nfa)
    product = NFA(alphabet)

    start_left = left_nfa.epsilon_closure(left_nfa.initial_states)
    start_right = right_nfa.epsilon_closure(right_nfa.initial_states)
    queue: deque[tuple] = deque()
    for ls in start_left:
        for rs in start_right:
            pair = (ls, rs)
            product.add_initial(pair)
            queue.append(pair)
    seen = set(product.initial_states)
    while queue:
        left_state, right_state = queue.popleft()
        if left_state in left_nfa.final_states and right_state in right_nfa.final_states:
            product.add_final((left_state, right_state))
        for symbol in alphabet:
            left_targets = left_nfa.step({left_state}, symbol)
            if not left_targets:
                continue
            right_targets = right_nfa.step({right_state}, symbol)
            if not right_targets:
                continue
            for lt in left_targets:
                for rt in right_targets:
                    pair = (lt, rt)
                    product.add_transition((left_state, right_state), symbol, pair)
                    if pair not in seen:
                        seen.add(pair)
                        queue.append(pair)
    return product


def union(left: Automaton, right: Automaton) -> NFA:
    """An NFA accepting ``L(left) | L(right)`` (disjoint-union construction)."""
    left_nfa = _as_nfa(left)
    right_nfa = _as_nfa(right)
    alphabet = _common_alphabet(left_nfa, right_nfa)
    result = NFA(alphabet)
    for tag, nfa in (("L", left_nfa), ("R", right_nfa)):
        for state in nfa.states:
            result.add_state((tag, state))
        for state in nfa.initial_states:
            result.add_initial((tag, state))
        for state in nfa.final_states:
            result.add_final((tag, state))
        for source, symbol, target in nfa.transitions():
            result.add_transition((tag, source), symbol, (tag, target))
        for source in nfa.states:
            for target in nfa.epsilon_successors(source):
                result.add_epsilon_transition((tag, source), (tag, target))
    return result


def complement(automaton: Automaton) -> DFA:
    """A DFA accepting the complement of the language (over its alphabet)."""
    dfa = automaton if isinstance(automaton, DFA) else reference_determinize(automaton)
    return dfa.complement()


def intersection_empty(left: Automaton, right: Automaton) -> bool:
    """Whether ``L(left) & L(right)`` is empty (PTIME product-emptiness)."""
    return intersect(left, right).is_empty()


def _with_alphabet(automaton: Automaton, alphabet: Alphabet) -> NFA:
    """A copy of the automaton over a (possibly larger) alphabet."""
    source = _as_nfa(automaton)
    if source.alphabet == alphabet:
        return source
    widened = NFA(
        alphabet,
        states=source.states,
        initial=source.initial_states,
        finals=source.final_states,
    )
    for state, symbol, target in source.transitions():
        widened.add_transition(state, symbol, target)
    for state in source.states:
        for target in source.epsilon_successors(state):
            widened.add_epsilon_transition(state, target)
    return widened


def language_included(left: Automaton, right: Automaton) -> bool:
    """Whether ``L(left)`` is a subset of ``L(right)``.

    Emptiness of ``L(left) & complement(L(right))``, the complement taken
    over the *union* of the two alphabets (a word using a symbol the right
    automaton has never seen is still a counterexample).
    """
    alphabet = _common_alphabet(left, right)
    widened_right = _with_alphabet(right, alphabet)
    return intersection_empty(left, complement(widened_right))


def language_equivalent(left: Automaton, right: Automaton) -> bool:
    """Whether the two automata accept the same language."""
    return language_included(left, right) and language_included(right, left)
