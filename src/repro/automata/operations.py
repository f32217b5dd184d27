"""Boolean operations and decision procedures on automata.

These are the building blocks the paper's complexity analysis leans on:

* emptiness of the intersection of two NFAs is in PTIME (product + reachability)
  -- used by the merge guard of Algorithm 1 and the positive-coverage check;
* language inclusion of NFAs is PSPACE-complete in general -- provided here
  exactly (via determinization of the right-hand side) for the small automata
  used by the tests and by the exact consistency/informativeness
  characterizations of Lemmas 3.1 and 4.1.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence

from repro.automata.alphabet import Alphabet, Word
from repro.automata.dfa import DFA
from repro.automata.determinize import determinize
from repro.automata.nfa import NFA
from repro.errors import AutomatonError

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
    dfa = automaton if isinstance(automaton, DFA) else determinize(automaton)
    return dfa.complement()


def is_empty(automaton: Automaton) -> bool:
    """Whether the automaton accepts no word."""
    return _as_nfa(automaton).is_empty()


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

    Implemented as emptiness of ``L(left) & complement(L(right))``, with the
    complement taken over the *union* of the two alphabets (a word using a
    symbol the right automaton has never seen is still a counterexample).
    The complementation determinizes the right-hand side, so this is
    exponential in the worst case (the problem is PSPACE-complete), which is
    fine for the small automata on which the exact characterizations are
    evaluated.
    """
    alphabet = _common_alphabet(left, right)
    widened_right = _with_alphabet(right, alphabet)
    return intersection_empty(left, complement(widened_right))


def language_equivalent(left: Automaton, right: Automaton) -> bool:
    """Whether the two automata accept the same language."""
    return language_included(left, right) and language_included(right, left)


def enumerate_words(
    automaton: Automaton,
    *,
    max_length: int,
    limit: int | None = None,
) -> Iterator[Word]:
    """Yield the accepted words of length at most ``max_length`` in canonical order.

    The enumeration walks the deterministic automaton breadth-first, which
    produces words sorted by length; within a length, symbols are explored in
    alphabet order, which produces the lexicographic order.  ``limit`` caps
    the number of yielded words.
    """
    if max_length < 0:
        raise AutomatonError("max_length must be non-negative")
    dfa = automaton if isinstance(automaton, DFA) else determinize(automaton)
    count = 0
    frontier: list[tuple[object, Word]] = [(dfa.initial, ())]
    if dfa.is_final(dfa.initial):
        yield ()
        count += 1
        if limit is not None and count >= limit:
            return
    for _ in range(max_length):
        next_frontier: list[tuple[object, Word]] = []
        for state, word in frontier:
            for symbol in dfa.alphabet:
                target = dfa.delta(state, symbol)
                if target is None:
                    continue
                extended = word + (symbol,)
                next_frontier.append((target, extended))
                if dfa.is_final(target):
                    yield extended
                    count += 1
                    if limit is not None and count >= limit:
                        return
        frontier = next_frontier
        if not frontier:
            return


def accepts_any(automaton: Automaton, words: Sequence[Sequence[str]]) -> bool:
    """Whether the automaton accepts at least one of the given words."""
    return any(automaton.accepts(word) for word in words)


def accepts_all(automaton: Automaton, words: Sequence[Sequence[str]]) -> bool:
    """Whether the automaton accepts every one of the given words."""
    return all(automaton.accepts(word) for word in words)
