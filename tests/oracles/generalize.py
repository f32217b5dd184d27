"""The object-level red-blue loop (oracle for ``kernel.fold_generalize`` and
the pre-kernel baseline of the learner-speed benchmark)."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from oracles.automata import DFA
from oracles.merging import reference_deterministic_merge
from repro.automata.alphabet import Alphabet, Word
from repro.errors import LearningError


def prefix_tree_acceptor(alphabet: Alphabet, words: Iterable[Sequence[str]]) -> DFA:
    """The PTA of ``words`` as a DFA whose states are the prefix words
    (Figure 6(a) names them ``eps, a, ab, abc, c``): the input the object
    loop below reads, built move by move."""
    pta = DFA(alphabet, initial=())
    for word in map(tuple, words):
        for cut in range(len(word)):
            pta.add_transition(word[:cut], word[cut], word[: cut + 1])
        pta.add_final(word)
    return pta


def pta_prefixes(alphabet: Alphabet, words: Iterable[Sequence[str]]) -> list[Word]:
    """The prefixes of ``words`` in canonical order: ``prefixes[i]`` is the
    word that leads to state ``i`` of ``kernel.pta_table(alphabet, words)``."""
    return sorted(prefix_tree_acceptor(alphabet, words).states, key=alphabet.word_key)


def _state_order_key(alphabet: Alphabet, state: object) -> tuple:
    """Canonical ordering key for PTA states (word prefixes).

    States produced by the PTA are tuples of symbols; merged automata keep a
    representative from the original states, so the key stays applicable.
    Non-tuple states (possible if a caller hands in a foreign DFA) are
    ordered after all tuple states, by repr, which keeps the procedure
    deterministic without claiming canonicity.
    """
    if isinstance(state, tuple) and all(isinstance(part, str) for part in state):
        try:
            return (0,) + alphabet.word_key(state)
        except Exception:  # symbol outside the alphabet: fall through
            pass
    return (1, repr(state))


def reference_generalize_pta(
    pta: DFA,
    violates: Callable[[DFA], bool],
    *,
    alphabet: Alphabet | None = None,
    max_merges: int | None = None,
) -> DFA:
    """The original object-level red-blue loop (copying merge-and-fold).

    One fresh DFA is built per candidate merge; kept as the parity oracle
    for :func:`repro.automata.kernel.fold_generalize` and as the pre-kernel
    baseline the learner-speed benchmark measures against.
    """
    if violates(pta):
        raise LearningError("the initial automaton already violates the guard")
    order_alphabet = alphabet if alphabet is not None else pta.alphabet
    current = pta.copy()
    red: set = {current.initial}
    merges_done = 0

    def blue_states() -> list:
        successors: set = set()
        for state in red:
            for _, target in current.outgoing(state):
                if target not in red:
                    successors.add(target)
        return sorted(successors, key=lambda s: _state_order_key(order_alphabet, s))

    blue = blue_states()
    while blue:
        if max_merges is not None and merges_done >= max_merges:
            break
        candidate_state = blue[0]
        merged_into_red = False
        for red_state in sorted(red, key=lambda s: _state_order_key(order_alphabet, s)):
            candidate = reference_deterministic_merge(current, red_state, candidate_state)
            if violates(candidate):
                continue
            current = candidate
            merges_done += 1
            # Keep only the red states that survived the merge-and-fold.
            red = {state for state in red if state in current.states}
            red.add(current.initial)
            merged_into_red = True
            break
        if not merged_into_red:
            red.add(candidate_state)
        blue = blue_states()
    return current
