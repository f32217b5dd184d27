"""State merging (quotient) operations used by the generalization phase.

Algorithm 1 (lines 4-5) generalizes the PTA by repeatedly replacing a state
``s'`` by a state ``s`` (written ``A_{s'->s}``) as long as the resulting
automaton selects no negative example.  Two flavours are provided:

* :func:`merge_states` -- the plain quotient; the result may be
  nondeterministic, so it is returned as an :class:`NFA`.
* :func:`deterministic_merge` -- the RPNI-style merge-and-fold that keeps the
  automaton deterministic by merging the targets of any transitions that
  would otherwise conflict.  It now runs on the int-coded kernel's
  :class:`~repro.automata.kernel.MergeFold` (one union-find pass, no
  recursion, no repeated copies); this wrapper converts at the boundary.
  Learner loops that evaluate many candidate merges should hold a
  ``MergeFold`` directly and use its in-place ``mark``/``merge``/``rollback``
  cycle instead of calling this function per candidate.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.automata.dfa import DFA
from repro.automata.kernel import MergeFold, TableDFA
from repro.automata.nfa import NFA
from repro.errors import AutomatonError

State = Hashable


def merge_states(automaton: DFA | NFA, keep: State, remove: State) -> NFA:
    """Return the quotient automaton ``A_{remove -> keep}`` as an NFA.

    Every occurrence of ``remove`` (as a source, target, initial or final
    state) is replaced by ``keep``.
    """
    source_nfa = automaton.to_nfa() if isinstance(automaton, DFA) else automaton
    if keep not in source_nfa.states or remove not in source_nfa.states:
        raise AutomatonError("both states must belong to the automaton")

    def rename(state: State) -> State:
        return keep if state == remove else state

    merged = NFA(
        source_nfa.alphabet,
        states=(rename(s) for s in source_nfa.states),
        initial=(rename(s) for s in source_nfa.initial_states),
        finals=(rename(s) for s in source_nfa.final_states),
    )
    for source, symbol, target in source_nfa.transitions():
        merged.add_transition(rename(source), symbol, rename(target))
    for source in source_nfa.states:
        for target in source_nfa.epsilon_successors(source):
            merged.add_epsilon_transition(rename(source), rename(target))
    return merged


def deterministic_merge(dfa: DFA, keep: State, remove: State) -> DFA:
    """Merge ``remove`` into ``keep`` and restore determinism by folding.

    When the merge makes two transitions on the same symbol leave the same
    state towards different targets, those targets are merged in turn,
    exactly as in RPNI's ``merge-and-fold``.  The result is a DFA over the
    same alphabet whose language includes the language of the input DFA;
    its states are the representatives of the merged classes (``keep``
    represents the class it was merged into).
    """
    if keep not in dfa.states or remove not in dfa.states:
        raise AutomatonError("both states must belong to the automaton")
    if keep == remove:
        return dfa.copy()
    table, labels = TableDFA.from_dfa(dfa)
    ids = {label: index for index, label in enumerate(labels)}
    fold = MergeFold(table)
    fold.merge(ids[keep], ids[remove])
    # The fold names classes by their smallest member; this public wrapper
    # guarantees (as the original implementation did) that the merged class
    # is named ``keep``.  No other class contains ``keep``, so the rename
    # cannot collide.
    labels = list(labels)
    labels[fold.find(ids[keep])] = keep
    return fold.to_dfa(labels)
