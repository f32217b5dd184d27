"""Subset construction: NFA -> DFA.

Only the reachable part of the subset automaton is built, so the output is
already trimmed on the reachability side.  The construction itself runs in
the int-coded kernel (:meth:`repro.automata.kernel.TableDFA.from_nfa`);
this module is the boundary wrapper that restores the classic "states are
frozensets of NFA states" view.
"""

from __future__ import annotations

from repro.automata.dfa import DFA
from repro.automata.kernel import TableDFA
from repro.automata.nfa import NFA


def determinize(nfa: NFA) -> DFA:
    """Return a DFA accepting the same language as ``nfa``.

    The DFA states are frozensets of NFA states; callers that want opaque
    integer states can follow with :meth:`DFA.relabeled`, and callers that
    want the dense kernel form directly should use
    :meth:`~repro.automata.kernel.TableDFA.from_nfa`.
    """
    table, subsets = TableDFA.from_nfa(nfa)
    return table.to_dfa(states=subsets)
