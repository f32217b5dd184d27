"""DFA minimization and the canonical DFA of a regular language.

The paper represents every path query by its *canonical DFA*, the unique
smallest DFA of its language, and measures query size as its number of
states (Figure 4: ``(a.b)*.c`` has size 3).  The canonical DFA used in the
paper is partial (no rejecting sink state), so :func:`canonical_dfa`
minimizes over the completed automaton and then trims the sink away.

Minimization runs in the int-coded kernel: Hopcroft's ``O(m n log n)``
partition refinement on the flat transition table
(:meth:`repro.automata.kernel.TableDFA.minimized`); the original Moore
refinement over ``DFA`` objects is its parity oracle in ``tests/oracles``.
"""

from __future__ import annotations

from repro.automata.dfa import DFA
from repro.automata.kernel import TableDFA
from repro.automata.nfa import NFA


def minimize(dfa: DFA) -> DFA:
    """Return the minimal complete DFA equivalent to ``dfa``.

    The result may include a rejecting sink state if the input language is
    not ``Sigma*``-total; use :func:`canonical_dfa` to obtain the paper's
    trimmed canonical form.  States are ``0..k-1`` in BFS order from the
    initial state.
    """
    table, _ = TableDFA.from_dfa(dfa.trim())
    return table.minimized().to_dfa()


def canonical_dfa(automaton: DFA | NFA | TableDFA) -> DFA:
    """The canonical (minimal, trimmed, relabeled) DFA of the given automaton.

    Accepts a DFA, an NFA or a kernel :class:`TableDFA`.  The result is the
    paper's query representation: partial, with no unreachable or dead
    states, and with states renamed 0..n-1 in breadth-first order so that
    equal languages yield structurally identical automata.
    """
    return canonical_table(automaton).to_dfa()


def canonical_table(automaton: DFA | NFA | TableDFA) -> TableDFA:
    """The canonical DFA of the given automaton, in kernel table form."""
    if isinstance(automaton, TableDFA):
        table = automaton
    elif isinstance(automaton, DFA):
        table, _ = TableDFA.from_dfa(automaton)
    else:
        table, _ = TableDFA.from_nfa(automaton)
    return table.canonical()


def query_size(automaton: DFA | NFA | TableDFA) -> int:
    """The size of a query: the number of states of its canonical DFA."""
    return canonical_table(automaton).n
