"""Prefix-free queries (Section 2 of the paper).

Under the paper's monadic semantics, a node is selected as soon as *one* of
its paths is in the query language, so a query is equivalent to the query
obtained by deleting every word that has a proper prefix in the language
(e.g. ``a`` and ``a.b*`` are equivalent).  The unique *prefix-free*
representative of an equivalence class is obtained by removing all outgoing
transitions of every final state of the canonical DFA.  The learner and the
experiment drivers normalize queries to this form before comparing them.

Both questions are read off the canonical *table*
(:class:`~repro.automata.kernel.TableDFA`): every state of a canonical
automaton lies on some accepting run, so the language is prefix-free iff no
final row has a move.  :class:`~repro.queries.PathQuery` calls both on the
table it stores.
"""

from __future__ import annotations

from array import array

from repro.automata.kernel import NO_STATE, TableDFA


def is_prefix_free_table(canonical: TableDFA) -> bool:
    """Whether a *canonical* table's language is prefix-free.

    A canonical table is trimmed, so a move out of a final state leads to an
    accepted word with an accepted proper prefix -- and nothing else does.
    """
    trans, m = canonical.trans, canonical.m
    return not any(
        trans[final * m + position] >= 0
        for final in canonical.iter_finals()
        for position in range(m)
    )


def prefix_free_table(canonical: TableDFA) -> TableDFA:
    """The canonical table of the prefix-free query equivalent to a *canonical* one.

    Construction from the paper: blank the row of every final state, then
    re-canonicalize (the drop can make states unreachable or
    non-distinguishable).  A table that is already prefix-free is returned
    as it is.
    """
    if is_prefix_free_table(canonical):
        return canonical
    trans, m = array("i", canonical.trans), canonical.m
    blank = array("i", [NO_STATE] * m)
    for final in canonical.iter_finals():
        trans[final * m : (final + 1) * m] = blank
    stripped = TableDFA(canonical.alphabet, n=canonical.n, trans=trans, finals=canonical.finals)
    return stripped.canonical()

