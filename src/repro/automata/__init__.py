"""Finite automata substrate.

This subpackage provides the word-automata machinery that both the graph
database layer and the learning algorithms are built on:

* :class:`~repro.automata.alphabet.Alphabet` -- ordered finite alphabets and
  the canonical (length-then-lexicographic) order on words used throughout
  the paper.
* The int-coded kernel (:mod:`repro.automata.kernel`):
  :class:`~repro.automata.kernel.TableDFA` (flat ``array('i')`` transition
  table, bitmask finals, interned symbol ids), the library's one automaton
  form, plus the kernel-native algorithms every layer shares -- PTA
  construction, Hopcroft minimization and the *canonical DFA*
  (:meth:`~repro.automata.kernel.TableDFA.canonical`: the paper represents
  every query by it, and the size of a query is its number of states),
  language inclusion, batched membership and the union-find
  :class:`~repro.automata.kernel.MergeFold` behind RPNI's merge-and-fold.
* The prefix-free transformation of Section 2 of the paper, on canonical
  tables (:mod:`repro.automata.prefix_free`).
"""

from repro.automata.alphabet import Alphabet, Word, canonical_key, canonical_less
from repro.automata.prefix_free import is_prefix_free_table, prefix_free_table
from repro.automata.kernel import (
    MergeFold,
    TableAutomaton,
    TableDFA,
    fold_generalize,
    pta_table,
)

__all__ = [
    "MergeFold",
    "TableAutomaton",
    "TableDFA",
    "fold_generalize",
    "pta_table",
    "Alphabet",
    "Word",
    "canonical_key",
    "canonical_less",
    "is_prefix_free_table",
    "prefix_free_table",
]
