"""Finite automata substrate.

This subpackage provides the word-automata machinery that both the graph
database layer and the learning algorithms are built on:

* :class:`~repro.automata.alphabet.Alphabet` -- ordered finite alphabets and
  the canonical (length-then-lexicographic) order on words used throughout
  the paper.
* :class:`~repro.automata.nfa.NFA` and :class:`~repro.automata.dfa.DFA` --
  nondeterministic and deterministic finite word automata.
* The int-coded kernel (:mod:`repro.automata.kernel`):
  :class:`~repro.automata.kernel.TableDFA` (flat ``array('i')`` transition
  table, bitmask finals, interned symbol ids) plus the kernel-native
  algorithms every layer shares -- PTA construction, Hopcroft minimization,
  subset determinization, products, batched membership and the union-find
  :class:`~repro.automata.kernel.MergeFold` behind RPNI's merge-and-fold.
* Hopcroft minimization and the *canonical DFA* representation of a regular
  language (the paper represents every query by its canonical DFA; the size
  of a query is its number of states) -- thin wrappers over the kernel
  preserving the classic object API.
* The prefix-free transformation of Section 2 of the paper.
"""

from repro.automata.alphabet import Alphabet, Word, canonical_key, canonical_less
from repro.automata.nfa import NFA
from repro.automata.dfa import DFA
from repro.automata.minimize import canonical_dfa, minimize
from repro.automata.prefix_free import is_prefix_free, prefix_free
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
    "NFA",
    "DFA",
    "minimize",
    "canonical_dfa",
    "is_prefix_free",
    "prefix_free",
]
