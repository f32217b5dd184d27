"""Generalization of the PTA by state merging (Algorithm 1, lines 4-5).

Starting from the prefix tree acceptor of the selected SCPs, states are
merged as long as the resulting automaton does not *select any negative
node*, i.e. as long as ``L(A) & paths_G(S-)`` stays empty.  The paper keeps
the hypothesis deterministic and follows RPNI's strategy, so the procedure
is the classical red-blue loop with merge-and-fold:

* *red* states form the consolidated part of the hypothesis (initially just
  the root);
* *blue* states are the immediate successors of red states;
* the canonically smallest blue state is either merged into some red state
  (first red state, in canonical order, whose merge passes the guard) or
  promoted to red.

The loop itself now lives in the int-coded kernel
(:func:`repro.automata.kernel.fold_generalize`), where candidate merges are
applied in place on a :class:`~repro.automata.kernel.MergeFold` and undone
on rejection -- no per-candidate automaton copies.  This module keeps the
classic DFA-in/DFA-out entry point as a boundary wrapper; the original
object-level loop is the parity oracle in ``tests/oracles``.

The guard is injected as a callable so that the same engine serves the graph
learner (guard = "selects a negative node"), the word-level RPNI
implementation (guard = "accepts a negative word") and the tests.  The
candidate handed to the guard supports ``accepts(word)`` and the engine's
ephemeral evaluation protocol.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.automata.dfa import DFA
from repro.automata.kernel import TableDFA, fold_generalize


def generalize_pta(
    pta: DFA,
    violates: Callable[[object], bool],
    *,
    max_merges: int | None = None,
) -> DFA:
    """Generalize a PTA by red-blue state merging under the given guard.

    Parameters
    ----------
    pta:
        The prefix tree acceptor (or any DFA) to generalize.
    violates:
        Guard predicate: ``violates(candidate)`` must return True when the
        candidate automaton is unacceptable (e.g. it selects a negative
        node).  A merge is kept only if the merged automaton does not
        violate the guard.  The candidate is the kernel's in-place
        hypothesis (a :class:`~repro.automata.kernel.MergeFold`); it
        supports ``accepts(word)`` and can be handed to the query engine's
        ephemeral evaluation directly.
    max_merges:
        Optional safety cap on the number of accepted merges.
    """
    table, labels = TableDFA.from_dfa(pta)
    fold = fold_generalize(table, violates, max_merges=max_merges)
    return fold.to_dfa(labels)
