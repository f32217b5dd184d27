"""Automaton rewriting ahead of the plan cache, parity-pinned.

The planner sits between query coercion and the plan cache: it takes the
query's kernel :class:`TableDFA` and hands back the table the walks will
read (the cache entry *is* that table, plus the report of what was done).
Given the snapshot's declared label set it

1. **restricts the alphabet** -- transitions on symbols the graph never
   carries can never match an edge, so they are dropped wholesale (the
   kernels would skip them edge by edge at bind time; dropping them up
   front lets the next passes see the states they leave behind as dead);
2. **prunes dead states** -- the reachable-and-coreachable restriction of
   :meth:`TableDFA.trimmed`, which removes whole branches that only led
   anywhere through now-absent symbols;
3. **hoists common prefixes and factors unions** -- Hopcroft minimization
   (:meth:`TableDFA.minimized`): equivalent suffix states merge, so union
   arms that share structure collapse into one path.

Every rewritten automaton is checked against the unrewritten one with the
kernel's linear-in-product language-inclusion **both ways** over the
restricted alphabet, plus a one-way containment against the original over
its full alphabet when the restriction dropped symbols.  A failed check --
or any exception inside a pass -- falls back to the unrewritten automaton:
the planner may only ever make plans smaller, never wrong.

Move ordering is not done here: a table has no move order to store, so
the rare-label-first order of early-exit searches is a sort of each row at
bind time (:func:`repro.engine.executor.bind`).
"""

from __future__ import annotations

from array import array
from collections.abc import Collection
from dataclasses import dataclass

from repro.automata.alphabet import Alphabet
from repro.automata.kernel import NO_STATE, TableDFA, language_included_tables

#: Planner modes ``EngineConfig.planner`` understands.
PLANNER_MODES = ("auto", "off")


@dataclass(frozen=True)
class RewriteOutcome:
    """What the rewriter did to one automaton, and the proof status.

    ``parity`` is ``"verified"`` (rewrites applied and language-inclusion
    held both ways), ``"clean"`` (nothing to rewrite -- the automaton is
    already tight against this alphabet), ``"rejected"`` (an inclusion
    check failed; the unrewritten automaton is returned) or ``"error"``
    (a pass raised; ditto).
    """

    table: TableDFA
    applied: tuple[str, ...]
    parity: str
    states_before: int
    states_after: int
    symbols_before: int
    symbols_after: int

    def to_dict(self) -> dict:
        return {
            "rewrites": list(self.applied),
            "parity": self.parity,
            "states": {"before": self.states_before, "after": self.states_after},
            "symbols": {"before": self.symbols_before, "after": self.symbols_after},
        }


def restrict_alphabet(table: TableDFA, keep: Collection[str]) -> TableDFA:
    """The same automaton over ``alphabet & keep`` (other transitions drop).

    Returns ``table`` itself when nothing is dropped.  This is the inverse
    direction of :meth:`TableDFA.reindexed` (which only widens); the
    restriction changes the language over the full alphabet -- by exactly
    the words a graph without those labels can never spell -- which is why
    the parity check runs over the restricted alphabet.
    """
    keep_set = frozenset(keep)
    kept = [symbol for symbol in table.alphabet.symbols if symbol in keep_set]
    if len(kept) == table.m:
        return table
    alphabet = Alphabet(kept)
    old_positions = [table.alphabet.index(symbol) for symbol in alphabet.symbols]
    new_m = len(alphabet)
    trans = table.trans
    new_trans = array("i", [NO_STATE] * (table.n * new_m))
    for state in range(table.n):
        base = state * table.m
        new_base = state * new_m
        for new_pos, old_pos in enumerate(old_positions):
            new_trans[new_base + new_pos] = trans[base + old_pos]
    return TableDFA(
        alphabet,
        n=table.n,
        trans=new_trans,
        finals=table.finals,
        initial=table.initial,
    )


def rewrite_table(
    table: TableDFA, graph_labels: Collection[str], *, max_passes: int = 3
) -> RewriteOutcome:
    """Rewrite one automaton against a graph's declared label set.

    Applies alphabet restriction once, then up to ``max_passes`` rounds of
    dead-state pruning and minimization until a fixpoint.  The result is
    parity-pinned via :func:`language_included_tables` both ways; any
    failure returns the automaton unrewritten (see module docstring).
    """
    original = table
    applied: list[str] = []
    try:
        baseline = restrict_alphabet(table, graph_labels)
        if baseline is not table:
            applied.append("restrict-alphabet")
        current = baseline
        for _ in range(max(0, max_passes)):
            changed = False
            trimmed = current.trimmed()
            if trimmed.n < current.n:
                applied.append("prune-dead")
                current = trimmed
                changed = True
            merged = current.minimized().trimmed()
            if merged.n < current.n:
                applied.append("merge-states")
                current = merged
                changed = True
            if not changed:
                break
        if not applied:
            return RewriteOutcome(
                original, (), "clean", original.n, original.n, original.m, original.m
            )
        verified = language_included_tables(
            baseline, current
        ) and language_included_tables(current, baseline)
        if verified and baseline is not table:
            # The restriction itself: the rewritten language, read over the
            # original alphabet, must stay inside the original language.
            verified = language_included_tables(
                current.reindexed(original.alphabet), original
            )
        if not verified:
            return RewriteOutcome(
                original,
                ("parity-rejected",),
                "rejected",
                original.n,
                original.n,
                original.m,
                original.m,
            )
        return RewriteOutcome(
            current,
            tuple(applied),
            "verified",
            original.n,
            current.n,
            original.m,
            current.m,
        )
    except Exception:
        return RewriteOutcome(
            original,
            ("rewrite-error",),
            "error",
            original.n,
            original.n,
            original.m,
            original.m,
        )
