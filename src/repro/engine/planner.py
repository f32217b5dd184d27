"""Every planning decision of the engine: one rewrite round, three comparisons.

**The rewrite.**  The planner sits between query coercion and the plan
cache: it takes the query's kernel :class:`TableDFA` and hands back the
table the walks will read (the cache entry *is* that table, plus the report
of what was done).  Given the snapshot's declared label set it

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

Steps 2 and 3 run once -- what they leave is trim and minimal, so a second
round finds nothing (``tests/engine/rewrite_trial.json``: 3,000 inputs) --
and only where they can fire: a query's canonical table is trim and minimal
by construction, so with no column dropped the caller may vouch for it and
gets ``clean`` at once.

Every rewritten automaton is checked against the unrewritten one with the
kernel's linear-in-product language-inclusion **both ways** over the
restricted alphabet, plus a one-way containment against the original over
its full alphabet when the restriction dropped symbols.  A failed check --
or any exception inside a pass -- falls back to the unrewritten automaton:
the planner may only ever make plans smaller, never wrong.

**The choices.**  Which kernel runs a whole-graph walk and which search
answers a pair query are read off the free statistics a :class:`GraphIndex`
holds (per-label edge counts, the node count) and the table's shape, one
comparison each: :func:`monadic_kernel`, :func:`binary_kernel`,
:func:`pair_strategy`.  ``tests/engine/dispatch_trial.json`` pins them on
1,500 recorded dispatches (no choice may move unmeasured); the weights are
named constants, so re-fitting the python:numpy break-even is one line.

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
from repro.engine.index import GraphIndex

#: Planner modes ``EngineConfig.planner`` understands.
PLANNER_MODES = ("auto", "off")

#: Cost of one vectorized product edge scan, in python-kernel edge scans.
NUMPY_ITEM_WEIGHT = 0.25
#: Fixed cost of entering one numpy kernel (array setup, dtype views).
NUMPY_CALL_WEIGHT = 5_000.0
#: Cost per visited-mask byte the chunked numpy binary kernel zeroes.
NUMPY_MASK_WEIGHT = 0.002


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
    table: TableDFA, graph_labels: Collection[str], *, canonical: bool = False
) -> RewriteOutcome:
    """Rewrite one automaton against a graph's declared label set.

    Applies alphabet restriction, then one round of dead-state pruning and
    minimization.  ``canonical=True`` is the caller's word that ``table`` is
    already trim and minimal (a query's own ``table``): with no column
    dropped there is then nothing to find, and the answer is ``clean``
    without a pass.  The result is parity-pinned via
    :func:`language_included_tables` both ways; any failure returns the
    automaton unrewritten (see module docstring).
    """

    def outcome(result: TableDFA, applied: Collection[str], parity: str) -> RewriteOutcome:
        return RewriteOutcome(result, tuple(applied), parity, table.n, result.n, table.m, result.m)

    applied: list[str] = []
    try:
        baseline = restrict_alphabet(table, graph_labels)
        if baseline is not table:
            applied.append("restrict-alphabet")
        elif canonical:
            return outcome(table, (), "clean")
        current = baseline
        trimmed = current.trimmed()
        if trimmed.n < current.n:
            applied.append("prune-dead")
            current = trimmed
        merged = current.minimized().trimmed()
        if merged.n < current.n:
            applied.append("merge-states")
            current = merged
        if not applied:
            return outcome(table, (), "clean")
        verified = language_included_tables(
            baseline, current
        ) and language_included_tables(current, baseline)
        if verified and baseline is not table:
            # The restriction itself: the rewritten language, read over the
            # original alphabet, must stay inside the original language.
            verified = language_included_tables(current.reindexed(table.alphabet), table)
        if not verified:
            return outcome(table, ("parity-rejected",), "rejected")
        return outcome(current, applied, "verified")
    except Exception:
        return outcome(table, ("rewrite-error",), "error")


# -- kernel and search choices -------------------------------------------------
# They sit on the dispatch path, so they stay O(table entries): far cheaper than
# the cheapest walk they arbitrate.  One unit is one python-kernel edge scan.


def scan_work(index: GraphIndex, table: TableDFA) -> int:
    """Edges one whole-graph product-BFS epoch can scan, at most.

    Each transition on a symbol crosses each same-label graph edge at most
    once, so the bound is the transition-weighted sum of the per-label edge
    counts.  Symbols the graph never uses contribute nothing -- exactly like
    the kernels, which skip them at bind time.
    """
    counts, trans, m = index.label_edge_counts(), table.trans, table.m
    total = 0
    for position, label_id in enumerate(table.bind_labels(index.label_ids)):
        if label_id >= 0:
            total += counts[label_id] * sum(1 for target in trans[position::m] if target >= 0)
    return total


def first_layer_costs(index: GraphIndex, table: TableDFA) -> tuple[int, int]:
    """``(forward, backward)`` first-layer fan-outs of a pair query.

    Forward sums the edge counts of labels leaving the initial state;
    backward sums, per final state, those of the labels entering it (the
    statistic the bidirectional search alternates on).
    """
    counts, trans, m, finals = index.label_edge_counts(), table.trans, table.m, table.finals
    base = table.initial * m
    forward = backward = 0
    for position, label_id in enumerate(table.bind_labels(index.label_ids)):
        if label_id < 0:
            continue
        if trans[base + position] >= 0:
            forward += counts[label_id]
        entered = {t for t in trans[position::m] if t >= 0 and (finals >> t) & 1}
        backward += counts[label_id] * len(entered)
    return forward, backward


def seed_count(index: GraphIndex, table: TableDFA) -> int:
    """``(node, final state)`` pairs a backward whole-graph walk starts from."""
    return index.num_nodes * max(1, table.finals.bit_count())


def binary_mask(num_nodes: int, states: int) -> tuple[int, int]:
    """``(chunks, mask_bytes)`` of the chunked numpy binary walk: it zeroes a
    dense ``sources * n * k`` visited mask per chunk, whatever the query."""
    chunk = max(1, min(1024, (16 << 20) // max(1, num_nodes * states)))
    chunks = -(-num_nodes // chunk) if num_nodes else 0
    return chunks, chunks * chunk * num_nodes * states


def monadic_kernel(seeds: int, scan: int) -> str:
    """The kernel of one backward whole-graph walk, numpy being importable.

    The vectorized walk trades a fixed call cost for a per-item discount, so
    it wins past 6,666 units of seeds plus scan work (the weights say 4x; an
    ``A.B*.C`` walk measures 2.6x at 1k nodes to 12x at 30k).
    """
    return "numpy" if seeds + scan > NUMPY_CALL_WEIGHT / (1 - NUMPY_ITEM_WEIGHT) else "python"


def binary_kernel(num_nodes: int, states: int, scan: int, forward: int) -> str:
    """The kernel of one all-pairs evaluation (a BFS per source node).

    The python walk's cost is dominated by how many sources survive their
    first layer, which across all sources scans exactly the forward fan-out:
    the work is modelled as ``scan * min(n, forward)`` -- selective queries
    kill most sources at once, dense ones re-walk shared structure once per
    source.  The numpy walk gets that work at a discount but pays
    :func:`binary_mask` whatever the selectivity, which keeps it off sparse
    selective workloads.
    """
    chunks, mask_bytes = binary_mask(num_nodes, states)
    work = scan * min(num_nodes, forward)
    fixed = chunks * NUMPY_CALL_WEIGHT + mask_bytes * NUMPY_MASK_WEIGHT
    return "numpy" if fixed + work * NUMPY_ITEM_WEIGHT < num_nodes + work else "python"


def whole_graph_kernel(index: GraphIndex, table: TableDFA, *, binary: bool) -> str:
    """``"python"`` or ``"numpy"`` for one whole-graph walk of ``table``."""
    scan = scan_work(index, table)
    if binary:
        forward, _ = first_layer_costs(index, table)
        return binary_kernel(index.num_nodes, table.n, scan, forward)
    return monadic_kernel(seed_count(index, table), scan)


def pair_strategy(forward: int, backward: int) -> str:
    """``"forward"`` or ``"bidirectional"`` for one pair query.

    Meeting in the middle pays whenever both ends have work to do; when the
    origin side's first-layer fan-out is an order of magnitude below the end
    side's fan-in, the plain forward early-exit search is already optimal
    and skips the bidirectional bookkeeping.
    """
    return "forward" if forward * 8 <= backward else "bidirectional"


def decision_inputs(index: GraphIndex, table: TableDFA, *, binary: bool) -> dict:
    """What the choices read for one query, as ``explain`` reports it:
    ``seeds + scan_work`` estimates a whole-graph walk in ``KernelStats``
    units, ``first_layer`` is ``[forward, backward]``; binary adds the mask."""
    inputs: dict = {
        "seeds": seed_count(index, table),
        "scan_work": scan_work(index, table),
        "first_layer": list(first_layer_costs(index, table)),
    }
    if binary:
        inputs["chunks"], inputs["mask_bytes"] = binary_mask(index.num_nodes, table.n)
    return inputs
