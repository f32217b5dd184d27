"""Transition source x stop rule: the product walk's parity matrix.

:mod:`repro.engine.executor` writes each walk once and ``bind`` reads one
transition format, the kernel's flat array.  This matrix pins that claim
along both halves of the source axis.  At the executor: a kernel
``TableDFA`` and a ``MergeFold``.  At the engine's door: a raw ``DFA`` and
a raw ``NFA``, int-coded once by ``QueryEngine._coerce_automaton``, and the
*plan* -- the entry a ``planner="off"`` engine caches for that ``DFA``,
which is again a table.  The *same automaton*, whichever way it came in,
must

* answer every stop rule (any-of-nodes, pair, depth-bounded, whole-graph)
  exactly like the independent ``reference_*`` construction in
  ``tests/oracles/product.py``,
* on request hand back a *witness*: a shortest accepted word that labels a
  path from one of the start nodes (to ``end``, for a pair), and
* do exactly the same work: identical ``(states_expanded, edges_scanned)``
  whatever the representation.

The automata are the canonical DFAs of the suite's expressions plus the
quotients of *mid-merge* folds (there the fold itself is the fold source and
the other four representations are derived from its materialized table).
``bind`` itself refuses everything but a kernel automaton.
"""

from __future__ import annotations

import random

import pytest
from oracles.product import (
    reference_any_node_selects,
    reference_evaluate,
    reference_pair_selects,
)
from test_engine_parity import EXPRESSIONS, random_graph

from repro.automata.dfa import DFA
from repro.automata.kernel import MergeFold, TableDFA, pta_table
from repro.engine import QueryEngine, executor
from repro.engine.executor import KernelStats
from repro.engine.index import GraphIndex
from repro.errors import QueryError
from repro.graphdb import GraphDB
from repro.graphdb.paths import covered_by, enumerate_paths, enumerate_paths_between
from repro.regex import compile_query

LABELS = ["a", "b", "c"]
SOURCES = ("plan", "table", "fold", "dfa", "nfa")
DEPTHS = (0, 1, 3)


def mid_merge_fold(seed: int) -> MergeFold:
    """A PTA fold with a few merges applied and *not* committed."""
    rng = random.Random(seed)
    words = [
        tuple(rng.choice(LABELS) for _ in range(rng.randrange(1, 5)))
        for _ in range(rng.randrange(2, 7))
    ]
    fold = MergeFold(pta_table(GraphDB(LABELS).alphabet, words))
    for _ in range(3):
        roots = fold.roots()
        if len(roots) > 1:
            keep, remove = sorted(rng.sample(roots, 2))
            fold.merge(keep, remove)
    return fold


def representations(case: str) -> dict[str, object]:
    """The five ways in of one automaton (see the module docstring)."""
    if case.startswith("fold:"):
        fold = mid_merge_fold(int(case.removeprefix("fold:")))
        table = fold.to_table()
    else:
        table, _ = TableDFA.from_dfa(compile_query(case, LABELS))
        fold = MergeFold(table)
    dfa = table.to_dfa()
    return {
        "plan": QueryEngine(planner="off")._resolve_plan(GraphDB(LABELS), dfa)[0],
        "table": table,
        "fold": fold,
        "dfa": dfa,
        "nfa": dfa.to_nfa(),
    }


CASES = [*EXPRESSIONS, *(f"fold:{seed}" for seed in range(4))]


def population():
    """Seeded graphs with their index and a fixed node sample."""
    rng = random.Random(41)
    for _ in range(8):
        graph = random_graph(rng, LABELS)
        index = GraphIndex.build(graph)
        yield graph, index, sorted(graph.nodes)[:4]


def walk(rule, index, source, nodes, *, end=None, depth=None, witness=False):
    """Run one stop rule on one source; returns ``(answer, work counters)``.

    Every source enters through the engine's door, which int-codes the raw
    ``DFA``/``NFA`` and passes a table or fold as it is.
    """
    source = QueryEngine._coerce_automaton(source)
    stats = KernelStats()
    ids = index.node_ids
    if rule == "whole":
        selected = executor.evaluate_all(index, source, stats, max_depth=depth)
        answer = frozenset(index.nodes_by_id[i] for i in selected)
    else:
        answer = executor.any_selects(
            index,
            source,
            [ids[node] for node in nodes],
            stats,
            end=None if end is None else ids[end],
            max_depth=depth,
            witness=witness,
        )
    return answer, stats.mark()


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("case", CASES)
class TestSourceByStopRule:
    def test_any_of_nodes(self, case, source):
        forms = representations(case)
        for graph, index, subset in population():
            expected = reference_any_node_selects(graph, forms["dfa"], subset)
            assert walk("any", index, forms[source], subset)[0] == expected

    def test_pair(self, case, source):
        forms = representations(case)
        for graph, index, subset in population():
            for origin in subset:
                for end in subset:
                    expected = reference_pair_selects(graph, forms["dfa"], origin, end)
                    got, _ = walk("pair", index, forms[source], [origin], end=end)
                    assert got == expected, (origin, end)

    def test_depth_bounded(self, case, source):
        forms = representations(case)
        dfa = forms["dfa"]
        for graph, index, subset in population():
            for depth in DEPTHS:
                bounded = {
                    node
                    for node in graph.nodes
                    if any(dfa.accepts(w) for w in enumerate_paths(graph, node, max_length=depth))
                }
                got, _ = walk("any", index, forms[source], subset, depth=depth)
                assert got == any(node in bounded for node in subset), depth
                got, _ = walk("whole", index, forms[source], (), depth=depth)
                assert got == bounded, depth

    def test_witness(self, case, source):
        """``witness=True``: same verdict, same work, and the word is real.

        The word is accepted by the query, the object-level ``covered_by`` /
        pair oracle finds it on the graph from the start nodes, and no
        shorter accepted path exists (BFS depth = shortest witness).
        """
        forms = representations(case)
        dfa = forms["dfa"]
        for graph, index, subset in population():
            calls = [(subset, {}), (subset, {"depth": 1}), (subset[:1], {"end": subset[-1]})]
            for nodes, options in calls:
                found, work = walk("any", index, forms[source], nodes, **options)
                word, witness_work = walk(
                    "any", index, forms[source], nodes, witness=True, **options
                )
                assert witness_work == work, (nodes, options)
                assert (word is not None) == found, (nodes, options, word)
                if word is None:
                    continue
                assert dfa.accepts(word)
                end = options.get("end")
                bound = len(word) - 1
                if end is None:
                    assert covered_by(graph, word, nodes)
                    shorter = [enumerate_paths(graph, node, max_length=bound) for node in nodes]
                else:
                    only_word = DFA.single_word(graph.alphabet, word)
                    assert reference_pair_selects(graph, only_word, nodes[0], end)
                    shorter = [enumerate_paths_between(graph, nodes[0], end, max_length=bound)]
                if word:  # nothing is shorter than the empty word
                    assert not any(dfa.accepts(path) for paths in shorter for path in paths)

    def test_whole_graph(self, case, source):
        forms = representations(case)
        for graph, index, _ in population():
            expected = reference_evaluate(graph, forms["dfa"])
            assert walk("whole", index, forms[source], ())[0] == expected


@pytest.mark.parametrize("case", CASES)
def test_every_source_does_identical_work(case):
    """One automaton, five ways in, one ``(expanded, scanned)``.

    A mid-merge fold is the one exception, and only for the backward
    closure: its absorbed states still carry their accepting bits, so it
    seeds (and pops) pairs the materialized quotient does not have -- which
    is why the engine materializes a fold before a whole-graph walk.
    """
    forms = representations(case)
    for _, index, subset in population():
        calls = [("any", subset, {}), ("any", subset, {"depth": 2}), ("whole", (), {})]
        calls += [("pair", [origin], {"end": end}) for origin in subset for end in subset[:2]]
        for rule, nodes, options in calls:
            work = {
                source: walk(rule, index, form, nodes, **options)[1]
                for source, form in forms.items()
                if not (rule == "whole" and source == "fold" and case.startswith("fold:"))
            }
            assert len(set(work.values())) == 1, (rule, nodes, options, work)


@pytest.mark.parametrize("form", ["dfa", "nfa", "expression"])
def test_bind_takes_kernel_automata_only(form):
    """``bind`` has one branch: a raw automaton (or anything else) that got
    past the engine's door un-coded is a ``QueryError``, not a walk."""
    dfa = compile_query("(a.b)*.c", LABELS)
    query = {"dfa": dfa, "nfa": dfa.to_nfa(), "expression": "(a.b)*.c"}[form]
    _, index, subset = next(population())
    with pytest.raises(QueryError, match="kernel TableDFA/MergeFold"):
        executor.bind(index, query)
    stats = KernelStats()
    with pytest.raises(QueryError):
        executor.any_selects(index, query, [index.node_ids[subset[0]]], stats)
    with pytest.raises(QueryError):
        executor.evaluate_all(index, query, stats)
    assert stats.mark() == (0, 0)


@pytest.mark.parametrize("case", CASES)
def test_engine_ephemeral_calls_take_every_uncompiled_source(case):
    """``QueryEngine``'s ephemeral entry points are one call each into the
    same walks: tables, mid-merge folds and raw automata all answer like the
    reference, with no plan cached."""
    forms = representations(case)
    engine = QueryEngine()
    for graph, _, subset in population():
        expected = reference_any_node_selects(graph, forms["dfa"], subset)
        origin, end = subset[0], subset[-1]
        expected_pair = reference_pair_selects(graph, forms["dfa"], origin, end)
        for source in ("table", "fold", "dfa", "nfa"):
            query = forms[source]
            assert engine.any_selects(graph, query, subset, ephemeral=True) == expected
            assert engine.pair_selects(graph, query, origin, end, ephemeral=True) == expected_pair
    assert engine.stats.plan_compilations == 0


def test_geo_seed_order_is_not_set_iteration(geo):
    """The parent's raw-DFA walk seeded from a ``set``: on the geo graph
    ``(tram+bus)*.cinema`` from all nodes cost 4/4 through it and 9/9 through
    the table and plan walks.  Every engine path now agrees."""
    dfa = compile_query("(tram+bus)*.cinema", geo.alphabet)
    table, _ = TableDFA.from_dfa(dfa)
    nodes = list(geo.node_order)
    work = set()
    for query, ephemeral in ((dfa, True), (table, True), (dfa.to_nfa(), True), (dfa, False)):
        engine = QueryEngine(planner="off")
        assert engine.any_selects(geo, query, nodes, ephemeral=ephemeral)
        work.add((engine.stats.states_expanded, engine.stats.edges_scanned))
    assert len(work) == 1, work
