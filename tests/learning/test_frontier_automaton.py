"""``NegativeCoverage`` as the one frontier automaton of ``paths_G(S-)``.

Checked against the object-level reference (``oracles.paths.enumerate_paths``
+ ``covered_by``) and by count, never by clock:

* ``uncovered_paths`` yields exactly the reference's uncovered paths, in the
  reference's canonical order, for ``k`` in 0..4 -- with caps, without
  negatives, with a label the graph never carries, a node without edges and
  an alphabet that is not sorted;
* ``table(k)`` accepts exactly the words of length <= k that ``covered_by``
  rejects, and a coverage asked for k = 2, 3, 2 hands out the tables a fresh
  one would;
* each distinct (frontier, label) step is computed once per coverage;
* a coverage built on the memo of a grown, shrunk or disjoint node set
  answers like a fresh one, and a refreshed or other index never shares it;
* a coverage shared by a learner's attempts enumerates no duplicate word,
  and a session's coverage follows its negative labels.
"""

from __future__ import annotations

from itertools import islice, product

import pytest
from oracles.informativeness import uncovered_k_paths
from oracles.paths import covered_by, enumerate_paths, smallest_consistent_path
from test_guard_memo import CASES, seeded_case

from repro.automata import Alphabet
from repro.engine import QueryEngine
from repro.errors import LearningError
from repro.graphdb import GraphDB
from repro.interactive import InteractiveSession, QueryOracle, make_strategy
from repro.learning.learner import learn_path_query
from repro.learning.scp import DEAD, NegativeCoverage
from repro.queries.path_query import PathQuery

SEEDS = range(0, 20, 4)


def reference_uncovered_paths(graph, node, negatives, k):
    return [
        path
        for path in enumerate_paths(graph, node, max_length=k)
        if not covered_by(graph, path, negatives)
    ]


# -- the enumeration ---------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_uncovered_paths_equal_the_object_level_reference(seed):
    graph, sample = seeded_case(seed, seed % 3)
    alphabet, negatives = graph.alphabet, sample.negatives
    coverage = NegativeCoverage(QueryEngine().index_for(graph), negatives)
    assert "zz" in alphabet and "zz" not in coverage._index.label_ids
    nodes = [*sorted(sample.positives)[:6], *sorted(negatives)[:2], "island"]
    for k in range(5):
        for node in nodes:
            expected = reference_uncovered_paths(graph, node, negatives, k)
            assert list(coverage.uncovered_paths(node, k, alphabet)) == expected, (node, k)
            first = smallest_consistent_path(graph, node, negatives, k=k)
            assert coverage.smallest_uncovered_path(node, k, alphabet) == first
            for cap in (0, 1, 3):
                capped = list(islice(coverage.uncovered_paths(node, k, alphabet), cap))
                assert capped == expected[:cap]
                want = uncovered_k_paths(graph, node, negatives, k=k, limit=cap or None)
                assert len(capped or expected) == want
    assert list(coverage.uncovered_paths("island", 4, alphabet)) == []
    with pytest.raises(LearningError):
        next(coverage.uncovered_paths("island", -1, alphabet))


@pytest.mark.parametrize("seed", SEEDS)
def test_without_negatives_every_path_is_uncovered(seed):
    graph, sample = seeded_case(seed, 0)
    bare = NegativeCoverage(QueryEngine().index_for(graph), ())
    assert bare.initial == DEAD and not bare.covers(())
    for node in [*sorted(sample.positives)[:4], "island"]:
        for k in range(4):
            expected = list(enumerate_paths(graph, node, max_length=k))
            assert list(bare.uncovered_paths(node, k, graph.alphabet)) == expected
    with pytest.raises(LearningError):
        bare.table(2, graph.alphabet)


def test_the_enumeration_follows_an_unsorted_alphabet():
    graph = GraphDB(Alphabet(["b", "a", "c"], sort=False))
    for edge in [("p", "a", "x"), ("p", "b", "y"), ("x", "a", "x"), ("x", "b", "p")]:
        graph.add_edge(*edge)
    graph.add_edge("y", "a", "p")
    graph.add_node("q")
    index = QueryEngine().index_for(graph)
    for negatives in ({"y"}, {"x"}, {"x", "y"}, set()):
        coverage = NegativeCoverage(index, negatives)
        for node, k in product(["p", "x", "y", "q"], range(5)):
            expected = reference_uncovered_paths(graph, node, negatives, k)
            assert list(coverage.uncovered_paths(node, k, graph.alphabet)) == expected
    # b sorts before a here: p's paths start b, a -- not a, b.
    assert list(NegativeCoverage(index, ()).uncovered_paths("p", 1, graph.alphabet)) == [
        (),
        ("b",),
        ("a",),
    ]


# -- the table -----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7])
def test_table_accepts_exactly_the_short_words_covered_by_rejects(seed):
    graph, sample = seeded_case(seed, seed % 3)
    alphabet, negatives = graph.alphabet, sample.negatives
    coverage = NegativeCoverage(QueryEngine().index_for(graph), negatives)
    for k in range(4):
        table = coverage.table(k, alphabet)
        for length in range(k + 1):
            for word in product(alphabet, repeat=length):
                covered = covered_by(graph, word, negatives)
                assert table.accepts(word) == (not covered), (k, word)
                assert coverage.covers(word) == covered
    with pytest.raises(LearningError):
        coverage.table(-1, alphabet)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_k_move_recuts_the_table_a_fresh_coverage_would_build(seed):
    graph, sample = seeded_case(seed, seed % 3)
    alphabet = graph.alphabet
    index = QueryEngine().index_for(graph)
    coverage = NegativeCoverage(index, sample.negatives)
    # Ask other things first: the cut must not depend on the interning order.
    for node in sorted(sample.positives):
        coverage.smallest_uncovered_path(node, 4, alphabet)
    for k in (2, 3, 2):
        fresh = NegativeCoverage(index, sample.negatives).table(k, alphabet)
        assert coverage.table(k, alphabet).fingerprint() == fresh.fingerprint()
    assert coverage.table(2, alphabet) is coverage.table(2, alphabet)


# -- lifetime ------------------------------------------------------------------------


def test_each_frontier_step_is_computed_once(monkeypatch):
    graph, sample = seeded_case(3, 0)
    alphabet = graph.alphabet
    interned = []
    intern = NegativeCoverage._intern

    def counting(self, frontier):
        state = intern(self, frontier)
        interned.append(state)
        return state

    monkeypatch.setattr(NegativeCoverage, "_intern", counting)
    coverage = NegativeCoverage(QueryEngine().index_for(graph), sample.negatives)

    def ask_everything():
        for node in sorted(sample.positives):
            list(coverage.uncovered_paths(node, 3, alphabet))
        for k in (2, 3, 2):
            coverage.table(k, alphabet)
        for word in product(alphabet, repeat=2):
            coverage.covers(word)

    ask_everything()
    # One interning for the initial state, one per distinct (state, label).
    assert len(interned) == 1 + len(coverage._steps) > 1
    assert len(set(coverage._frontiers)) == len(coverage._frontiers)
    ask_everything()
    assert len(interned) == 1 + len(coverage._steps)


def table_bytes(table):
    return table.n, table.finals, table.trans.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("relation", ["grown", "shrunk", "disjoint"])
def test_a_coverage_on_another_sets_memo_answers_like_a_fresh_one(seed, relation):
    """Built ``memo_from`` a coverage of a grown, shrunk or disjoint set on
    the same index, a coverage shares that memo and still cuts the same
    tables, enumerates the same paths and covers the same words as one
    built from nothing."""
    graph, sample = seeded_case(seed, seed % 3)
    alphabet = graph.alphabet
    index = QueryEngine().index_for(graph)
    negatives = sorted(sample.negatives)
    outsiders = sorted(graph.nodes - sample.labeled)[:3]
    first, second = {
        "grown": (negatives[:-1], negatives),
        "shrunk": (negatives, negatives[:-1]),
        "disjoint": (negatives, outsiders),
    }[relation]
    assert first and second
    probes = [*sorted(sample.positives)[:5], *outsiders, "island"]
    previous = NegativeCoverage(index, first)
    for node in probes:  # grow the memo first: answers must not depend on it
        list(previous.uncovered_paths(node, 3, alphabet))
    previous.table(3, alphabet)
    shared = NegativeCoverage(index, second, memo_from=previous)
    fresh = NegativeCoverage(index, second)
    assert shared._steps is previous._steps and shared._frontiers is previous._frontiers
    assert fresh._steps is not previous._steps
    for k in range(4):
        assert table_bytes(shared.table(k, alphabet)) == table_bytes(fresh.table(k, alphabet))
        for node in probes:
            assert list(shared.uncovered_paths(node, k, alphabet)) == list(
                fresh.uncovered_paths(node, k, alphabet)
            ), (node, k)
    for length in range(3):
        for word in product(alphabet, repeat=length):
            assert shared.covers(word) == fresh.covers(word), word


def test_a_refreshed_or_other_index_never_shares_the_memo():
    graph, sample = seeded_case(1, 0)
    alphabet, negatives = graph.alphabet, sample.negatives
    engine = QueryEngine()
    index = engine.index_for(graph)
    previous = NegativeCoverage(index, negatives)
    previous.table(3, alphabet)
    other = NegativeCoverage(QueryEngine().index_for(graph), negatives, memo_from=previous)
    assert other._index is not index and other._steps is not previous._steps
    assert len(other._frontiers) == 1 and not other._steps  # its initial state only

    node = min(negatives)
    graph.add_edge(node, "zz", "island")  # a label only this edge carries
    refreshed = engine.index_for(graph)
    assert refreshed is not index
    moved = NegativeCoverage(refreshed, negatives, memo_from=previous)
    assert moved._steps is not previous._steps and moved._frontiers is not previous._frontiers
    fresh = NegativeCoverage(refreshed, negatives)
    assert moved.covers(("zz",)) and not previous.covers(("zz",))
    for k in range(4):
        assert table_bytes(moved.table(k, alphabet)) == table_bytes(fresh.table(k, alphabet))


# -- a shared coverage ----------------------------------------------------------------


@pytest.mark.parametrize("seed, goal", CASES[::5])
def test_words_never_holds_a_duplicate(seed, goal):
    """The uncovered words a coverage shared by a learner's k = 2, 3, 4
    attempts enumerates for a positive hold no duplicate, come in strictly
    increasing canonical order, and start with that attempt's SCP."""
    graph, sample = seeded_case(seed, goal)
    engine = QueryEngine()
    coverage = NegativeCoverage(engine.index_for(graph), sample.negatives)
    key = graph.alphabet.word_key
    for k in (2, 3, 4):
        result = learn_path_query(graph, sample, k=k, engine=engine, coverage=coverage)
        for node in sorted(sample.positives):
            words = list(coverage.uncovered_paths(node, k, graph.alphabet))
            keys = [key(word) for word in words]
            assert keys == sorted(set(keys))
            assert result.scps.get(node) == (words[0] if words else None)


@pytest.mark.parametrize("strategy", ["kR", "kS"])
def test_a_sessions_coverage_follows_its_negative_labels(strategy):
    """A negative label gets the session a new coverage of the grown set on
    the one frontier memo of the index; any other round keeps the one it has."""
    graph, _sample = seeded_case(2, 1)
    engine = QueryEngine()
    goal = PathQuery.parse("(l00+l01).l02*.(l03+l04)", graph.alphabet)
    session = InteractiveSession(
        graph,
        QueryOracle(goal, engine=engine),
        make_strategy(strategy, seed=5, pool_size=32),
        k_start=2,
        k_max=4,
        max_interactions=30,
        engine=engine,
        incremental=True,
    )
    coverages = [session.state.coverage()]
    while not session.goal_reached() and session.step() is not None:
        coverage = session.state.coverage()
        assert coverage.nodes == session.state.sample.negatives
        if coverage is not coverages[-1]:
            assert coverage.nodes > coverages[-1].nodes
            assert coverage._steps is coverages[0]._steps
            coverages.append(coverage)
    assert len(coverages) > 2
    assert session.state.counters["guard_calls"] > 0
