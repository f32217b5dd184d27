"""The episode-scoped ``NegativeCoverage``: merge guard and index-side SCPs.

Everything here is checked by count or against an independent oracle, never
by clock:

* *guard parity* -- on 60 seeded graph x sample cases the learner's canonical
  DFA equals the one learned with a guard that walks every candidate from
  scratch (plain ``engine.any_selects``) and the object-level
  ``reference_generalize_pta`` learner;
* *nothing outlives the episode* -- a dynamic-``k`` run shares one coverage
  across its attempts, and a repeated run on a fresh engine repeats the
  first one's guard calls and kernel work exactly;
* *SCP parity* -- the CSR enumeration equals the object-level
  ``smallest_consistent_path`` for every positive, ``k`` in 0..4, with labels
  the graph never carries and nodes without out-edges;
* *hash-seed independence* -- expression, guard calls and kernel work are
  the same under ``PYTHONHASHSEED=0`` and ``=1``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from oracles.generalize import prefix_tree_acceptor, reference_generalize_pta
from oracles.minimize import reference_canonical_dfa

from repro.automata import Alphabet
from repro.automata.kernel import MergeFold, fold_generalize, pta_table
from repro.automata.minimize import canonical_table
from repro.datasets.synthetic import scale_free_graph
from repro.engine import QueryEngine
from repro.errors import LearningError
from repro.evaluation.static import draw_sample
from repro.graphdb import GraphDB
from repro.learning import Sample
from repro.learning.learner import learn_path_query, learn_with_dynamic_k
from repro.learning.scp import (
    NegativeCoverage,
    select_smallest_consistent_paths,
    smallest_consistent_path,
)
from repro.queries.path_query import PathQuery

GOALS = ("l00.l01*.l02", "(l00+l01).l02*.(l03+l04)", "(l02+l03).(l01+l04)*.l00")
GRAPH_SEEDS = range(20)


def seeded_case(seed: int, goal_index: int):
    """One 150-node scale-free graph and a 15 % sample labeled by a goal.

    The graph's declared alphabet has one label no edge carries (``zz``),
    and the graph has one node without any edge (``island``).
    """
    base = scale_free_graph(150, alphabet_size=6, seed=seed)
    graph = GraphDB([*base.alphabet, "zz"])
    graph.add_nodes([*base.node_order, "island"])
    for edge in sorted(base.edges):
        graph.add_edge(*edge)
    goal = PathQuery.parse(GOALS[goal_index], graph.alphabet)
    rng = random.Random(10 * seed + goal_index)
    sample = draw_sample(graph, goal, labeled_fraction=0.15, rng=rng, engine=QueryEngine())
    return graph, sample


CASES = [(seed, goal) for seed in GRAPH_SEEDS for goal in range(len(GOALS))]


def plain_guard(graph, negatives, engine):
    """A merge guard that walks every candidate from the negatives."""

    def violates(candidate) -> bool:
        return bool(negatives) and engine.any_selects(
            graph, candidate, negatives, ephemeral=True
        )

    return violates


def learn_without_memo(graph, sample, *, k, engine):
    scps = select_smallest_consistent_paths(graph, sample, k=k, engine=engine)
    if not scps:
        return None
    fold = fold_generalize(
        pta_table(graph.alphabet, scps.values()), plain_guard(graph, sample.negatives, engine)
    )
    return canonical_table(fold.to_table()).to_dfa()


def learn_by_reference(graph, sample, *, k, engine):
    """Algorithm 1 on objects: ``benchmarks/test_learner_speed.py``'s learner."""
    scps = {}
    for node in sample.positives:
        path = smallest_consistent_path(graph, node, sample.negatives, k=k)
        if path is not None:
            scps[node] = path
    if not scps:
        return None
    generalized = reference_generalize_pta(
        prefix_tree_acceptor(graph.alphabet, scps.values()),
        plain_guard(graph, sample.negatives, engine),
        alphabet=graph.alphabet,
    )
    return reference_canonical_dfa(generalized)


# -- guard parity ---------------------------------------------------------------


@pytest.mark.parametrize("seed,goal", CASES)
def test_learned_dfa_equals_unmemoised_and_reference_learners(seed, goal):
    graph, sample = seeded_case(seed, goal)
    engine = QueryEngine()
    coverage = NegativeCoverage(engine.index_for(graph), sample.negatives)
    for k in (2, 3):
        result = learn_path_query(graph, sample, k=k, engine=engine, coverage=coverage)
        learned = None if result.hypothesis is None else result.hypothesis.dfa
        for other in (learn_without_memo, learn_by_reference):
            expected = other(graph, sample, k=k, engine=QueryEngine())
            if expected is None:
                assert learned is None, (other.__name__, k)
            else:
                assert learned.structurally_equal(expected), (other.__name__, k)
    assert coverage.guard_calls > 0


WORDS = st.lists(st.lists(st.sampled_from("abc"), max_size=4).map(tuple), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    graph_seed=st.integers(0, 40),
    word_sets=st.lists(WORDS, min_size=1, max_size=5),
    merges=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=4),
    negatives=st.sets(st.integers(0, 11), max_size=4),
)
def test_violates_agrees_with_the_plain_walk_on_arbitrary_folds(
    graph_seed, word_sets, merges, negatives
):
    """One guard, a stream of unrelated folds (mid-merge): each one's
    verdict is the plain walk's."""
    graph = scale_free_graph(12, alphabet="abc", seed=graph_seed)
    nodes = sorted(graph.nodes)
    chosen = [nodes[i] for i in negatives]
    engine = QueryEngine()
    coverage = NegativeCoverage(engine.index_for(graph), chosen)
    violates = coverage.merge_guard(graph=graph, engine=engine)
    plain = plain_guard(graph, chosen, QueryEngine())
    for words in word_sets:
        fold = MergeFold(pta_table(graph.alphabet, words))
        for keep, remove in merges:
            roots = fold.roots()
            keep, remove = roots[keep % len(roots)], roots[remove % len(roots)]
            if keep != remove:
                fold.merge(min(keep, remove), max(keep, remove))
        assert violates(fold) == plain(fold)
    assert coverage.guard_calls == len(word_sets)


def test_a_word_outside_the_candidates_alphabet_is_never_accepted():
    """A fold over another alphabet than the graph's: a symbol the graph
    lacks moves nowhere, and a label the fold lacks is never followed."""
    graph = GraphDB(["a", "b"])
    graph.add_edge("u", "b", "v")
    engine = QueryEngine()
    coverage = NegativeCoverage(engine.index_for(graph), ["u"])
    wide = MergeFold(pta_table(graph.alphabet, [("b",)]))
    assert coverage.merge_guard(graph=graph, engine=engine)(wide)
    narrow = MergeFold(pta_table(GraphDB(["a"]).alphabet, [("a",)]))
    assert not coverage.merge_guard(graph=graph, engine=engine)(narrow)
    other = MergeFold(pta_table(GraphDB(["a", "c"]).alphabet, [("c",), ("a", "c")]))
    other.merge(0, 1)  # a*.c: u has neither label
    assert not coverage.merge_guard(graph=graph, engine=engine)(other)


# -- nothing outlives the episode ---------------------------------------------------


def retry_cases():
    """The seeded cases whose dynamic-k run needs a second attempt."""
    for seed, goal in CASES:
        graph, sample = seeded_case(seed, goal)
        if learn_path_query(graph, sample, k=2, engine=QueryEngine()).is_null:
            yield graph, sample


def test_dynamic_k_shares_one_coverage_and_a_fresh_engine_repeats_it(monkeypatch):
    built = []
    real_init = NegativeCoverage.__init__

    def counting(self, index, nodes):
        built.append(self)
        real_init(self, index, nodes)

    monkeypatch.setattr(NegativeCoverage, "__init__", counting)
    graph, sample = next(retry_cases())
    runs = []
    for _ in range(2):
        built.clear()
        engine = QueryEngine()
        result = learn_with_dynamic_k(graph, sample, k_start=2, k_max=4, engine=engine)
        assert result.k > 2 and len(built) == 1
        work = (engine.stats.states_expanded, engine.stats.edges_scanned)
        runs.append((built[0].guard_calls, work, result.best_effort_query.expression))
    # Nothing survives the episode: the second run does the first one's work.
    assert runs[0] == runs[1] and runs[0][0] > 0


def test_a_stale_coverage_is_refused(g0, g0_sample, engine):
    coverage = NegativeCoverage(engine.index_for(g0), {"v2"})
    with pytest.raises(LearningError):
        learn_path_query(g0, g0_sample, k=3, engine=engine, coverage=coverage)


# -- SCP parity -------------------------------------------------------------------


@pytest.mark.parametrize("seed", GRAPH_SEEDS)
def test_csr_enumeration_equals_the_object_level_scp(seed):
    graph, sample = seeded_case(seed, seed % len(GOALS))
    engine = QueryEngine()
    coverage = NegativeCoverage(engine.index_for(graph), sample.negatives)
    alphabet = graph.alphabet
    assert "zz" in alphabet and "zz" not in coverage._index.label_ids
    for k in range(5):
        for node in [*sorted(sample.positives), "island"]:
            expected = smallest_consistent_path(graph, node, sample.negatives, k=k)
            assert coverage.smallest_uncovered_path(node, k, alphabet) == expected, (node, k)
    bare = NegativeCoverage(engine.index_for(graph), ())
    assert bare.smallest_uncovered_path("island", 0, alphabet) == ()
    with pytest.raises(LearningError):
        coverage.smallest_uncovered_path("island", -1, alphabet)


def test_enumeration_follows_the_alphabets_own_order():
    """An unsorted alphabet: canonical order is the alphabet's, not ``sorted``'s."""
    graph = GraphDB(Alphabet(["b", "a"], sort=False))
    graph.add_edge("p", "a", "x")
    graph.add_edge("p", "b", "y")
    graph.add_edge("x", "a", "x")
    graph.add_edge("x", "b", "x")
    engine = QueryEngine()
    # ``x`` covers a and b, so p's SCP has length 2: b.? before a.? here.
    graph.add_edge("y", "a", "p")
    sample = Sample({"p"}, {"y"})
    expected = smallest_consistent_path(graph, "p", {"y"}, k=2)
    assert expected == ("b",)
    assert select_smallest_consistent_paths(graph, sample, k=2, engine=engine) == {"p": expected}
    assert select_smallest_consistent_paths(graph, Sample({"p"}), k=2, engine=engine) == {"p": ()}


# -- hash-seed independence ---------------------------------------------------------

_HASH_SEED_SCRIPT = """
import json, sys
sys.path[:0] = {paths!r}
from test_guard_memo import seeded_case
from repro.engine import QueryEngine
from repro.learning.learner import learn_path_query
from repro.learning.scp import NegativeCoverage

graph, sample = seeded_case(*{case!r})
engine = QueryEngine()
coverage = NegativeCoverage(engine.index_for(graph), sample.negatives)
result = learn_path_query(graph, sample, k=2, engine=engine, coverage=coverage)
print(json.dumps({{
    "expression": None if result.is_null else result.query.expression,
    "guard_calls": coverage.guard_calls,
    "states_expanded": engine.stats.states_expanded,
    "edges_scanned": engine.stats.edges_scanned,
}}))
"""


def test_learning_is_deterministic_under_pythonhashseed():
    """The order the guard walks the negatives in, and at which positive a
    failing final check stops -- hence what the walks cost -- must not
    depend on the iteration order of the sample's sets: both are walked in
    index order.  One sample learned at its first attempt, one whose
    hypothesis misses a positive."""
    here = Path(__file__).resolve()
    paths = [str(here.parents[2] / "src"), str(here.parents[1]), str(here.parent)]

    def first_case(failing: bool):
        for seed, goal in CASES:
            graph, sample = seeded_case(seed, goal)
            result = learn_path_query(graph, sample, k=2, engine=QueryEngine())
            checked = bool(result.scps) and len(sample.positives) > 2
            if checked and result.is_null == failing:
                return seed, goal
        raise AssertionError("no such case")

    for case in (first_case(failing=False), first_case(failing=True)):
        _assert_same_under_both_hash_seeds(paths, case)


def _assert_same_under_both_hash_seeds(paths, case):
    outputs = []
    for hash_seed in ("0", "1"):
        completed = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT.format(paths=paths, case=case)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append(json.loads(completed.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0]["guard_calls"] > 1 and outputs[0]["states_expanded"] > 0
