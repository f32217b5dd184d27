"""The merge guard's reachable set across one fold's life.

``FoldReach`` keeps the product pairs the fold's last committed hypothesis
reaches and answers a candidate by extending them; a miss is kept *pending*
and adopted only if the fold then commits exactly that candidate.  The
property drives one fold through arbitrary merge / check / mark / commit /
rollback streams, mixed with the learner's merge-check-commit steps and now
and then another fold: every check must equal a from-scratch
``any_selects`` on a fresh engine, so an unsound adoption rule fails here.
Tier-1 replays one fixed stream of 1,000 examples; the nightly job runs this
module under the ``nightly`` Hypothesis profile (``tests/conftest.py``):
5,000 random ones.  The streams spelled out below the property pin the
cases it meets least often.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from test_guard_memo import seeded_case

from repro.automata.kernel import MergeFold, pta_table
from repro.datasets.synthetic import scale_free_graph
from repro.engine import QueryEngine, executor
from repro.errors import QueryError
from repro.graphdb import GraphDB
from repro.learning.learner import learn_path_query
from repro.learning.scp import NegativeCoverage

NIGHTLY = settings.default.max_examples >= 5_000

WORDS = st.lists(st.lists(st.sampled_from("abc"), max_size=4).map(tuple), min_size=1, max_size=6)
#: One op is ``(kind, i, j)``; ``i``, ``j`` pick the roots a merge joins.  A
#: ``try`` is the learner's step: merge, check, then commit on a miss, else
#: roll back.
KINDS = ["merge", "check", "try"] * 3 + ["rollback"] * 2 + ["commit", "mark", "other fold"]
OP = st.tuples(st.sampled_from(KINDS), st.integers(0, 30), st.integers(0, 30))


class Lifecycle:
    """One fold, its guard, and the from-scratch verdict every check must equal."""

    def __init__(self, graph: GraphDB, words, negatives) -> None:
        self.graph, self.negatives = graph, negatives
        self.engine = QueryEngine()
        index = self.engine.index_for(graph)
        self.reach = executor.FoldReach(index, sorted(index.node_ids[n] for n in negatives))
        self.fold = MergeFold(pta_table(graph.alphabet, words))
        self.mark = self.fold.mark()

    def merge(self, keep: int, remove: int) -> None:
        roots = self.fold.roots()
        keep, remove = roots[keep % len(roots)], roots[remove % len(roots)]
        if keep != remove:
            self.fold.merge(min(keep, remove), max(keep, remove))

    def check(self, fold: MergeFold | None = None) -> bool:
        fold = self.fold if fold is None else fold
        verdict = self.engine.any_selects(self.graph, fold, self.reach, ephemeral=True)
        expected = QueryEngine().any_selects(self.graph, fold, self.negatives, ephemeral=True)
        assert verdict == expected
        return verdict

    def commit(self) -> None:
        self.fold.commit()
        self.mark = self.fold.mark()

    def run(self, op) -> None:
        kind = op[0]
        if kind == "merge":
            self.merge(op[1], op[2])
        elif kind == "check":
            self.check()
        elif kind == "try":  # the learner's step: keep a merge that passes
            self.merge(op[1], op[2])
            if self.check():
                self.fold.rollback(self.mark)
            else:
                self.commit()
        elif kind == "commit":
            self.commit()
        elif kind == "mark":
            self.mark = self.fold.mark()
        elif kind == "rollback":
            self.fold.rollback(self.mark)
        else:  # a fold the guard never saw: its set must restart
            self.check(MergeFold(pta_table(self.graph.alphabet, [("a",), ("b", "c")])))


@settings(
    deadline=None, derandomize=not NIGHTLY, max_examples=max(settings.default.max_examples, 1_000)
)
@given(
    graph_seed=st.integers(0, 40),
    words=WORDS,
    negatives=st.sets(st.integers(0, 11), max_size=4),
    ops=st.lists(OP, min_size=5, max_size=60),
)
def test_every_check_equals_a_walk_from_scratch(graph_seed, words, negatives, ops):
    graph = scale_free_graph(12, edge_factor=1.5, alphabet="abc", seed=graph_seed)
    nodes = sorted(graph.nodes)
    # Negatives the PTA does not select, as in the learner: the first check
    # misses, so later ones extend a kept set instead of starting over.
    pta, engine = MergeFold(pta_table(graph.alphabet, words)), QueryEngine()
    chosen = [nodes[i] for i in sorted(negatives)]
    unselected = [node for node in chosen if not engine.selects(graph, pta, node, ephemeral=True)]
    life = Lifecycle(graph, words, unselected)
    life.check()  # a fold run's first check, as fold_generalize makes it
    for op in ops:
        life.run(op)
    life.check()


# -- the streams the property must cover, spelled out ------------------------------


def chain_graph() -> GraphDB:
    """``n`` (the negative) has the paths ``""``, ``a`` and ``a.a``; ``p`` has ``b``."""
    graph = GraphDB(["a", "b"])
    graph.add_edge("n", "a", "x")
    graph.add_edge("x", "a", "y")
    graph.add_edge("p", "b", "q")
    return graph


def chain_life() -> Lifecycle:
    # PTA states: 0 = "", 1 = a, 2 = b, 3 = a.b, 4 = b.b; finals 2, 3, 4.
    return Lifecycle(chain_graph(), [("b",), ("a", "b"), ("b", "b")], ["n"])


def test_two_merges_before_one_check():
    life = chain_life()
    assert not life.check()
    life.fold.merge(2, 4)  # b.b into b: b+
    life.fold.merge(1, 3)  # a.b into a: a makes a final, and n has a path a
    assert life.check()
    life.fold.rollback(life.mark)
    life.fold.merge(2, 4)
    life.fold.merge(2, 3)  # a.b into b: still no a.a, a or ""
    assert not life.check()
    life.commit()
    life.fold.merge(0, 1)  # a into "": a* reaches a.b's b -- n has no b
    assert not life.check()


def test_a_commit_with_no_check_restarts_the_set():
    life = chain_life()
    assert not life.check()
    life.fold.merge(2, 4)
    assert not life.check()
    life.fold.rollback(life.mark)
    life.fold.merge(0, 2)  # b into "": the empty word is accepted
    life.commit()  # committed unchecked: the pending b+ set must not be adopted
    assert life.check()


def test_a_rollback_after_a_miss_drops_the_pending_set():
    life = chain_life()
    assert not life.check()
    life.fold.merge(0, 1)  # a into "": a* then b
    assert not life.check()  # pending: n reached at "" after a and a.a
    life.fold.rollback(life.mark)
    life.fold.merge(1, 2)  # b into a: a is final now
    assert life.check()  # extended from the committed set, not the dropped one
    life.commit()
    assert life.check()


def test_an_adopted_set_answers_the_next_candidate():
    life = chain_life()
    assert not life.check()
    life.fold.merge(0, 1)
    assert not life.check()
    life.commit()  # exactly the checked candidate: its set is adopted
    life.fold.merge(0, 3)  # a.b into "" (= the a-loop): accepts ""
    assert life.check()
    life.fold.rollback(life.mark)
    assert not life.check()


def test_a_commit_of_another_candidate_with_the_same_unions_is_not_adopted():
    life = chain_life()
    assert not life.check()
    life.fold.merge(2, 4)  # b.b into b (a leaf: the union is the whole change)
    assert not life.check()
    life.fold.rollback(life.mark)
    life.fold.merge(0, 4)  # b.b into "": the same absorbed state, another root
    life.commit()
    assert life.check()


def test_a_class_reached_only_through_its_absorbed_state_is_seen():
    # PTA states: 0 = "", 1 = a, 2 = b, 3 = a.a, 4 = a.a.b; n reaches 0, 1 and 3.
    life = Lifecycle(chain_graph(), [("b",), ("a", "a", "b")], ["n"])
    assert not life.check()
    life.fold.merge(2, 3)  # a.a into b: the class of b is final and n has a path a.a
    assert life.check()


def test_a_guard_refuses_another_index_and_other_questions():
    life = chain_life()
    life.check()
    with pytest.raises(QueryError):
        life.engine.any_selects(life.graph, life.fold, life.reach)  # not ephemeral
    with pytest.raises(QueryError):
        life.engine.any_selects(life.graph, life.fold, life.reach, ephemeral=True, witness=True)
    with pytest.raises(QueryError):
        life.engine.any_selects(life.graph, life.fold.to_table(), life.reach, ephemeral=True)
    life.graph.add_edge("p", "a", "n")  # a new index snapshot: the ids may have moved
    with pytest.raises(QueryError):
        life.check()


def test_a_fold_run_walks_from_the_starts_once(monkeypatch):
    """Every guard call of a learner's fold run after the first extends the
    set it kept: the run restarts from the negatives exactly once."""
    restarts: list[executor.FoldReach] = []
    walk = executor.FoldReach._walk

    def counting(self, fold, seeds, reached, stats):
        if self._reached_id is None:
            restarts.append(self)
        return walk(self, fold, seeds, reached, stats)

    monkeypatch.setattr(executor.FoldReach, "_walk", counting)
    # A case whose runs walk often once the rejecting mask refuses the merges
    # that accept a covered prefix (10 walks at k = 2 and at k = 3).
    graph, sample = seeded_case(0, 0)
    engine = QueryEngine()
    coverage = NegativeCoverage(engine.index_for(graph), sample.negatives)
    for k in (2, 3):
        calls = coverage.guard_calls
        learn_path_query(graph, sample, k=k, engine=engine, coverage=coverage)
        assert coverage.guard_calls - calls > 5
    assert len(restarts) == len(set(map(id, restarts))) == 2
