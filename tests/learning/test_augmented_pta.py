"""Algorithm 1's augmented PTA: merges refused from the fold's own bits.

Every non-final state of the learner's PTA is a proper prefix of some
positive's SCP, hence a shorter path of that positive, hence covered by a
negative (module docstring of :mod:`repro.learning.learner`, step 3).  The
learner hands ``fold_generalize`` those states as ``rejecting``, and a merge
that makes a class holding one final is refused without a guard walk.  Here:

* *the fold's bookkeeping* -- on arbitrary PTAs and merge streams,
  ``merge`` refuses exactly when the unmasked merge leaves a final class
  with a rejecting member, and ``rollback`` restores the mask;
* *exact refusal* -- over small graphs, arbitrary samples and ``k`` in
  0..3, every merge the mask refuses is one a from-scratch
  ``engine.any_selects`` walk rejects, and the learned canonical table is
  the one learned with ``rejecting=0``;
* *the count* -- on a seeded case the mask refuses merges, the guard walks
  fewer times, and ``learner.generalize`` reports both.

Tier-1 replays a fixed set of examples (``derandomize``); the nightly job
runs the module under the ``nightly`` Hypothesis profile.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from test_guard_memo import plain_guard, seeded_case

from repro.automata import Alphabet
from repro.automata.kernel import MergeFold, fold_generalize, pta_table
from repro.datasets.synthetic import scale_free_graph
from repro.engine import QueryEngine
from repro.learning import Sample
from repro.learning.learner import learn_path_query
from repro.learning.scp import NegativeCoverage
from repro.telemetry import Telemetry

NIGHTLY = settings.default.max_examples >= 5_000
PROPERTY = settings(
    deadline=None, derandomize=not NIGHTLY, max_examples=max(settings.default.max_examples, 300)
)

WORDS = st.lists(st.lists(st.sampled_from("abc"), max_size=4).map(tuple), min_size=1, max_size=6)


def conflicts(fold: MergeFold, rejecting: int) -> bool:
    """Whether some class of ``fold`` is final and holds a ``rejecting`` state."""
    return any(
        (rejecting >> state & 1) and (fold.finals >> fold.find(state) & 1)
        for state in range(fold.n)
    )


@PROPERTY
@given(words=WORDS, merges=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=8))
def test_merge_refuses_exactly_the_merges_that_make_a_rejecting_class_final(words, merges):
    """The masked fold against an unmasked twin fed the same merges: a merge
    is refused iff the twin's full merge has a final class with a rejecting
    member; a refused one is rolled back in both, a kept one leaves both
    folds the same."""
    table = pta_table(Alphabet(["a", "b", "c"]), words)
    rejecting = ((1 << table.n) - 1) & ~table.finals
    masked, plain = MergeFold(table, rejecting), MergeFold(table)
    for keep, remove in merges:
        roots = masked.roots()
        keep, remove = roots[keep % len(roots)], roots[remove % len(roots)]
        if keep == remove:
            continue
        before, twin = masked.mark(), plain.mark()
        refused = masked.merge(min(keep, remove), max(keep, remove)) is False
        plain.merge(min(keep, remove), max(keep, remove))
        assert refused == conflicts(plain, rejecting)
        if refused:
            masked.rollback(before)
            plain.rollback(twin)
            assert masked.mark() == before
        else:
            assert masked.to_table().fingerprint() == plain.to_table().fingerprint()
            assert masked.finals == plain.finals
        assert not conflicts(masked, rejecting)


def test_a_refused_merge_leaves_the_mask_to_rollback():
    """``a`` is final and ``b`` only a prefix of ``b.b``: merging them makes
    the class of ``a`` rejecting too; the rollback takes that back, and the
    next merge of ``a``'s class is judged on the restored mask."""
    table = pta_table(Alphabet(["a", "b"]), [("a",), ("b", "b")])  # "", a, b, b.b
    rejecting = ((1 << table.n) - 1) & ~table.finals
    fold = MergeFold(table, rejecting)
    mark = fold.mark()
    assert fold.merge(1, 2) is False and fold.refused == 1
    fold.rollback(mark)
    assert (fold.finals, fold.rejecting) == (table.finals, rejecting)
    assert fold.merge(1, 3) is True  # a with b.b: two finals
    assert fold.refused == 1


# -- exact refusal -------------------------------------------------------------


@PROPERTY
@given(
    graph_seed=st.integers(0, 40),
    labels=st.lists(st.sampled_from("+-."), min_size=12, max_size=12),
    k=st.integers(0, 3),
)
def test_every_refused_merge_is_one_a_walk_rejects(graph_seed, labels, k):
    graph = scale_free_graph(12, edge_factor=1.5, alphabet="abc", seed=graph_seed)
    nodes = sorted(graph.nodes)
    sample = Sample(
        {node for node, label in zip(nodes, labels) if label == "+"},
        {node for node, label in zip(nodes, labels) if label == "-"},
    )
    walk = plain_guard(graph, sample.negatives, QueryEngine())
    refused = []
    merge = MergeFold.merge

    def checked(fold, keep, remove):
        """The mask's verdict, and the full unmasked merge's walk beside it."""
        mark = fold.mark()
        if merge(fold, keep, remove):
            return True
        fold.rollback(mark)
        rejecting, fold.rejecting = fold.rejecting, 0
        merge(fold, keep, remove)
        refused.append(walk(fold))
        fold.rollback(mark)
        fold.rejecting = rejecting
        return False

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MergeFold, "merge", checked)
        result = learn_path_query(graph, sample, k=k, engine=QueryEngine())
    assert all(refused)
    if result.hypothesis is None:
        assert not result.scps
        return
    pta = pta_table(graph.alphabet, result.scps.values())
    unmasked = fold_generalize(pta, walk).to_table().canonical()
    assert result.hypothesis.table.fingerprint() == unmasked.fingerprint()


def test_the_mask_spares_guard_walks_and_the_span_counts_them():
    graph, sample = seeded_case(0, 1)
    telemetry = Telemetry(enabled=True)
    engine = QueryEngine(telemetry=telemetry)
    coverage = NegativeCoverage(engine.index_for(graph), sample.negatives)
    result = learn_path_query(graph, sample, k=2, engine=engine, coverage=coverage)
    (span,) = [r["attrs"] for r in telemetry.events() if r["name"] == "learner.generalize"]
    assert span["guard_calls"] == coverage.guard_calls
    assert span["refused_merges"] > 0
    pta = pta_table(graph.alphabet, result.scps.values())
    walks = []
    guard = plain_guard(graph, sample.negatives, QueryEngine())
    unmasked = fold_generalize(pta, lambda fold: walks.append(fold) or guard(fold))
    # Each refused merge is one guard call the unmasked run makes and this one does not.
    assert len(walks) == span["guard_calls"] + span["refused_merges"]
    learned = result.hypothesis.table.fingerprint()
    assert unmasked.to_table().canonical().fingerprint() == learned
