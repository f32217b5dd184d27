"""Classification metrics for learned queries.

Section 5.2: "We consider the learned query as a binary classifier and we
measure the F1 score w.r.t. the goal query."  The positive class is the set
of nodes the goal query selects; the prediction is the set the learned query
selects; precision, recall and F1 follow the usual definitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.engine import QueryEngine
from repro.graphdb.graph import GraphDB
from repro.queries.path_query import PathQuery


@dataclass(frozen=True)
class ClassificationScores:
    """Precision / recall / F1 of a predicted node set against a reference set."""

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int

    @property
    def precision(self) -> float:
        """Fraction of predicted nodes that are actually selected by the goal."""
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 1.0

    @property
    def recall(self) -> float:
        """Fraction of goal-selected nodes that the prediction recovers."""
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 1.0

    @property
    def f1(self) -> float:
        """The harmonic mean of precision and recall."""
        precision, recall = self.precision, self.recall
        if precision + recall == 0.0:
            return 0.0
        return 2.0 * precision * recall / (precision + recall)

    @property
    def accuracy(self) -> float:
        """Fraction of nodes classified correctly (selected or not)."""
        total = (
            self.true_positives
            + self.false_positives
            + self.false_negatives
            + self.true_negatives
        )
        if total == 0:
            return 1.0
        return (self.true_positives + self.true_negatives) / total


def score_query(
    learned: PathQuery | None,
    goal: PathQuery,
    graph: GraphDB,
    *,
    engine: QueryEngine,
) -> ClassificationScores:
    """Score a learned query against the goal query on one graph.

    A null (abstained) learned query is scored as the empty prediction, which
    is how the static experiments account for runs where the learner had too
    few examples.  The counts are read off the engine's id arrays, naming no
    node; the goal's (fixed) answer is a result-cache hit after the first
    scoring round on a given graph.
    """
    reference = engine.answer(graph, goal)
    predicted = true_positives = 0
    if learned is not None:
        answer = engine.answer(graph, learned)
        predicted, true_positives = len(answer), answer.overlap(reference)
    return ClassificationScores(
        true_positives=true_positives,
        false_positives=predicted - true_positives,
        false_negatives=len(reference) - true_positives,
        true_negatives=graph.node_count() - predicted - len(reference) + true_positives,
    )


def f1_score(
    learned: PathQuery | None,
    goal: PathQuery,
    graph: GraphDB,
    *,
    engine: QueryEngine,
) -> float:
    """Shortcut for ``score_query(...).f1``."""
    return score_query(learned, goal, graph, engine=engine).f1
