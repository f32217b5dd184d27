"""Classification metrics for learned queries.

Section 5.2: "We consider the learned query as a binary classifier and we
measure the F1 score w.r.t. the goal query."  The positive class is the set
of nodes the goal query selects; the prediction is the set the learned query
selects; precision, recall and F1 follow the usual definitions.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.engine.engine import QueryEngine
from repro.graphdb.graph import GraphDB, Node
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


def compare_node_sets(
    predicted: Iterable[Node],
    reference: Iterable[Node],
    universe: Iterable[Node],
) -> ClassificationScores:
    """Score a predicted node set against a reference set over a node universe."""
    predicted_set = set(predicted)
    reference_set = set(reference)
    universe_set = set(universe)
    true_positives = len(predicted_set & reference_set)
    false_positives = len(predicted_set - reference_set)
    false_negatives = len(reference_set - predicted_set)
    true_negatives = len(universe_set - predicted_set - reference_set)
    return ClassificationScores(
        true_positives=true_positives,
        false_positives=false_positives,
        false_negatives=false_negatives,
        true_negatives=true_negatives,
    )


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
    few examples.  Both node sets are computed through the query engine, so
    the goal's (fixed) reference set is a result-cache hit after the first
    scoring round on a given graph.
    """
    reference = goal.evaluate(graph, engine=engine)
    predicted = learned.evaluate(graph, engine=engine) if learned is not None else frozenset()
    return compare_node_sets(predicted, reference, graph.nodes)


def f1_score(
    learned: PathQuery | None,
    goal: PathQuery,
    graph: GraphDB,
    *,
    engine: QueryEngine,
) -> float:
    """Shortcut for ``score_query(...).f1``."""
    return score_query(learned, goal, graph, engine=engine).f1
