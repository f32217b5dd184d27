"""Reference scoring and sampling on node-name sets.

``compare_node_sets`` is the name-set scorer ``score_query`` counted with
before it read the four counts off the engine's id arrays, and
``reference_draw_sample`` the sampler that sorted the goal's node set and
its complement by ``repr`` on every draw.  Both are kept verbatim in
behaviour as the executable specification of the id-array versions, which
must agree with them on either walk backend, on the graphs of
:func:`shuffled_graphs`.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from hypothesis import strategies as st

from repro.engine.engine import QueryEngine
from repro.errors import LearningError
from repro.evaluation.metrics import ClassificationScores
from repro.graphdb.graph import GraphDB, Node
from repro.learning.sample import Sample
from repro.queries.path_query import PathQuery


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


def reference_score_query(
    learned: PathQuery | None, goal: PathQuery, graph: GraphDB, *, engine: QueryEngine
) -> ClassificationScores:
    """``score_query`` on name sets: a null learned query predicts nothing."""
    reference = goal.evaluate(graph, engine=engine)
    predicted = learned.evaluate(graph, engine=engine) if learned is not None else frozenset()
    return compare_node_sets(predicted, reference, graph.nodes)


def reference_draw_sample(
    graph: GraphDB,
    goal: PathQuery,
    *,
    labeled_fraction: float,
    rng: random.Random,
    positive_share: float | None = None,
    engine: QueryEngine,
) -> Sample:
    """``draw_sample`` drawing from ``sorted(..., key=repr)`` name lists."""
    if not 0.0 < labeled_fraction <= 1.0:
        raise LearningError("labeled_fraction must be in (0, 1]")
    selected = goal.evaluate(graph, engine=engine)
    unselected = graph.nodes - selected
    total = max(2, int(round(labeled_fraction * graph.node_count())))
    if positive_share is None:
        positive_share = len(selected) / graph.node_count() if graph.node_count() else 0.0
    positive_count = int(round(total * positive_share))
    if selected:
        positive_count = min(max(positive_count, 1), len(selected))
    else:
        positive_count = 0
    negative_count = min(total - positive_count, len(unselected))
    if unselected and negative_count == 0:
        negative_count = 1

    positives: list[Node] = (
        rng.sample(sorted(selected, key=repr), positive_count) if positive_count else []
    )
    negatives: list[Node] = (
        rng.sample(sorted(unselected, key=repr), negative_count) if negative_count else []
    )
    return Sample(positives, negatives)


#: Ints past 9 (``repr`` puts 10 before 2) and short strings of digits and
#: letters: id order, insertion order and ``repr`` order all differ.
NAMES = st.one_of(st.integers(0, 60), st.text("x2'", min_size=1, max_size=3))


@st.composite
def shuffled_graphs(draw):
    """A small graph over labels ``a``, ``b`` and an unused ``c``, its nodes
    inserted in a drawn order."""
    nodes = draw(st.lists(NAMES, min_size=2, max_size=40, unique=True))
    pick = st.sampled_from(nodes)
    edges = draw(st.lists(st.tuples(pick, st.sampled_from("ab"), pick), max_size=60))
    graph = GraphDB(["a", "b", "c"])
    graph.add_nodes(draw(st.permutations(nodes)))
    graph.add_edges(edges)
    return graph

