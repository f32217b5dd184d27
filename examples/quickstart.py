"""Quickstart: learn the paper's running-example query from a handful of labels.

The graph is the geographical database of Figure 1 (neighborhoods connected
by tram/bus, with cinema and restaurant facilities).  The "user" wants the
query ``(tram+bus)*.cinema`` -- the neighborhoods from which a cinema is
reachable by public transportation -- but only ever provides positive and
negative node labels.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import PathQuery, QueryEngine, Sample, learn_with_dynamic_k
from repro.datasets import geo_graph
from repro.evaluation import score_query


def main() -> None:
    graph = geo_graph()
    engine = QueryEngine()  # every evaluation below runs on this one engine
    goal = PathQuery.parse("(tram+bus)*.cinema", graph.alphabet)

    print("Graph:", graph)
    print("Goal query (hidden from the learner):", goal.expression)
    print("Nodes selected by the goal:", sorted(goal.evaluate(graph, engine=engine)))
    print()

    # The labels from the paper's introduction: N2 and N6 are wanted, N5 is not.
    sample = Sample(positives={"N2", "N6"}, negatives={"N5"})
    result = learn_with_dynamic_k(graph, sample, engine=engine)
    print("After the introduction's three labels (+N2, +N6, -N5):")
    print("  learned query:", result.query.expression)
    print("  selected nodes:", sorted(result.query.evaluate(graph, engine=engine)))
    scores = score_query(result.query, goal, graph, engine=engine)
    print(f"  F1 against the goal: {scores.f1:.2f}")
    print()

    # A richer sample pins the goal down exactly.
    richer = Sample(
        positives={"N1", "N2", "N4", "N6"},
        negatives={"N3", "N5", "C1", "R1"},
    )
    result = learn_with_dynamic_k(graph, richer, engine=engine)
    print("After labeling four positives and four negatives:")
    print("  learned query:", result.query.expression)
    print("  selected nodes:", sorted(result.query.evaluate(graph, engine=engine)))
    scores = score_query(result.query, goal, graph, engine=engine)
    print(f"  F1 against the goal: {scores.f1:.2f}")
    print()
    print(
        "The learned query selects exactly the same neighborhoods as the goal"
        " -- the user never wrote a regular expression."
    )


if __name__ == "__main__":
    main()
