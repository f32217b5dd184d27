"""The biological workload: Table 1 queries on the AliBaba-like graph.

Builds the synthetic stand-in for the AliBaba protein-interaction graph,
reports the selectivity of the six Table 1 queries, and learns one of them
(bio3 = C.E) both from a fixed random sample and interactively.

Run with:  python examples/biological_queries.py
"""

from __future__ import annotations

import random

from repro import InteractiveSession, QueryEngine, QueryOracle, make_strategy
from repro.evaluation import f1_score, render_table1
from repro.evaluation.static import draw_sample
from repro.evaluation.workloads import biological_workloads
from repro.learning import learn_with_dynamic_k
from repro.queries import selectivity_report


def main() -> None:
    # A reduced-scale AliBaba-like graph keeps the example fast; pass
    # node_count=3000, edge_count=8000 for the paper-scale graph.
    workloads = biological_workloads(node_count=1000, edge_count=2700, seed=7)
    graph = workloads[0].graph
    engine = QueryEngine()  # every evaluation below runs on this one engine
    print("AliBaba-like graph:", graph)
    print()

    report = selectivity_report({w.name: w.query for w in workloads}, graph, engine=engine)
    print(render_table1(report))
    print()

    bio3 = next(w for w in workloads if w.name == "bio3")
    print(f"Learning {bio3.name} ({bio3.description}) from a fixed random sample:")
    rng = random.Random(1)
    sample = draw_sample(graph, bio3.query, labeled_fraction=0.05, rng=rng, engine=engine)
    result = learn_with_dynamic_k(graph, sample, k_max=4, engine=engine)
    learned = result.best_effort_query
    static_f1 = f1_score(learned, bio3.query, graph, engine=engine)
    print(f"  {len(sample)} labels -> F1 = {static_f1:.3f}")
    print(f"  learned: {learned.expression[:100]}")
    print()

    print(f"Learning {bio3.name} interactively (kS strategy):")
    outcome = InteractiveSession(
        graph,
        QueryOracle(bio3.query, satisfaction_threshold=0.95, engine=engine),
        make_strategy("kS", seed=2),
        max_interactions=150,
        engine=engine,
    ).run()
    print(
        f"  {outcome.interaction_count} labels "
        f"({100 * outcome.labels_fraction(graph):.2f}% of nodes) -> "
        f"F1 = {f1_score(outcome.query, bio3.query, graph, engine=engine):.3f} "
        f"(halted by {outcome.halted_by!r})"
    )


if __name__ == "__main__":
    main()
