"""Mining scientific workflows by example (the introduction's second use case).

A biologist wants every workflow run whose steps match
``ProteinPurification . ProteinSeparation* . MassSpectrometry`` but does not
know regular expressions.  She labels a few run entry points as positive or
negative; the learner recovers the pattern.

Run with:  python examples/workflow_mining.py
"""

from __future__ import annotations

from repro import PathQuery, QueryEngine, Sample, learn_with_dynamic_k
from repro.datasets import workflow_graph
from repro.datasets.workflows import workflow_goal_query
from repro.evaluation import score_query


def main() -> None:
    graph = workflow_graph(matching_runs=6, other_runs=14, seed=3)
    engine = QueryEngine()  # every evaluation below runs on this one engine
    goal = PathQuery.parse(workflow_goal_query(), graph.alphabet)

    print("Workflow graph:", graph)
    print("Hidden pattern:", goal.expression)

    run_starts = sorted(node for node in graph.nodes if str(node).endswith("_s0"))
    matching = [node for node in run_starts if goal.selects(graph, node, engine=engine)]
    non_matching = [node for node in run_starts if not goal.selects(graph, node, engine=engine)]
    print(f"{len(matching)} of {len(run_starts)} workflow runs match the pattern")
    print()

    # The biologist labels three matching runs and four non-matching ones.
    sample = Sample(positives=set(matching[:3]), negatives=set(non_matching[:4]))
    print("Labels provided:")
    for node in sorted(sample.positives):
        print(f"  + {node}")
    for node in sorted(sample.negatives):
        print(f"  - {node}")

    result = learn_with_dynamic_k(graph, sample, k_max=6, engine=engine)
    print()
    print("Learned pattern:", result.query.expression)

    scores = score_query(result.query, goal, graph, engine=engine)
    learned_runs = {
        node
        for node in result.query.evaluate(graph, engine=engine)
        if str(node).endswith("_s0")
    }
    print(f"Runs retrieved by the learned pattern: {len(learned_runs)}")
    print(f"F1 against the hidden pattern (all graph nodes): {scores.f1:.2f}")
    missing = set(matching) - learned_runs
    spurious = learned_runs - set(matching)
    print("Missed matching runs:", sorted(missing) or "none")
    print("Spuriously retrieved runs:", sorted(spurious) or "none")


if __name__ == "__main__":
    main()
