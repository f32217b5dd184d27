"""Interactive learning (Section 4): the system proposes nodes, the user labels them.

A simulated user wants the query ``(a.b)*.c`` on the paper's example graph
G0 and, separately, a synthetic goal on a 1,000-node scale-free graph.  The
interactive loop starts from an empty sample, proposes informative nodes
with the kS strategy, and stops when the learned query selects exactly the
same nodes as the goal.

Run with:  python examples/interactive_session.py
"""

from __future__ import annotations

from repro import InteractiveSession, PathQuery, QueryEngine, QueryOracle, make_strategy
from repro.datasets import example_graph_g0, scale_free_graph
from repro.evaluation import f1_score


def run_on(graph, goal: PathQuery, *, strategy_name: str, max_interactions: int) -> None:
    engine = QueryEngine()  # the oracle, the session and the scoring share it
    print(f"Goal query: {goal.expression}")
    print(f"Graph: {graph} -- goal selects {len(goal.evaluate(graph, engine=engine))} nodes")
    oracle = QueryOracle(goal, engine=engine)
    strategy = make_strategy(strategy_name, seed=1)
    outcome = InteractiveSession(
        graph, oracle, strategy, max_interactions=max_interactions, engine=engine
    ).run()
    print(f"Strategy {strategy_name}: {outcome.interaction_count} labels "
          f"({100 * outcome.labels_fraction(graph):.2f}% of the nodes), "
          f"halted by {outcome.halted_by!r}")
    for interaction in outcome.interactions[:6]:
        print(
            f"  #{interaction.index + 1}: node {interaction.node!r} labeled "
            f"{interaction.label}  ->  learned: {interaction.learned_expression}"
        )
    if outcome.interaction_count > 6:
        print(f"  ... {outcome.interaction_count - 6} more interactions ...")
    learned = outcome.query
    print("Final learned query:", None if learned is None else learned.expression)
    print(f"F1 against the goal: {f1_score(learned, goal, graph, engine=engine):.3f}")
    print()


def main() -> None:
    print("=== Interactive learning on the paper's example graph G0 ===")
    g0 = example_graph_g0()
    run_on(
        g0,
        PathQuery.parse("(a.b)*.c", g0.alphabet),
        strategy_name="kS",
        max_interactions=15,
    )

    print("=== Interactive learning on a 1,000-node synthetic graph ===")
    graph = scale_free_graph(1000, alphabet_size=10, seed=5)
    goal = PathQuery.parse("(l00+l02).(l01+l03).(l00+l01)*", graph.alphabet)
    run_on(graph, goal, strategy_name="kS", max_interactions=150)


if __name__ == "__main__":
    main()
