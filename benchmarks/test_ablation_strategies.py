"""Ablation A3 -- interactive strategies: kR vs kS vs naive random.

Section 4.2 introduces the informativeness-aware strategies and Section 5.3
observes that kR and kS behave similarly (kS slightly better on the most
selective queries).  This benchmark runs the three strategies on the same
workloads and compares the labeling effort needed to reach the F1 target.
"""

from __future__ import annotations

from repro.api import ExperimentConfig
from repro.evaluation.interactive import run_interactive_experiment

STRATEGIES = ("kR", "kS", "random")
TARGET_F1 = 0.95


def _compare(workloads, budget, engine):
    config = ExperimentConfig(
        seed=9, k_start=2, k_max=3, max_interactions=budget, target_f1=TARGET_F1
    )
    return {
        workload.name: [
            run_interactive_experiment(
                workload, config.replace(strategy=strategy), engine=engine
            )
            for strategy in STRATEGIES
        ]
        for workload in workloads
    }


def test_ablation_strategies(benchmark, bench_scale, bio_workload_subset, engine):
    # The most and the least selective of the benchmarked biological queries.
    by_name = {w.name: w for w in bio_workload_subset}
    workloads = [by_name[name] for name in (bio_workload_subset[0].name, bio_workload_subset[-1].name)]
    budget = bench_scale.interactive_budget

    rows = benchmark.pedantic(_compare, args=(workloads, budget, engine), rounds=1, iterations=1)

    print()
    print(f"strategy comparison (halt at F1 >= {TARGET_F1}):")
    for workload_name, results in rows.items():
        for row in results:
            print(
                f"  {workload_name} / {row.strategy:7s}: {row.interactions:4d} labels "
                f"({100 * row.labeled_fraction:.2f}%)  final F1 {row.final_f1:.3f}  "
                f"halted by {row.halted_by}"
            )

    for results in rows.values():
        # Sanity of every row; the informed-vs-naive comparison is only
        # meaningful when both reached the halt target within the budget
        # (ultra-selective goals are a needle-in-a-haystack for any
        # label-only strategy at reduced scale -- see EXPERIMENTS.md).
        for row in results:
            assert 0.0 <= row.final_f1 <= 1.0
            assert row.mean_seconds_between_interactions < 60.0
        informed = [r for r in results if r.strategy in ("kR", "kS") and r.reached_goal]
        naive = [r for r in results if r.strategy == "random" and r.reached_goal]
        if informed and naive:
            best_informed = min(row.interactions for row in informed)
            slack = max(10, naive[0].interactions // 2)
            assert best_informed <= naive[0].interactions + slack
