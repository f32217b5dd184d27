"""Experiment E4 -- Table 2: the interactive scenario.

For each workload and each strategy (kR and kS), run the interactive loop
from an empty sample until the learned query matches the goal (or the
interaction budget runs out), and report the fraction of nodes that had to
be labeled together with the time between interactions.  The paper's
qualitative findings to reproduce: the interactive scenario needs far fewer
labels than the static one to reach the same quality, the two strategies
behave similarly, and the time between interactions stays in the seconds
range.

Our implementation reaches F1 = 1 with few labels on the selective queries;
for the broadest queries it approaches but does not always reach exact
equality within the budget -- EXPERIMENTS.md discusses this deviation.  The
halt threshold used here is F1 >= 0.95 (one of the paper's "user satisfied
by an intermediate query" conditions) so that every row reports a
comparable labeling effort.
"""

from __future__ import annotations

from repro.api import ExperimentConfig
from repro.evaluation.interactive import run_interactive_experiment
from repro.evaluation.reporting import render_table2
from repro.evaluation.static import run_static_experiment

PAPER_INTERACTIVE_PERCENT = {
    # workload: (static labels needed %, kR %, kS %) from Table 2
    "bio1": (7.0, 0.06, 0.06),
    "bio2": (7.0, 1.78, 3.13),
    "bio3": (66.0, 1.24, 1.49),
    "bio4": (12.0, 1.32, 0.22),
    "bio5": (87.0, 7.7, 7.39),
    "bio6": (12.0, 1.18, 0.35),
}

TARGET_F1 = 0.95


def _run_rows(workloads, budget, engine):
    config = ExperimentConfig(
        seed=3, k_start=2, k_max=3, max_interactions=budget, target_f1=TARGET_F1
    )
    return [
        run_interactive_experiment(workload, config.replace(strategy=strategy), engine=engine)
        for workload in workloads
        for strategy in ("kR", "kS")
    ]


def test_table2_interactive(
    benchmark, bench_scale, bio_workload_subset, syn_workloads_smallest, engine
):
    workloads = list(bio_workload_subset) + list(syn_workloads_smallest)
    budget = bench_scale.interactive_budget

    rows = benchmark.pedantic(_run_rows, args=(workloads, budget, engine), rounds=1, iterations=1)

    # The "without interactions" column: labels the static scenario needs to
    # reach the same F1 target, measured on the same workloads.
    static_config = ExperimentConfig(
        labeled_fractions=bench_scale.static_fractions, seed=3, k_max=3
    )
    static_needed = {
        workload.name: run_static_experiment(
            workload, static_config, engine=engine
        ).labels_needed_for_f1(TARGET_F1)
        for workload in workloads
    }

    print()
    print(render_table2(rows, static_needed))
    print()
    print("paper Table 2 (strongest halt condition, F1 = 1), for reference:")
    for name, (static_pct, kr_pct, ks_pct) in PAPER_INTERACTIVE_PERCENT.items():
        print(f"  {name}: static {static_pct}%  kR {kr_pct}%  kS {ks_pct}%")

    # Shape checks.
    for row in rows:
        assert row.mean_seconds_between_interactions < 60.0
    # The headline claim: wherever the static scenario needed a measurable
    # fraction of labels, the interactive scenario needed no more.
    for row in rows:
        static_fraction = static_needed.get(row.workload_name)
        if static_fraction is not None and row.reached_goal:
            assert row.labeled_fraction <= static_fraction + 1e-9
