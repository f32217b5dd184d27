"""Ablation A1 -- the generalization step (Section 5.2's "about 1% of F1").

Runs the static scenario twice on the same samples: once with the full
learner (SCP selection + state-merging generalization) and once with the
disjunction-of-SCPs baseline, and compares the F1 scores.  The paper notes
the aggregate effect is small on its workloads, but the generalization step
is what makes starred queries (e.g. the running example) learnable at all --
both facts are checked here.
"""

from __future__ import annotations

from repro.api import ExperimentConfig
from repro.datasets import example_graph_g0
from repro.evaluation.static import run_static_experiment
from repro.learning import Sample, learn_path_query, learn_scp_disjunction
from repro.queries import PathQuery


def _paired_sweep(workloads, fractions, engine):
    config = ExperimentConfig(labeled_fractions=fractions, seed=5, k_max=3)
    baseline = config.replace(use_generalization=False)
    return [
        (
            workload,
            run_static_experiment(workload, config, engine=engine),
            run_static_experiment(workload, baseline, engine=engine),
        )
        for workload in workloads
    ]


def test_ablation_generalization(benchmark, bench_scale, bio_workload_subset, engine):
    fractions = bench_scale.static_fractions[:2]
    pairs = benchmark.pedantic(
        _paired_sweep, args=(bio_workload_subset, fractions, engine), rounds=1, iterations=1
    )

    print()
    print("Ablation: full learner vs disjunction-of-SCPs baseline (F1)")
    for workload, full, baseline in pairs:
        for full_point, baseline_point in zip(full.points, baseline.points):
            delta = full_point.f1 - baseline_point.f1
            print(
                f"  {workload.name} @ {100 * full_point.labeled_fraction:.1f}% labels: "
                f"full {full_point.f1:.3f}  baseline {baseline_point.f1:.3f}  "
                f"delta {delta:+.3f}"
            )

    # Aggregate effect is modest (the paper reports ~1%); allow generous slack
    # but require the baseline not to be catastrophically different.
    for _, full, baseline in pairs:
        for full_point, baseline_point in zip(full.points, baseline.points):
            assert abs(full_point.f1 - baseline_point.f1) < 0.6


def test_generalization_is_required_for_starred_queries(benchmark, engine):
    # On the worked example, only the full learner recovers (a.b)*.c.
    graph = example_graph_g0()
    sample = Sample({"v1", "v3"}, {"v2", "v7"})
    goal = PathQuery.parse("(a.b)*.c", graph.alphabet)

    full = benchmark(lambda: learn_path_query(graph, sample, k=3, engine=engine))
    baseline = learn_scp_disjunction(graph, sample, k=3, engine=engine)

    print()
    print("worked example: full learner  ->", full.query.expression)
    print("worked example: SCP baseline  ->", baseline.query.expression)
    assert full.query.equivalent_to(goal)
    assert not baseline.query.equivalent_to(goal)
