"""Experiment E2 -- Figure 11: static scenario, F1 score vs. fraction of labeled nodes.

For each workload (a subset of the biological queries plus syn1-syn3 on the
smallest synthetic graph), random node labels are drawn at several labeled
fractions, the learner runs on each sample, and the F1 score of the learned
query against the goal is reported.  The paper's qualitative findings to
reproduce: F1 grows with the number of labels, more selective goals need
more labels, and several percent of the graph must be labeled before F1
approaches 1 (which is what motivates the interactive scenario).
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentConfig
from repro.evaluation.reporting import render_figure11
from repro.evaluation.static import run_static_experiment


def _sweep(workloads, fractions, engine):
    config = ExperimentConfig(labeled_fractions=fractions, seed=0, k_start=2, k_max=3)
    return [run_static_experiment(workload, config, engine=engine) for workload in workloads]


@pytest.mark.parametrize("family", ["biological", "synthetic"])
def test_fig11_static_f1(
    benchmark, family, bench_scale, bio_workload_subset, syn_workloads_smallest, engine
):
    workloads = bio_workload_subset if family == "biological" else syn_workloads_smallest
    fractions = bench_scale.static_fractions

    results = benchmark.pedantic(
        _sweep, args=(workloads, fractions, engine), rounds=1, iterations=1
    )

    print()
    print(render_figure11(results))

    for result in results:
        f1_values = [f1 for _, f1 in result.f1_series()]
        # Shape check: more labels never hurt much -- the final (largest
        # fraction) F1 is at least as good as the first one minus noise.
        assert f1_values[-1] >= f1_values[0] - 0.15
        # And the learner always produces a meaningful classifier by the end.
        assert f1_values[-1] > 0.3
