"""Experiment E3 -- Figure 12: static scenario, learning time vs. fraction of labeled nodes.

Same sweep as Figure 11 but reporting the learning time.  The paper's
qualitative findings: learning time stays in the seconds range, and grows
with the number of labeled nodes -- most visibly for the less selective
queries (bio4-bio6, syn2-syn3), which entail more positive nodes in the SCP
selection step.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentConfig
from repro.evaluation.reporting import render_figure12
from repro.evaluation.static import run_static_experiment


def _sweep(workloads, fractions, engine):
    config = ExperimentConfig(labeled_fractions=fractions, seed=1, k_start=2, k_max=3)
    return [run_static_experiment(workload, config, engine=engine) for workload in workloads]


@pytest.mark.parametrize("family", ["biological", "synthetic"])
def test_fig12_static_time(
    benchmark, family, bench_scale, bio_workload_subset, syn_workloads_smallest, engine
):
    workloads = bio_workload_subset if family == "biological" else syn_workloads_smallest
    fractions = bench_scale.static_fractions

    results = benchmark.pedantic(
        _sweep, args=(workloads, fractions, engine), rounds=1, iterations=1
    )

    print()
    print(render_figure12(results))

    for result in results:
        times = [seconds for _, seconds in result.time_series()]
        assert all(seconds >= 0.0 for seconds in times)
        # Learning stays within the "order of seconds" regime of the paper
        # (generously bounded here to keep the assertion robust across hosts).
        assert max(times) < 120.0
