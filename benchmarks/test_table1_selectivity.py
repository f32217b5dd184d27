"""Experiment E1 -- Table 1: the biological queries and their selectivities.

The paper reports six real-life queries on the AliBaba graph with
selectivities from 0.03% to 22%.  This benchmark evaluates the reproduced
queries on the AliBaba-like graph, prints the reproduced table next to the
paper's numbers, and times full query evaluation (the paper's substrate for
selectivity measurement).
"""

from __future__ import annotations

from repro.evaluation.reporting import render_table1
from repro.queries import selectivity_report

PAPER_SELECTIVITY_PERCENT = {
    "bio1": 0.03,
    "bio2": 0.2,
    "bio3": 3.0,
    "bio4": 11.0,
    "bio5": 12.0,
    "bio6": 22.0,
}


def test_table1_selectivities(benchmark, bio_workloads, engine):
    graph = bio_workloads[0].graph
    queries = {workload.name: workload.query for workload in bio_workloads}

    def evaluate_all():
        return selectivity_report(queries, graph, engine=engine)

    report = benchmark(evaluate_all)

    print()
    print(render_table1(report))
    print()
    print("paper vs reproduced selectivity (percent of graph nodes):")
    for name in sorted(queries):
        reproduced = float(report[name]["selectivity_percent"])
        print(f"  {name}: paper {PAPER_SELECTIVITY_PERCENT[name]:6.2f}%   "
              f"reproduced {reproduced:6.2f}%")

    # Shape checks: selectivities span three orders of magnitude and keep the
    # paper's ordering between the most and least selective queries.
    assert float(report["bio1"]["selectivity"]) < float(report["bio3"]["selectivity"])
    assert float(report["bio3"]["selectivity"]) < float(report["bio6"]["selectivity"])
    assert float(report["bio1"]["selectivity_percent"]) < 1.0
    assert float(report["bio6"]["selectivity_percent"]) > 10.0
