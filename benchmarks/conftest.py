"""Shared configuration of the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable:

* ``small`` (default) -- reduced graph sizes so the whole harness finishes in
  a few minutes on a laptop;
* ``paper`` -- the paper's sizes (AliBaba-like 3k nodes / 8k edges, synthetic
  graphs of 10k/20k/30k nodes).  Expect a long run.

The printed output of each benchmark is the reproduced table/figure series;
EXPERIMENTS.md records the comparison against the published numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest

from repro.engine import QueryEngine
from repro.evaluation.workloads import Workload, biological_workloads, synthetic_workloads


@dataclass(frozen=True)
class BenchScale:
    """Graph sizes and experiment budgets for one benchmark scale."""

    name: str
    alibaba_nodes: int
    alibaba_edges: int
    synthetic_nodes: tuple[int, ...]
    static_fractions: tuple[float, ...]
    interactive_budget: int
    bio_subset: tuple[str, ...]


SCALES = {
    "small": BenchScale(
        name="small",
        alibaba_nodes=800,
        alibaba_edges=2200,
        synthetic_nodes=(1500,),
        static_fractions=(0.01, 0.03, 0.07, 0.15),
        interactive_budget=120,
        bio_subset=("bio1", "bio3", "bio6"),
    ),
    "paper": BenchScale(
        name="paper",
        alibaba_nodes=3000,
        alibaba_edges=8000,
        synthetic_nodes=(10000, 20000, 30000),
        static_fractions=(0.01, 0.03, 0.07, 0.15, 0.25),
        interactive_budget=400,
        bio_subset=("bio1", "bio2", "bio3", "bio4", "bio5", "bio6"),
    ),
}


def current_scale() -> BenchScale:
    """The benchmark scale selected via REPRO_BENCH_SCALE."""
    name = os.environ.get("REPRO_BENCH_SCALE", "small")
    if name not in SCALES:
        raise ValueError(f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}, got {name!r}")
    return SCALES[name]


@pytest.fixture(scope="session")
def engine() -> QueryEngine:
    """The engine the table/figure benchmarks share: the workloads reuse a few
    graphs, so their CSR indexes and goal results stay warm across benchmarks."""
    return QueryEngine()


@pytest.fixture(scope="session")
def bench_scale() -> BenchScale:
    """The active benchmark scale."""
    return current_scale()


@pytest.fixture(scope="session")
def bio_workloads(bench_scale) -> list[Workload]:
    """The biological workload (Table 1 queries on the AliBaba-like graph)."""
    return biological_workloads(
        node_count=bench_scale.alibaba_nodes,
        edge_count=bench_scale.alibaba_edges,
        seed=7,
    )


@pytest.fixture(scope="session")
def bio_workload_subset(bench_scale, bio_workloads) -> list[Workload]:
    """The subset of biological workloads exercised by the sweep benchmarks."""
    wanted = set(bench_scale.bio_subset)
    return [workload for workload in bio_workloads if workload.name in wanted]


@pytest.fixture(scope="session")
def syn_workloads(bench_scale) -> list[Workload]:
    """The synthetic workload (syn1-syn3 on scale-free Zipfian graphs)."""
    return synthetic_workloads(node_counts=bench_scale.synthetic_nodes, seed=11)


@pytest.fixture(scope="session")
def syn_workloads_smallest(syn_workloads, bench_scale) -> list[Workload]:
    """Only the smallest synthetic graph's workloads (for the costlier sweeps)."""
    smallest = min(bench_scale.synthetic_nodes)
    return [w for w in syn_workloads if w.name.endswith(f"@{smallest}")]
