"""One engine, passed in: every Workspace operation does all its work --
index builds and kernel units -- on the workspace's own engine, and nothing in
the library can fall back to a process-wide one."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.api import ExperimentConfig, InteractiveConfig, LearnerConfig, Workspace
from repro.datasets import geo_graph
from repro.engine import GraphIndex, KernelStats
from repro.learning import BinarySample, NarySample, Sample, learn_path_query

GOAL = "(tram+bus)*.cinema"
SAMPLE = Sample(positives={"N2", "N6"}, negatives={"N5"})

OPERATIONS = {
    "learn-path": lambda ws: ws.learn(SAMPLE),
    "learn-path-baseline": lambda ws: ws.learn(SAMPLE, LearnerConfig(generalize=False)),
    "learn-binary": lambda ws: ws.learn(
        BinarySample(positives={("N2", "N5")}, negatives={("N4", "N5")})
    ),
    "learn-nary": lambda ws: ws.learn(
        NarySample(positives={("N2", "N5", "N3")}, negatives={("N4", "N5", "R1")})
    ),
    "experiment-static": lambda ws: ws.run_experiment(
        ExperimentConfig(goal=GOAL, labeled_fractions=(0.3, 0.6))
    ),
    "experiment-static-baseline": lambda ws: ws.run_experiment(
        ExperimentConfig(goal=GOAL, labeled_fractions=(0.3, 0.6), use_generalization=False)
    ),
    "experiment-interactive": lambda ws: ws.run_experiment(
        ExperimentConfig(goal=GOAL, scenario="interactive", max_interactions=10)
    ),
    "learn-interactive": lambda ws: ws.learn_interactive(
        GOAL, InteractiveConfig(max_interactions=10)
    ),
}


@pytest.fixture
def work(monkeypatch) -> dict:
    """Process-wide tallies from here on: every graph a ``GraphIndex`` is built
    for, and every kernel unit any walk flushes into any ``KernelStats``."""
    tally = {"indexed": [], "states": 0, "edges": 0}
    build = GraphIndex.build.__func__
    add = KernelStats.add

    def counting_build(cls, graph):
        tally["indexed"].append(graph)
        return build(cls, graph)

    def counting_add(self, states, edges):
        tally["states"] += states
        tally["edges"] += edges
        add(self, states, edges)

    monkeypatch.setattr(GraphIndex, "build", classmethod(counting_build))
    monkeypatch.setattr(KernelStats, "add", counting_add)
    return tally


#: Operations that run no kernel walk: the SCP-disjunction baseline selects
#: its SCPs on the negatives' frontier automaton, and its query misses exactly
#: the positives without an SCP, so its positives check walks nothing.
NO_WALK = {"learn-path-baseline"}


@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_operation_runs_on_the_workspace_engine_only(operation, work):
    ws = Workspace(geo_graph())
    OPERATIONS[operation](ws)
    assert work["indexed"] == [ws.graph]
    stats = ws.stats()
    assert stats["index_builds"] == 1
    assert (work["states"] > 0) == (operation not in NO_WALK)
    assert (stats["states_expanded"], stats["edges_scanned"]) == (work["states"], work["edges"])


def test_importing_the_package_constructs_no_engine():
    probe = (
        "import gc, repro; "
        "print(sum(isinstance(o, repro.QueryEngine) for o in gc.get_objects()))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "0"


def test_a_forgotten_engine_is_a_type_error():
    with pytest.raises(TypeError, match="engine"):
        learn_path_query(geo_graph(), SAMPLE)
