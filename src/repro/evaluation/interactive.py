"""The interactive-scenario experiment driver (Table 2).

Setup, following Section 5.3: start with an empty sample; repeatedly choose
a node with the strategy under test, ask the (simulated) user to label it,
and re-learn, until the learned query selects exactly the same nodes as the
goal query (F1 = 1).  Measured quantities, per workload and strategy:

* the fraction of graph nodes that had to be labeled, and
* the average time between interactions (the time to compute the next node
  and re-learn).

The "labels needed without interactions" column of Table 2 comes from the
static driver (:func:`repro.evaluation.static.run_static_experiment`).
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING

from repro.engine.engine import QueryEngine
from repro.errors import LearningError, SerializationError
from repro.evaluation.metrics import f1_score
from repro.evaluation.workloads import Workload
from repro.interactive.oracle import QueryOracle
from repro.interactive.scenario import InteractiveSession
from repro.interactive.strategies import make_strategy

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.api
    from repro.api.config import ExperimentConfig


@dataclass(frozen=True)
class InteractiveExperimentResult:
    """One row of Table 2 (one workload, one strategy).

    Implements the uniform :class:`repro.api.Result` protocol: ``ok``,
    ``query``, ``elapsed`` and a JSON-safe ``to_dict``/``from_dict`` pair.
    """

    workload_name: str
    strategy: str
    goal_selectivity: float
    interactions: int
    labeled_fraction: float
    mean_seconds_between_interactions: float
    final_f1: float
    halted_by: str
    learned_expression: str | None
    elapsed: float = 0.0

    @property
    def reached_goal(self) -> bool:
        """Whether the session stopped because the learned query matched the goal."""
        return self.halted_by == "goal"

    @property
    def ok(self) -> bool:
        """Result protocol: True iff the session reached the goal query."""
        return self.reached_goal

    @property
    def query(self) -> str | None:
        """Result protocol: the learned expression of the session, if any."""
        return self.learned_expression

    # -- serialization (Result protocol) -------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe snapshot; round-trips through :meth:`from_dict`."""
        return {
            "type": "InteractiveExperimentResult",
            "ok": self.ok,
            "elapsed": self.elapsed,
            "query": self.query,
            "workload_name": self.workload_name,
            "strategy": self.strategy,
            "goal_selectivity": self.goal_selectivity,
            "interactions": self.interactions,
            "labeled_fraction": self.labeled_fraction,
            "mean_seconds_between_interactions": self.mean_seconds_between_interactions,
            "final_f1": self.final_f1,
            "halted_by": self.halted_by,
            "learned_expression": self.learned_expression,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "InteractiveExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        try:
            return cls(
                workload_name=payload["workload_name"],
                strategy=payload["strategy"],
                goal_selectivity=payload["goal_selectivity"],
                interactions=payload["interactions"],
                labeled_fraction=payload["labeled_fraction"],
                mean_seconds_between_interactions=payload[
                    "mean_seconds_between_interactions"
                ],
                final_f1=payload["final_f1"],
                halted_by=payload["halted_by"],
                learned_expression=payload.get("learned_expression"),
                elapsed=payload.get("elapsed", 0.0),
            )
        except (KeyError, TypeError) as error:
            raise SerializationError(
                f"malformed InteractiveExperimentResult payload: {error}"
            ) from error


def run_interactive_experiment(
    workload: Workload, config: "ExperimentConfig", *, engine: QueryEngine
) -> InteractiveExperimentResult:
    """Run the interactive scenario for one workload and one strategy.

    ``config.max_interactions`` defaults to 10% of the graph's nodes, a
    generous budget given that the paper's interactive runs stay below 8%.
    ``config.target_f1`` is the halt threshold: 1.0 reproduces the paper's
    strongest condition, lower values model a user satisfied by an
    intermediate query.  ``engine`` is the query engine used throughout: the
    oracle's goal evaluation, the loop's learner and halt checks and the
    final F1 scoring all run on it, so per-engine cache stats account for the
    whole experiment (:meth:`repro.api.Workspace.run_experiment` passes the
    workspace's).
    """
    graph, goal = workload.graph, workload.query
    engine.index_for(graph)
    max_interactions = config.max_interactions
    if max_interactions is None:
        max_interactions = max(20, graph.node_count() // 10)
    started = time.perf_counter()
    oracle = QueryOracle(goal, satisfaction_threshold=config.target_f1, engine=engine)
    strategy = make_strategy(config.strategy, seed=config.seed, pool_size=config.pool_size)
    outcome = InteractiveSession(
        graph,
        oracle,
        strategy,
        k_start=config.k_start,
        k_max=config.k_max,
        max_interactions=max_interactions,
        engine=engine,
    ).run()
    final_f1 = f1_score(outcome.query, goal, graph, engine=engine)
    return InteractiveExperimentResult(
        workload_name=workload.name,
        strategy=strategy.name,
        goal_selectivity=workload.selectivity(engine=engine),
        interactions=outcome.interaction_count,
        labeled_fraction=outcome.labels_fraction(graph),
        mean_seconds_between_interactions=outcome.mean_seconds_between_interactions,
        final_f1=final_f1,
        halted_by=outcome.halted_by,
        learned_expression=None if outcome.query is None else outcome.query.expression,
        elapsed=time.perf_counter() - started,
    )


# -- the multi-session simulation grid -----------------------------------------


@dataclass(frozen=True)
class SimulationTask:
    """One cell of the strategy x seed x workload simulation grid.

    Self-contained and picklable: a worker process receives the task, builds
    its own :class:`~repro.engine.QueryEngine` (engines and their caches are
    per-process by design) and runs one full interactive session.
    """

    workload: Workload
    config: "ExperimentConfig"


def _run_simulation_task(task: SimulationTask) -> InteractiveExperimentResult:
    """Worker entry point: one grid cell, one fresh engine (module-level so
    it pickles under the spawn start method)."""
    return run_interactive_experiment(task.workload, task.config, engine=QueryEngine())


def run_interactive_grid(
    workloads: Sequence[Workload],
    config: "ExperimentConfig",
    *,
    strategies: Sequence[str] = ("kR", "kS"),
    seeds: Sequence[int] = (0,),
    max_workers: int | None = None,
) -> list[InteractiveExperimentResult]:
    """Simulate a whole grid of interactive sessions, optionally in parallel.

    The grid is the cartesian product workload x strategy x seed -- the
    shape of Table 2 plus repetition seeds; every cell runs ``config`` with
    its own ``strategy`` and ``seed``.  Sessions are independent (each
    one owns a fresh engine), so with ``max_workers > 1`` they run in a
    process pool; ``max_workers=1`` runs them inline in this process (the
    deterministic mode tests use), and ``max_workers=None`` picks
    ``min(cpu_count, number of tasks)``.  Results come back in grid order
    (workloads outermost, then strategies, then seeds) regardless of worker
    scheduling.
    """
    if max_workers is not None and max_workers < 1:
        raise LearningError("max_workers must be None or >= 1")
    tasks = [
        SimulationTask(workload, config.replace(strategy=strategy, seed=seed))
        for workload, strategy, seed in product(workloads, strategies, seeds)
    ]
    if not tasks:
        return []
    workers = max_workers
    if workers is None:
        workers = min(os.cpu_count() or 1, len(tasks))
    if workers <= 1 or len(tasks) == 1:
        return [_run_simulation_task(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_simulation_task, tasks, chunksize=1))
