"""The static-scenario experiment driver (Figures 11 and 12).

Setup, following Section 5.2: given a graph and a goal query, draw random
positive examples among the nodes the goal selects and random negative
examples among the rest, hand the sample to the learner, and measure the F1
score of the learned query (as a classifier for the goal) and the learning
time.  The sweep over "percentage of labeled nodes" produces the series
plotted in Figures 11 (F1) and 12 (time, seconds).
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from repro.engine.engine import QueryEngine
from repro.errors import LearningError, SerializationError
from repro.evaluation.metrics import f1_score
from repro.evaluation.workloads import Workload
from repro.graphdb.graph import GraphDB, Node
from repro.learning.learner import LearnerResult, learn_with_dynamic_k
from repro.learning.baselines import learn_scp_disjunction
from repro.learning.sample import Sample
from repro.queries.path_query import PathQuery

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.api
    from repro.api.config import ExperimentConfig


@dataclass(frozen=True)
class StaticPoint:
    """One measurement of the static sweep."""

    labeled_fraction: float
    positives: int
    negatives: int
    f1: float
    learning_seconds: float
    learned_expression: str | None
    k: int


@dataclass
class StaticExperimentResult:
    """The full series of one workload's static sweep.

    Implements the uniform :class:`repro.api.Result` protocol: ``ok``,
    ``query``, ``elapsed`` and a JSON-safe ``to_dict``/``from_dict`` pair.
    """

    workload_name: str
    goal_expression: str
    goal_selectivity: float
    points: list[StaticPoint] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """Result protocol: True iff the sweep produced at least one point."""
        return bool(self.points)

    @property
    def query(self) -> str | None:
        """Result protocol: the final learned expression of the sweep, if any."""
        for point in reversed(self.points):
            if point.learned_expression is not None:
                return point.learned_expression
        return None

    def f1_series(self) -> list[tuple[float, float]]:
        """(labeled fraction, F1) pairs -- the Figure 11 series."""
        return [(point.labeled_fraction, point.f1) for point in self.points]

    def time_series(self) -> list[tuple[float, float]]:
        """(labeled fraction, seconds) pairs -- the Figure 12 series."""
        return [(point.labeled_fraction, point.learning_seconds) for point in self.points]

    def labels_needed_for_f1(self, threshold: float = 1.0) -> float | None:
        """The smallest labeled fraction reaching the given F1, if any.

        This is the "labels needed for F1 score = 1 without interactions"
        column of Table 2.
        """
        for point in self.points:
            if point.f1 >= threshold:
                return point.labeled_fraction
        return None

    # -- serialization (Result protocol) -------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe snapshot; round-trips through :meth:`from_dict`."""
        return {
            "type": "StaticExperimentResult",
            "ok": self.ok,
            "elapsed": self.elapsed,
            "query": self.query,
            "workload_name": self.workload_name,
            "goal_expression": self.goal_expression,
            "goal_selectivity": self.goal_selectivity,
            "points": [asdict(point) for point in self.points],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StaticExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        try:
            return cls(
                workload_name=payload["workload_name"],
                goal_expression=payload["goal_expression"],
                goal_selectivity=payload["goal_selectivity"],
                points=[StaticPoint(**point) for point in payload.get("points", [])],
                elapsed=payload.get("elapsed", 0.0),
            )
        except (KeyError, TypeError) as error:
            raise SerializationError(
                f"malformed StaticExperimentResult payload: {error}"
            ) from error


def draw_sample(
    graph: GraphDB,
    goal: PathQuery,
    *,
    labeled_fraction: float,
    rng: random.Random,
    positive_share: float | None = None,
    engine: QueryEngine,
) -> Sample:
    """Draw a random sample of the requested size, labeled by the goal query.

    ``positive_share`` fixes the proportion of positives among the labeled
    nodes; by default the labels follow the goal query's own selectivity
    (labeling uniformly random nodes), but at least one positive and one
    negative are always included when the goal makes both possible.

    Positives are drawn from the goal's answer and negatives from its
    complement, each listed in ``repr`` order (ties by node id), so a seed
    draws the same sample whatever order the graph holds its nodes in.
    """
    if not 0.0 < labeled_fraction <= 1.0:
        raise LearningError("labeled_fraction must be in (0, 1]")
    if positive_share is not None and not 0.0 <= positive_share <= 1.0:
        raise LearningError("positive_share must be in [0, 1]")
    selected = engine.answer(graph, goal)
    unselected = selected.complement()
    total = max(2, int(round(labeled_fraction * graph.node_count())))
    if positive_share is None:
        positive_share = len(selected) / graph.node_count() if graph.node_count() else 0.0
    positive_count = int(round(total * positive_share))
    if selected:
        positive_count = min(max(positive_count, 1), len(selected))
    else:
        positive_count = 0
    negative_count = min(total - positive_count, len(unselected))
    if unselected and negative_count == 0:
        negative_count = 1

    positives: list[Node] = (
        rng.sample(selected.in_repr_order(), positive_count) if positive_count else []
    )
    negatives: list[Node] = (
        rng.sample(unselected.in_repr_order(), negative_count) if negative_count else []
    )
    return Sample(positives, negatives)


def run_static_experiment(
    workload: Workload, config: "ExperimentConfig", *, engine: QueryEngine
) -> StaticExperimentResult:
    """Run the static sweep of Section 5.2 for one workload.

    ``config.use_generalization=False`` replaces the learner with the
    disjunction-of-SCPs baseline (the A1 ablation).

    ``engine`` is the query engine used throughout the sweep: sampling, F1
    scoring *and* the learner's merge guard and line-6 walks (of the positives
    without an SCP) run on it, so per-engine stats account for the whole experiment
    (:meth:`repro.api.Workspace.run_experiment` passes the workspace's).
    """
    rng = random.Random(config.seed)
    graph, goal = workload.graph, workload.query
    # Warm the CSR index up front so the per-point timings measure learning,
    # not the one-off index build.
    engine.index_for(graph)
    sweep_started = time.perf_counter()
    result = StaticExperimentResult(
        workload_name=workload.name,
        goal_expression=goal.expression,
        goal_selectivity=workload.selectivity(engine=engine),
    )
    for fraction in config.labeled_fractions:
        sample = draw_sample(
            graph, goal, labeled_fraction=fraction, rng=rng, engine=engine
        )
        started = time.perf_counter()
        learn_result: LearnerResult
        if config.use_generalization:
            learn_result = learn_with_dynamic_k(
                graph, sample, k_start=config.k_start, k_max=config.k_max, engine=engine
            )
        else:
            learn_result = learn_scp_disjunction(graph, sample, k=config.k_max, engine=engine)
        elapsed = time.perf_counter() - started
        # Score the best-effort hypothesis: a strict null answer would show up
        # as F1 = 0 and hide the gradual convergence the paper's plots show.
        score = f1_score(learn_result.best_effort_query, goal, graph, engine=engine)
        result.points.append(
            StaticPoint(
                labeled_fraction=fraction,
                positives=len(sample.positives),
                negatives=len(sample.negatives),
                f1=score,
                learning_seconds=elapsed,
                learned_expression=(
                    None if learn_result.is_null else learn_result.query.expression
                ),
                k=learn_result.k,
            )
        )
    result.elapsed = time.perf_counter() - sweep_started
    return result
