"""The ``learn-static`` workload: the Figure 11/12 experiment, in process.

One operation is one dynamic-k learner call; they come in *sweeps*: the goals
syn1-syn3, each learned from seeded random samples at every labelled fraction
of the profile, through ``Workspace.run_experiment(scenario="static")``.  It uses the engine unlike
the serving workloads do -- thousands of early-exit, ephemeral
``any_selects``/``selects`` guard checks instead of cached whole-graph
``evaluate`` -- so a kernel change that helps ``serve-cold`` but hurts
early-exit checks shows here.
"""

from __future__ import annotations

import random
from time import perf_counter

from e2e_common import (
    DISTINCT_SHARE,
    EngineProxy,
    Pace,
    Tracer,
    build_graph,
    check_digest,
    derived_seed,
    digest,
    geometric_mean,
    mean,
    peak_rss_mb_self,
    percentile,
    quiesce,
    self_time,
    unattributed_share,
)


#: The dynamic-k range of Section 5.1's static experiments.
K_START, K_MAX = 2, 4


def goal_expressions() -> dict[str, str]:
    """syn1-syn3 (Section 5.1) as expression strings."""
    from repro.evaluation.workloads import synthetic_query_expressions

    return {name: str(expr) for name, expr in synthetic_query_expressions(20).items()}


def setup_workspace(spec: dict):
    """Generate the graph, wrap it in a workspace, build its CSR index."""
    from repro.api.workspace import Workspace

    started = perf_counter()
    workspace = Workspace(build_graph(spec), name="learn")
    workspace.engine.index_for(workspace.graph)
    return workspace, perf_counter() - started


def timed_setups(spec: dict):
    """Set up ``setup_repeats`` times; the last workspace is measured.

    Seconds at the quiet pace (:class:`e2e_common.Pace`).
    """
    seconds = []
    workspace = None
    pace = Pace()
    for _ in range(spec["setup_repeats"]):
        workspace = None  # free the previous graph before building the next
        workspace, elapsed = setup_workspace(spec)
        seconds.append(elapsed / pace.factor())
    return workspace, seconds


def experiment_config(spec: dict, goal: str, seed: int):
    from repro.api.config import ExperimentConfig

    return ExperimentConfig(
        goal=goal,
        scenario="static",
        seed=seed,
        labeled_fractions=tuple(spec["fractions"]),
        k_start=K_START,
        k_max=K_MAX,
    )


def run_sweep(workspace, spec: dict, seed: int, sweep: int) -> list:
    """One sweep through the public API: a result per goal."""
    return [
        workspace.run_experiment(
            experiment_config(spec, goal, derived_seed(seed, sweep, goal_index))
        )
        for goal_index, goal in enumerate(goal_expressions().values())
    ]


def transcript(results) -> list:
    """What a sweep learned, without its timings."""
    return [
        [
            result.goal_expression, point.labeled_fraction, point.positives,
            point.negatives, point.learned_expression, point.k, round(point.f1, 12),
        ]
        for result in results
        for point in result.points
    ]


# -- output check -------------------------------------------------------------


def check_sweeps(spec: dict, seed: int, sweeps: dict[int, list]) -> int:
    """How many learned queries an independent evaluation rejects.

    The samples are drawn again from the seeds on a fresh pure-python engine
    with the planner off; each learned query is re-evaluated there and must
    select every positive and no negative, and reproduce the reported F1.
    """
    from repro.api.config import EngineConfig
    from repro.evaluation.metrics import f1_score
    from repro.evaluation.static import draw_sample
    from repro.queries.path_query import PathQuery

    graph = build_graph(spec)
    oracle = EngineConfig(backend="python", planner="off").build()
    wrong = 0
    for sweep, results in sweeps.items():
        for goal_index, result in enumerate(results):
            goal = PathQuery.parse(result.goal_expression, graph.alphabet)
            rng = random.Random(derived_seed(seed, sweep, goal_index))
            for point in result.points:
                sample = draw_sample(
                    graph, goal, labeled_fraction=point.labeled_fraction, rng=rng, engine=oracle
                )
                ok = (point.positives, point.negatives) == (
                    len(sample.positives), len(sample.negatives)
                )
                if ok and point.learned_expression is not None:
                    learned = PathQuery.parse(point.learned_expression, graph.alphabet)
                    selected = learned.evaluate(graph, engine=oracle)
                    ok = (
                        sample.positives <= selected
                        and not (sample.negatives & selected)
                        and f1_score(learned, goal, graph, engine=oracle) == point.f1
                    )
                wrong += not ok
    return wrong


# -- the untraced run ----------------------------------------------------------


def run(spec: dict, seed: int, seconds: float, expected: dict) -> dict:
    """End-to-end numbers: whole sweeps until ``seconds`` have passed.

    What one learner call costs depends on the sample it is given far more
    than on anything else (the same goal and fraction range over a factor of
    four), so a run needs many samples.  For the first ``DISTINCT_SHARE`` of
    the run every sweep draws new samples; for the rest the first sweeps are
    repeated in the same order, each on a fresh workspace, on identical
    inputs from an identical cache state, and must learn the same.  A
    sweep's times are taken at the quiet pace (:class:`e2e_common.Pace`),
    the time of a repeated call is the mean of its repeats, and the
    statistics are taken over the distinct calls.
    """
    from repro.api.workspace import Workspace

    workspace, setups = timed_setups(spec)
    graph = workspace.graph
    # Load the code paths outside the timed section.
    run_sweep(workspace, dict(spec, fractions=spec["fractions"][:1]), seed, -1)
    quiesce()
    sweeps: list[list] = []
    slow_down: list[float] = []
    distinct = 0
    pace = Pace()
    started = perf_counter()
    while (elapsed := perf_counter() - started) < seconds:
        if not distinct and elapsed >= seconds * DISTINCT_SHARE:
            distinct = len(sweeps)
        workspace = Workspace(graph, name="learn")
        sample_set = len(sweeps) % distinct if distinct else len(sweeps)
        sweeps.append(run_sweep(workspace, spec, seed, sample_set))
        slow_down.append(pace.factor())
    peak_rss = peak_rss_mb_self()

    distinct = distinct or len(sweeps)
    goals = range(len(sweeps[0]))
    call_ms, sweep_ms, sweep_seconds = [], [], []
    problems: list[str] = []
    for index in range(distinct):
        repeats = list(zip(sweeps[index::distinct], slow_down[index::distinct]))
        if len({digest(transcript(results)) for results, _ in repeats}) > 1:
            problems.append("a repeated sweep learned something else from the same samples")
        cells = [
            mean([results[goal].points[cell].learning_seconds / slow for results, slow in repeats])
            * 1e3
            for goal in goals
            for cell in range(len(spec["fractions"]))
        ]
        call_ms.extend(cells)
        sweep_ms.append(sum(cells))
        sweep_seconds.append(
            mean([sum(result.elapsed for result in results) / slow for results, slow in repeats])
        )
    first = sweeps[:distinct]
    points = [point for results in first for result in results for point in result.points]
    first_digest = digest(transcript(sweeps[0]))
    check_digest(expected, seed, "first_sweep_digest", first_digest, problems)
    return {
        "attempted": sum(len(result.points) for results in sweeps for result in results),
        "failed": check_sweeps(spec, seed, dict(enumerate(first))),
        "problems": problems,
        "metrics": {
            "setup_s": percentile(setups, 50),
            "op_p50_ms": geometric_mean(call_ms),
            "op_tail_ms": mean(sweep_ms),
            "ops_per_s": len(call_ms) / sum(sweep_seconds),
            "peak_rss_mb": peak_rss,
        },
        "detail": {
            "sweeps": len(sweeps),
            "distinct_sweeps": distinct,
            "slow_down": percentile(slow_down, 50),
            "setups": setups,
            "f1_mean": mean([point.f1 for point in points]),
            "abstained": sum(point.learned_expression is None for point in points),
            "first_sweep_digest": first_digest,
            "first_sweep_f1_mean": mean(
                [point.f1 for result in sweeps[0] for point in result.points]
            ),
        },
    }


# -- the traced run: the learn ladder -------------------------------------------


def traced_setup(spec: dict, tracer: Tracer, metrics: dict):
    """The set-up layers of an in-process workload, each call on its own."""
    from repro.api.workspace import Workspace

    started = perf_counter()
    with tracer.span("datasets.generate"):
        graph = build_graph(spec)
    metrics["datasets.generate_s"] = perf_counter() - started
    workspace = Workspace(graph, name="top-rung")
    started = perf_counter()
    with tracer.span("engine.index_build"):
        workspace.engine.index_for(graph)
    metrics["engine.index_build_s"] = perf_counter() - started
    return workspace


def run_traced(spec: dict, seed: int, seconds: float, tracer: Tracer, expected: dict) -> dict:
    """Per-layer numbers of the first sweeps, per sweep.

    The top rung is ``run_experiment`` itself on a plain engine.  Below it
    the harness replays the same seeds through the public steps the driver
    is made of -- ``draw_sample``, the dynamic-k learner, ``f1_score`` --
    on a second, equally cold engine behind the timing proxy, and runs the
    SCP selection once more on its own.  The two executions must learn the
    same queries; what the steps do not cover is the unattributed share.
    """
    from repro.api.workspace import Workspace
    from repro.evaluation.metrics import f1_score
    from repro.evaluation.static import draw_sample
    from repro.learning.learner import learn_with_dynamic_k
    from repro.learning.scp import select_smallest_consistent_paths
    from repro.queries.path_query import PathQuery

    metrics: dict[str, float] = {}
    top = traced_setup(spec, tracer, metrics)
    graph = top.graph

    replica = Workspace(graph, name="learn-replica")
    proxy = EngineProxy(replica.engine)
    proxy.index_for(graph)
    scp_engine = Workspace(graph).engine
    scp_engine.index_for(graph)
    goals = goal_expressions()
    sweeps = max(1, int(spec["trace_sweeps_per_second"] * seconds))

    in_learn = dict.fromkeys(EngineProxy.TIMED, 0.0)
    learn_calls = dict.fromkeys(EngineProxy.TIMED, 0)
    retries = 0
    plain_learn = 0.0
    mismatches = 0
    top_results: dict[int, list] = {}
    quiesce()
    for sweep in range(sweeps):
        with tracer.span("evaluation.run_experiment", sweep):
            top_results[sweep] = run_sweep(top, spec, seed, sweep)
        for goal_index, goal_text in enumerate(goals.values()):
            goal = PathQuery.parse(goal_text, graph.alphabet)
            rng = random.Random(derived_seed(seed, sweep, goal_index))
            reference = top_results[sweep][goal_index]
            plain_learn += sum(point.learning_seconds for point in reference.points)
            with tracer.span("evaluation.selectivity", sweep):
                goal.selectivity(graph, engine=proxy)
            for point, fraction in zip(reference.points, spec["fractions"]):
                with tracer.span("evaluation.draw_sample", sweep):
                    sample = draw_sample(
                        graph, goal, labeled_fraction=fraction, rng=rng, engine=proxy
                    )
                seconds_before = dict(proxy.seconds)
                calls_before = dict(proxy.calls)
                with tracer.span("learning.learn", sweep):
                    learned = learn_with_dynamic_k(
                        graph, sample, k_start=K_START, k_max=K_MAX, engine=proxy
                    )
                for name in EngineProxy.TIMED:
                    in_learn[name] += proxy.seconds[name] - seconds_before[name]
                    learn_calls[name] += proxy.calls[name] - calls_before[name]
                with tracer.span("evaluation.f1_score", sweep):
                    score = f1_score(learned.best_effort_query, goal, graph, engine=proxy)
                retries += learned.k - K_START
                for k in range(K_START, learned.k + 1):
                    with tracer.span("learning.scp_select", sweep):
                        select_smallest_consistent_paths(graph, sample, k=k, engine=scp_engine)
                expression = None if learned.is_null else learned.query.expression
                mismatches += (expression, learned.k, score) != (
                    point.learned_expression, point.k, point.f1
                )

    def per_sweep(name: str) -> float:
        return tracer.total(name) / sweeps

    top_s = per_sweep("evaluation.run_experiment")
    learn_s = per_sweep("learning.learn")
    scp_s = per_sweep("learning.scp_select")
    engine_in_learn = sum(in_learn.values()) / sweeps
    draw_s = per_sweep("evaluation.draw_sample")
    f1_s = per_sweep("evaluation.f1_score")
    selectivity_s = per_sweep("evaluation.selectivity")
    points = [
        point for results in top_results.values() for result in results for point in result.points
    ]
    metrics.update(
        {
            "learning.learn_s": learn_s,
            "learning.scp_select_s": scp_s,
            "engine.any_selects_s": in_learn["any_selects"] / sweeps,
            "engine.any_selects_calls": learn_calls["any_selects"] / sweeps,
            "engine.selects_s": in_learn["selects"] / sweeps,
            "engine.selects_calls": learn_calls["selects"] / sweeps,
            "engine.evaluate_s": proxy.seconds["evaluate"] / sweeps,
            "engine.evaluate_calls": proxy.calls["evaluate"] / sweeps,
            "learning.fold_self_s": self_time(learn_s, (scp_s, engine_in_learn)),
            "learning.dynamic_k_retries": retries / sweeps,
            "evaluation.draw_sample_s": draw_s,
            "evaluation.f1_score_s": f1_s,
            "evaluation.f1_mean": mean([point.f1 for point in points]),
            "learn.unattributed_share": unattributed_share(
                top_s, (selectivity_s, draw_s, learn_s, f1_s)
            ),
            "trace.overhead_share": learn_s * sweeps / plain_learn - 1.0,
        }
    )
    problems: list[str] = []
    check_digest(
        expected, seed, "first_sweep_digest", digest(transcript(top_results[0])), problems
    )
    return {
        "attempted": len(points),
        "failed": mismatches + check_sweeps(spec, seed, top_results),
        "problems": problems,
        "metrics": metrics,
        "detail": {"sweeps": sweeps, "top_rung_s": top_s},
    }
