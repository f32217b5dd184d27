"""The ``learn-interactive`` workload: the Table 2 experiment, in process.

One operation is one *round* of the Figure 9 loop -- the halt check, the
proposal of a k-informative node, the simulated user's label and the
incremental re-learn -- which is the latency a labelling user feels.  Rounds
come in blocks of whole sessions (every goal x every strategy at the
profile's budget) so that every run times the same mix of rounds: the four
in five that reuse the hypothesis and the dear ones that really re-learn.
"""

from __future__ import annotations

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
from e2e_learn import (
    K_MAX,
    K_START,
    goal_expressions,
    timed_setups,
    traced_setup,
)

#: Table 2's two k-informative strategies.
STRATEGIES = ("kR", "kS")
#: Rounds per session of the untimed pass that loads the code paths.
WARM_UP_ROUNDS = 10


def cells(spec: dict) -> list[tuple[str, str]]:
    """The sessions of one block: every goal under every strategy."""
    return [
        (goal, strategy)
        for goal in goal_expressions().values()
        for strategy in STRATEGIES
    ]


def session_config(spec: dict, strategy: str, seed: int, budget: int):
    from repro.api.config import InteractiveConfig

    return InteractiveConfig(
        strategy=strategy,
        seed=seed,
        k_start=K_START,
        k_max=K_MAX,
        max_interactions=budget,
    )


def drive(session, rounds_ms: list, relearned: list | None = None) -> None:
    """``InteractiveSession.run``'s loop, one timed round at a time.

    ``relearned`` receives, per round, whether the learner really ran (the
    session's public reuse counter did not move) -- the dear kind of round.
    """
    counters = session.state.counters
    while True:
        started = perf_counter()
        if session.goal_reached():
            return
        reused = counters["reused_learns"]
        if session.step() is None:
            return
        rounds_ms.append((perf_counter() - started) * 1e3)
        if relearned is not None:
            relearned.append(counters["reused_learns"] == reused)


class SessionRecord:
    """What a finished session asked, was told and learned.

    The session itself is dropped once summarised: its incremental state
    holds per-node verdict caches, and keeping every session of a run alive
    would bill their garbage-collector passes to later rounds.
    """

    __slots__ = (
        "goal", "transcript", "positives", "negatives", "query", "rounds_ms", "relearned",
    )

    def __init__(self, goal: str, session, rounds_ms=(), relearned=()) -> None:
        self.goal = goal
        self.rounds_ms = list(rounds_ms)
        self.relearned = list(relearned)
        self.transcript = [
            [interaction.node, interaction.label, interaction.k, interaction.learned_expression]
            for interaction in session.interactions
        ]
        self.positives = session.sample.positives
        self.negatives = session.sample.negatives
        self.query = (
            None if session.last_result is None else session.last_result.best_effort_query
        )


# -- output check -------------------------------------------------------------


def check_sessions(spec: dict, records: list[SessionRecord]) -> int:
    """How many sessions an independent evaluation rejects.

    On a fresh pure-python engine with the planner off, every recorded label
    must be the goal's verdict, and the final query must select every
    positively labelled node and no negatively labelled one.
    """
    from repro.api.config import EngineConfig
    from repro.queries.path_query import PathQuery

    graph = build_graph(spec)
    oracle = EngineConfig(backend="python", planner="off").build()
    wrong = 0
    for record in records:
        goal_nodes = PathQuery.parse(record.goal, graph.alphabet).evaluate(graph, engine=oracle)
        ok = all((label == "+") == (node in goal_nodes) for node, label, _, _ in record.transcript)
        if ok and record.query is not None:
            selected = PathQuery.parse(record.query.expression, graph.alphabet).evaluate(
                graph, engine=oracle
            )
            ok = record.positives <= selected and not (record.negatives & selected)
        wrong += not ok
    return wrong


def block_digest(records: list[SessionRecord]) -> str:
    return digest([record.transcript for record in records])


def session_f1(workspace, records: list[SessionRecord]) -> float:
    """Mean F1 of the sessions' final queries against their goals."""
    from repro.evaluation.metrics import f1_score
    from repro.queries.path_query import PathQuery

    graph = workspace.graph
    return mean(
        [
            f1_score(
                record.query,
                PathQuery.parse(record.goal, graph.alphabet),
                graph,
                engine=workspace.engine,
            )
            for record in records
        ]
    )


# -- the untraced run ----------------------------------------------------------


def run(spec: dict, seed: int, seconds: float, expected: dict) -> dict:
    """End-to-end numbers: whole blocks of sessions until ``seconds`` passed.

    A block is one session of each kind (goal x strategy) on a fresh
    workspace.  For the first ``DISTINCT_SHARE`` of the run every block has
    new strategy seeds; for the rest the first blocks are repeated in the
    same order, on identical inputs from an identical cache state, and must
    ask and learn the same.  A session's times are taken at the quiet pace
    (:class:`e2e_common.Pace`); the time of a repeated round is the mean of
    its repeats.  ``op_p50_ms`` is the typical round that reuses the
    hypothesis (their geometric mean: they range over a decade),
    ``op_tail_ms`` the mean round that re-learns, and the rate is taken over
    all distinct rounds.
    """
    from repro.api.workspace import Workspace

    workspace, setups = timed_setups(spec)
    graph = workspace.graph
    for goal, strategy in cells(spec):  # load code paths before timing
        workspace.interactive_session(
            goal, session_config(spec, strategy, seed, WARM_UP_ROUNDS)
        ).run()
    quiesce()
    blocks: list[list[SessionRecord]] = []
    distinct = 0
    pace = Pace()
    started = perf_counter()
    while (elapsed := perf_counter() - started) < seconds:
        if not distinct and elapsed >= seconds * DISTINCT_SHARE:
            distinct = len(blocks)
        workspace = Workspace(graph, name="interactive")
        seed_set = len(blocks) % distinct if distinct else len(blocks)
        block = []
        for cell, (goal, strategy) in enumerate(cells(spec)):
            config = session_config(
                spec, strategy, derived_seed(seed, seed_set, cell), spec["budget"]
            )
            session = workspace.interactive_session(goal, config)
            rounds_ms: list[float] = []
            relearned: list[bool] = []
            drive(session, rounds_ms, relearned)
            slow = pace.factor()
            rounds_ms = [value / slow for value in rounds_ms]
            block.append(SessionRecord(goal, session, rounds_ms, relearned))
        blocks.append(block)
    peak_rss = peak_rss_mb_self()

    distinct = distinct or len(blocks)
    sets = [blocks[index::distinct] for index in range(distinct)]
    problems: list[str] = []
    rounds_ms: list[float] = []
    relearned: list[bool] = []
    for repeats in sets:
        if len({block_digest(repeat) for repeat in repeats}) > 1:
            problems.append("a repeated session asked or learned something else")
            continue
        for cell, record in enumerate(repeats[0]):
            rounds_ms += [
                mean(measured)
                for measured in zip(*(repeat[cell].rounds_ms for repeat in repeats))
            ]
            relearned += record.relearned
    # How many rounds re-learn is a property of the seed (12-21 % of them), so
    # the two kinds are reported apart: the typical round and the dear one.
    reuse_ms = [value for value, dear in zip(rounds_ms, relearned) if not dear]
    relearn_ms = [value for value, dear in zip(rounds_ms, relearned) if dear]
    first_digest = block_digest(blocks[0])
    check_digest(expected, seed, "first_block_digest", first_digest, problems)
    records = [record for repeats in sets for record in repeats[0]]
    return {
        "attempted": sum(len(record.rounds_ms) for block in blocks for record in block),
        "failed": check_sessions(spec, records),
        "problems": problems,
        "metrics": {
            "setup_s": percentile(setups, 50),
            "op_p50_ms": geometric_mean(reuse_ms),
            "op_tail_ms": mean(relearn_ms),
            "ops_per_s": len(rounds_ms) / (sum(rounds_ms) / 1e3),
            "peak_rss_mb": peak_rss,
        },
        "detail": {
            "blocks": len(blocks),
            "distinct_rounds": len(rounds_ms),
            "relearn_share": len(relearn_ms) / len(rounds_ms),
            "setups": setups,
            "f1_mean": session_f1(workspace, records),
            "first_block_digest": first_digest,
            "first_block_f1_mean": session_f1(workspace, blocks[0]),
        },
    }


# -- the traced run: the interactive ladder --------------------------------------


def run_traced(spec: dict, seed: int, seconds: float, tracer: Tracer, expected: dict) -> dict:
    """Per-layer numbers of the first blocks, per round.

    The harness drives ``InteractiveSession``'s public steps itself --
    propose, oracle label, record, learn, halt check -- each inside a span,
    on an engine behind the timing proxy, and must end with the transcript
    ``run()`` produces for the same seeds on a plain engine (the top rung).
    """
    from repro.api.workspace import Workspace
    from repro.interactive.oracle import QueryOracle
    from repro.interactive.scenario import Interaction, InteractiveSession
    from repro.interactive.strategies import make_strategy
    from repro.queries.path_query import PathQuery

    metrics: dict[str, float] = {}
    top = traced_setup(spec, tracer, metrics)
    graph = top.graph
    proxy = EngineProxy(Workspace(graph, name="interactive-replica").engine)
    proxy.index_for(graph)

    blocks = max(1, int(spec["trace_blocks_per_second"] * seconds))
    in_phase = {"propose": 0.0, "learn": 0.0}
    plain_ms: list[float] = []
    mismatches = 0
    rounds = 0
    reused = 0
    k_final = []
    first_block = []
    stepped_sessions = []
    quiesce()
    for block in range(blocks):
        for cell, (goal_text, strategy) in enumerate(cells(spec)):
            seed_here = derived_seed(seed, block, cell)
            config = session_config(spec, strategy, seed_here, spec["budget"])
            reference = top.interactive_session(goal_text, config)
            with tracer.span("interactive.run", rounds):
                drive(reference, plain_ms)
            reference = SessionRecord(goal_text, reference)
            if block == 0:
                first_block.append(reference)

            goal = PathQuery.parse(goal_text, graph.alphabet)
            oracle = QueryOracle(goal, satisfaction_threshold=config.target_f1, engine=proxy)
            session = InteractiveSession(
                graph,
                oracle,
                make_strategy(strategy, seed=seed_here, pool_size=config.pool_size),
                k_start=config.k_start,
                k_max=config.k_max,
                max_interactions=config.max_interactions,
                engine=proxy,
                incremental=True,
            )
            with tracer.span("interactive.session", rounds):
                while len(session.interactions) < config.max_interactions:
                    with tracer.span("interactive.goal_check", rounds):
                        halted = session.goal_reached()
                    if halted:
                        break
                    busy = proxy.busy()
                    with tracer.span("interactive.propose", rounds):
                        node = session.propose_node()
                    in_phase["propose"] += proxy.busy() - busy
                    if node is None:
                        break
                    with tracer.span("interactive.oracle_label", rounds):
                        label = oracle.label(graph, node)
                    with tracer.span("interactive.record_label", rounds):
                        session.record_label(node, label)
                    busy = proxy.busy()
                    with tracer.span("interactive.learn", rounds):
                        result = session.learn()
                    in_phase["learn"] += proxy.busy() - busy
                    session.interactions.append(
                        Interaction(
                            index=len(session.interactions),
                            node=node,
                            label=label,
                            k=session.k,
                            seconds=0.0,
                            learned_expression=(
                                None if result.is_null else result.query.expression
                            ),
                        )
                    )
                    rounds += 1
            reused += session.state.counters["reused_learns"]
            k_final.append(session.k)
            stepped = SessionRecord(goal_text, session)
            mismatches += stepped.transcript != reference.transcript
            stepped_sessions.append(stepped)

    def per_round(name: str) -> float:
        return tracer.total(name) / rounds

    phases = {
        name: per_round(f"interactive.{name}")
        for name in ("propose", "oracle_label", "record_label", "learn", "goal_check")
    }
    session_s = per_round("interactive.session")
    metrics.update(
        {
            "interactive.propose_s": phases["propose"],
            "interactive.propose_self_s": self_time(
                phases["propose"], (in_phase["propose"] / rounds,)
            ),
            "interactive.oracle_label_s": phases["oracle_label"],
            "interactive.record_label_s": phases["record_label"],
            "interactive.learn_s": phases["learn"],
            "interactive.learn_self_s": self_time(
                phases["learn"], (in_phase["learn"] / rounds,)
            ),
            "interactive.goal_check_s": phases["goal_check"],
            "interactive.reused_learn_rate": reused / rounds,
            "interactive.k_final": mean(k_final),
            "interactive.unattributed_share": unattributed_share(session_s, phases.values()),
            "engine.any_selects_s": proxy.seconds["any_selects"] / rounds,
            "engine.any_selects_calls": proxy.calls["any_selects"] / rounds,
            "engine.selects_s": proxy.seconds["selects"] / rounds,
            "engine.selects_calls": proxy.calls["selects"] / rounds,
            "engine.evaluate_s": proxy.seconds["evaluate"] / rounds,
            "engine.evaluate_calls": proxy.calls["evaluate"] / rounds,
            "evaluation.f1_mean": session_f1(top, stepped_sessions),
            "trace.overhead_share": session_s * rounds / (sum(plain_ms) / 1e3) - 1.0,
        }
    )
    problems: list[str] = []
    check_digest(expected, seed, "first_block_digest", block_digest(first_block), problems)
    return {
        "attempted": rounds,
        "failed": mismatches + check_sessions(spec, stepped_sessions),
        "problems": problems,
        "metrics": metrics,
        "detail": {"blocks": blocks, "rounds": rounds},
    }
