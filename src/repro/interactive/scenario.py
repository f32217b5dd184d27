"""The interactive learning loop (Figure 9 of the paper).

Starting from an empty sample, the loop repeatedly:

1. checks the halt condition (by default: the learned query selects exactly
   the same nodes as the goal, i.e. F1 = 1 -- the strongest condition of
   Section 5.3; the user may also stop earlier when satisfied);
2. asks the strategy for the next node to label (step 3 of the figure);
3. extracts the node's neighborhood -- the small visualizable fragment shown
   to the user (step 4);
4. asks the oracle/user for the label (step 5) and adds it to the sample;
5. re-runs the learner on all labels collected so far (step 6), growing the
   path-length bound ``k`` dynamically when no k-informative node remains
   (Section 5.1's procedure for the interactive case).

The loop records per-interaction timings and the evolution of the learned
query so the experiment drivers can reproduce Table 2 directly from the
returned :class:`InteractiveResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.engine.engine import QueryEngine
from repro.errors import InteractionError, SerializationError
from repro.graphdb.graph import GraphDB, Node
from repro.interactive.oracle import Oracle
from repro.interactive.state import SessionState
from repro.interactive.strategies import Strategy, strategy_from_dict
from repro.learning.learner import DEFAULT_K, LearnerResult
from repro.learning.sample import Sample
from repro.queries.path_query import PathQuery


@dataclass(frozen=True)
class Interaction:
    """One user interaction: the proposed node, its label and bookkeeping data.

    ``profile`` (profiling-mode sessions only) is a JSON-safe per-round
    breakdown: oracle vs learn seconds, whether the hypothesis was reused,
    and the engine's per-query profile of the round's last evaluation.
    """

    index: int
    node: Node
    label: str
    k: int
    seconds: float
    learned_expression: str | None
    profile: dict | None = None

    def to_dict(self) -> dict:
        """A JSON-safe snapshot of this interaction."""
        payload = {
            "index": self.index,
            "node": self.node,
            "label": self.label,
            "k": self.k,
            "seconds": self.seconds,
            "learned_expression": self.learned_expression,
        }
        if self.profile is not None:
            payload["profile"] = self.profile
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Interaction":
        """Rebuild an interaction from :meth:`to_dict` output."""
        return cls(
            index=payload["index"],
            node=payload["node"],
            label=payload["label"],
            k=payload["k"],
            seconds=payload["seconds"],
            learned_expression=payload.get("learned_expression"),
            profile=payload.get("profile"),
        )


@dataclass
class InteractiveResult:
    """The outcome of an interactive learning session.

    Implements the uniform :class:`repro.api.Result` protocol: ``ok``,
    ``query``, ``elapsed`` and a JSON-safe ``to_dict``/``from_dict`` pair.
    """

    query: PathQuery | None
    sample: Sample
    interactions: list[Interaction] = field(default_factory=list)
    halted_by: str = "exhausted"
    total_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Result protocol: True iff the session produced a query."""
        return self.query is not None

    @property
    def elapsed(self) -> float:
        """Result protocol: total wall-clock seconds of the session."""
        return self.total_seconds

    @property
    def interaction_count(self) -> int:
        """The number of labels the user provided."""
        return len(self.interactions)

    def labels_fraction(self, graph: GraphDB) -> float:
        """The fraction of graph nodes the user had to label (Table 2's key column)."""
        if graph.node_count() == 0:
            return 0.0
        return self.interaction_count / graph.node_count()

    @property
    def mean_seconds_between_interactions(self) -> float:
        """Average time spent computing between two interactions (Table 2)."""
        if not self.interactions:
            return 0.0
        return sum(i.seconds for i in self.interactions) / len(self.interactions)

    # -- serialization (Result protocol) -------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe snapshot; round-trips through :meth:`from_dict`."""
        return {
            "type": "InteractiveResult",
            "ok": self.ok,
            "elapsed": self.elapsed,
            "query": None if self.query is None else self.query.to_dict(),
            "sample": {
                "positives": sorted(self.sample.positives, key=repr),
                "negatives": sorted(self.sample.negatives, key=repr),
            },
            "interactions": [interaction.to_dict() for interaction in self.interactions],
            "halted_by": self.halted_by,
            "total_seconds": self.total_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "InteractiveResult":
        """Rebuild a result from :meth:`to_dict` output."""
        try:
            sample = payload.get("sample", {})
            return cls(
                query=(
                    None if payload["query"] is None else PathQuery.from_dict(payload["query"])
                ),
                sample=Sample(sample.get("positives", ()), sample.get("negatives", ())),
                interactions=[
                    Interaction.from_dict(entry)
                    for entry in payload.get("interactions", [])
                ],
                halted_by=payload.get("halted_by", "exhausted"),
                total_seconds=payload.get("total_seconds", 0.0),
            )
        except (KeyError, TypeError) as error:
            raise SerializationError(
                f"malformed InteractiveResult payload: {error}"
            ) from error


class InteractiveSession:
    """A stateful interactive learning session.

    Drives the Figure 9 loop step by step; :meth:`run` runs it to completion.
    """

    def __init__(
        self,
        graph: GraphDB,
        oracle: Oracle,
        strategy: Strategy,
        *,
        k_start: int = DEFAULT_K,
        k_max: int = 6,
        max_interactions: int | None = None,
        neighborhood_radius: int | None = None,
        engine: QueryEngine,
        incremental: bool = True,
    ) -> None:
        """The session carries a
        :class:`~repro.interactive.state.SessionState` across rounds: batched
        k-informativeness (one CSR product walk per round), a shared
        negatives-coverage cache for the learner's SCP selection, and
        hypothesis reuse when a new positive label provably cannot change the
        learned query.  ``incremental`` accepts only ``True`` (callers that
        spell it out keep working): the per-node loop -- same proposals,
        labels and learned queries, just slower -- is the parity reference in
        ``tests/oracles/session.py``.
        """
        if k_start < 0 or k_max < k_start:
            raise InteractionError("need 0 <= k_start <= k_max")
        if incremental is not True:
            raise InteractionError(
                "incremental must be True: the per-node session loop is the "
                "parity reference in tests/oracles/session.py"
            )
        self.graph = graph
        self.oracle = oracle
        self.strategy = strategy
        self.k_start = k_start
        self.k = k_start
        self.k_max = k_max
        self.max_interactions = max_interactions
        self.neighborhood_radius = neighborhood_radius
        self.engine = engine
        self.sample = Sample()
        self.interactions: list[Interaction] = []
        self.last_result: LearnerResult | None = None
        self.state = SessionState(graph, k=k_start, engine=engine)
        #: Wall-clock seconds accumulated by earlier runs of a resumed
        #: session; the final result and checkpoints add it back in.
        self.prior_seconds = 0.0

    @property
    def telemetry(self):
        """The session engine's telemetry bundle."""
        return self.engine.telemetry

    # -- steps of the Figure 9 loop -------------------------------------------

    def propose_node(self) -> Node | None:
        """Step 3: pick the next node, growing ``k`` while none is available."""
        while True:
            node = self.strategy.propose(
                self.graph, self.sample, k=self.k, state=self.state
            )
            if node is not None:
                return node
            if self.k >= self.k_max:
                return None
            self.k += 1
            self.state.set_k(self.k)

    def neighborhood_of(self, node: Node) -> GraphDB:
        """Step 4: the fragment of the graph shown to the user for this node."""
        radius = self.neighborhood_radius if self.neighborhood_radius is not None else self.k
        return self.graph.neighborhood(node, radius)

    def record_label(self, node: Node, label: str) -> None:
        """Step 5: add the user's label to the sample."""
        self.sample = self.sample.with_example(node, label)
        self.state.observe(node, label, self.sample)

    def learn(self) -> LearnerResult:
        """Step 6: run the learner on all labels collected so far.

        If the learner abstains at the session's current ``k`` (some positive
        node's consistent paths are all longer than ``k``), the bound is
        raised up to ``k_max`` for this learning call, mirroring the dynamic
        procedure of Section 5.1.  The strategy keeps using the session's
        ``k``, which only grows when no k-informative node remains.

        :meth:`~repro.interactive.state.SessionState.learn` runs that
        procedure; it shares the negatives-coverage cache across rounds and
        skips the re-learn entirely when the new labels provably cannot
        change the hypothesis.
        """
        self.last_result = self.state.learn(self.k, self.k_max)
        return self.last_result

    def step(self) -> Interaction | None:
        """Run one full interaction; returns None when no node can be proposed."""
        if (
            self.max_interactions is not None
            and len(self.interactions) >= self.max_interactions
        ):
            return None
        telemetry = self.telemetry
        with telemetry.span("interactive.round", round=len(self.interactions)) as span:
            node = self.propose_node()
            if node is None:
                span.set(outcome="no_informative_node")
                return None
            started = time.perf_counter()
            label = self.oracle.label(self.graph, node)
            labeled = time.perf_counter()
            self.record_label(node, label)
            reuses_before = self.state.counters["reused_learns"]
            result = self.learn()
            elapsed = time.perf_counter() - started
            profile = None
            if telemetry.profiling:
                profile = {
                    "oracle_seconds": labeled - started,
                    "learn_seconds": result.elapsed,
                    "round_seconds": elapsed,
                    "reused_hypothesis": self.state.counters["reused_learns"] > reuses_before,
                    "evaluate": self.engine.take_profile(),
                }
            interaction = Interaction(
                index=len(self.interactions),
                node=node,
                label=label,
                k=self.k,
                seconds=elapsed,
                learned_expression=None if result.is_null else result.query.expression,
                profile=profile,
            )
            span.set(
                node=str(node),
                label=label,
                k=self.k,
                learned=interaction.learned_expression,
            )
            self.interactions.append(interaction)
            return interaction

    # -- halt conditions --------------------------------------------------------

    def goal_reached(self) -> bool:
        """Whether the user is satisfied with the latest learned query.

        The best-effort hypothesis is shown to the user even when Algorithm 1
        formally abstains, matching the "user satisfied by an intermediate
        query" halt conditions of Section 5.3.
        """
        query = None if self.last_result is None else self.last_result.best_effort_query
        return self.oracle.satisfied_with(self.graph, query)

    def run(self) -> InteractiveResult:
        """Run interactions until the halt condition triggers or nothing remains."""
        started = time.perf_counter()
        halted_by = "exhausted"
        with self.telemetry.span("interactive.session") as span:
            # The loop needs at least one positive label before a query can
            # exist, so the halt check runs after each interaction.
            while True:
                if self.goal_reached():
                    halted_by = "goal"
                    break
                interaction = self.step()
                if interaction is None:
                    halted_by = (
                        "max_interactions"
                        if self.max_interactions is not None
                        and len(self.interactions) >= self.max_interactions
                        else "no_informative_node"
                    )
                    break
            span.set(halted_by=halted_by, interactions=len(self.interactions))
        self.prior_seconds += time.perf_counter() - started
        query = None if self.last_result is None else self.last_result.best_effort_query
        return InteractiveResult(
            query=query,
            sample=self.sample,
            interactions=self.interactions,
            halted_by=halted_by,
            total_seconds=self.prior_seconds,
        )

    # -- checkpoint / resume ----------------------------------------------------

    def checkpoint(self) -> "InteractiveCheckpoint":
        """Snapshot the session so it can be resumed in another process.

        The snapshot captures everything the loop's determinism depends on
        -- the sample, the grown ``k``, the interaction log and the
        strategy's RNG state -- so a resumed session continues exactly where
        an uninterrupted one would be.  The graph, oracle and engine are
        *not* captured; the resuming caller supplies them.
        """
        return InteractiveCheckpoint(
            k=self.k,
            k_start=self.k_start,
            k_max=self.k_max,
            max_interactions=self.max_interactions,
            neighborhood_radius=self.neighborhood_radius,
            positives=sorted(self.sample.positives, key=repr),
            negatives=sorted(self.sample.negatives, key=repr),
            interactions=list(self.interactions),
            strategy=self.strategy.config_dict(),
            elapsed=self.prior_seconds,
        )

    @classmethod
    def resume(
        cls,
        checkpoint: "InteractiveCheckpoint",
        graph: GraphDB,
        oracle: Oracle,
        *,
        engine: QueryEngine,
    ) -> "InteractiveSession":
        """Rebuild a session from a :class:`InteractiveCheckpoint`.

        The strategy (including its RNG position), the sample, the grown
        ``k`` and the interaction log are restored from the snapshot; the
        learner is re-run once on the restored sample so the halt condition
        sees the same hypothesis an uninterrupted session would have.
        """
        session = cls(
            graph,
            oracle,
            strategy_from_dict(checkpoint.strategy),
            k_start=checkpoint.k_start,
            k_max=checkpoint.k_max,
            max_interactions=checkpoint.max_interactions,
            neighborhood_radius=checkpoint.neighborhood_radius,
            engine=engine,
        )
        session.prior_seconds = checkpoint.elapsed
        session.interactions = list(checkpoint.interactions)
        sample = Sample(checkpoint.positives, checkpoint.negatives)
        sample.check_against(graph)
        session.sample = sample
        session.state.sample = sample
        session.k = checkpoint.k
        session.state.set_k(checkpoint.k)
        if sample.positives or sample.negatives:
            session.learn()
        return session


@dataclass(frozen=True)
class InteractiveCheckpoint:
    """A JSON-safe snapshot of a paused interactive session.

    Produced by :meth:`InteractiveSession.checkpoint`, consumed by
    :meth:`InteractiveSession.resume`; participates in the uniform result
    serialization machinery (``to_dict``/``from_dict`` with a ``"type"``
    tag, registered in :data:`repro.api.result.RESULT_TYPES`), which is what
    the ``repro interactive --checkpoint`` CLI round-trips through.
    """

    k: int
    k_start: int
    k_max: int
    max_interactions: int | None
    neighborhood_radius: int | None
    positives: list
    negatives: list
    interactions: list[Interaction]
    strategy: dict
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """Result protocol: a checkpoint always represents a resumable session."""
        return True

    @property
    def query(self) -> str | None:
        """Result protocol: the latest learned expression, if any."""
        for interaction in reversed(self.interactions):
            if interaction.learned_expression is not None:
                return interaction.learned_expression
        return None

    @property
    def interaction_count(self) -> int:
        """The number of labels collected before the pause."""
        return len(self.interactions)

    def to_dict(self) -> dict:
        """A JSON-safe snapshot; round-trips through :meth:`from_dict`."""
        return {
            "type": "InteractiveCheckpoint",
            "ok": self.ok,
            "elapsed": self.elapsed,
            "query": self.query,
            "k": self.k,
            "k_start": self.k_start,
            "k_max": self.k_max,
            "max_interactions": self.max_interactions,
            "neighborhood_radius": self.neighborhood_radius,
            "sample": {"positives": list(self.positives), "negatives": list(self.negatives)},
            "interactions": [interaction.to_dict() for interaction in self.interactions],
            "strategy": self.strategy,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "InteractiveCheckpoint":
        """Rebuild a checkpoint from :meth:`to_dict` output."""
        try:
            sample = payload.get("sample", {})
            return cls(
                k=payload["k"],
                k_start=payload["k_start"],
                k_max=payload["k_max"],
                max_interactions=payload.get("max_interactions"),
                neighborhood_radius=payload.get("neighborhood_radius"),
                positives=list(sample.get("positives", ())),
                negatives=list(sample.get("negatives", ())),
                interactions=[
                    Interaction.from_dict(entry)
                    for entry in payload.get("interactions", [])
                ],
                strategy=payload["strategy"],
                elapsed=payload.get("elapsed", 0.0),
            )
        except (KeyError, TypeError) as error:
            raise SerializationError(
                f"malformed InteractiveCheckpoint payload: {error}"
            ) from error
