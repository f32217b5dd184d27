"""Algorithm 1: the path-query learner.

``learner(G, S)`` either returns a query consistent with the sample or the
special value *null* ("abstain": not enough examples, or no consistent query
constructible with paths of length at most ``k``).  The steps follow the
paper exactly:

1. select, for each positive node, its smallest consistent path of length at
   most ``k`` (skipping positives that have none);
2. build the prefix tree acceptor of those paths;
3. generalize it by state merging while no negative node is selected;
4. return the resulting query if it selects *every* positive node (including
   the ones that contributed no SCP), otherwise return null.

Steps 1 and 3 both question the fixed language ``paths_G(S-)``, and both go
through one :class:`~repro.learning.scp.NegativeCoverage`: its frontier
automaton answers "is this word covered?", and its merge guard answers "does
this candidate select a negative?" by extending the product pairs the last
accepted hypothesis reached from the merged classes only (a merge only adds
transitions, so nothing the accepted hypothesis reached is lost).  The
coverage lives for one learning episode: :func:`learn_with_dynamic_k`
builds one and hands it to every ``k`` attempt, the interactive session
keeps one across rounds, and a bare :func:`learn_path_query` call builds
its own.

Section 5.1 sets ``k`` dynamically in the experiments (start at 2, grow while
the learned query misses a positive); :func:`learn_with_dynamic_k` implements
that procedure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.automata.alphabet import Word
from repro.automata.kernel import fold_generalize, pta_table
from repro.automata.minimize import canonical_table
from repro.engine.engine import QueryEngine
from repro.errors import LearningError, SerializationError
from repro.graphdb.graph import GraphDB, Node
from repro.learning.sample import Sample
from repro.learning.scp import NegativeCoverage, select_smallest_consistent_paths
from repro.queries.path_query import PathQuery

#: Default path-length bound, the value Section 5.1 reports as sufficient in
#: the majority of practical cases.
DEFAULT_K = 2


@dataclass(frozen=True)
class LearnerResult:
    """The outcome of one run of the learner.

    ``query`` is None when the learner abstains (the paper's *null* answer:
    the generalized query failed to select every positive node with SCPs of
    length at most ``k``).  ``hypothesis`` is the generalized query itself,
    regardless of abstention -- it is always consistent with the negative
    examples and is what the experiment drivers score mid-run (a null answer
    would otherwise be indistinguishable from "learned nothing" in the F1
    plots, which is not how the paper reports Figure 11).

    Implements the uniform :class:`repro.api.Result` protocol: ``ok``,
    ``query``, ``elapsed`` and a JSON-safe ``to_dict``/``from_dict`` pair.
    """

    query: PathQuery | None
    k: int
    scps: dict[Node, Word] = field(default_factory=dict)
    pta_states: int = 0
    generalized_states: int = 0
    positives_without_scp: frozenset[Node] = frozenset()
    selects_all_positives: bool = False
    hypothesis: PathQuery | None = None
    elapsed: float = 0.0

    @property
    def is_null(self) -> bool:
        """Whether the learner abstained."""
        return self.query is None

    @property
    def ok(self) -> bool:
        """Result protocol: True iff the learner returned a query."""
        return not self.is_null

    @property
    def best_effort_query(self) -> PathQuery | None:
        """The returned query if any, else the (possibly incomplete) hypothesis."""
        return self.query if self.query is not None else self.hypothesis

    def __repr__(self) -> str:
        outcome = "null" if self.is_null else repr(self.query.expression)
        return f"LearnerResult({outcome}, k={self.k}, scps={len(self.scps)})"

    # -- serialization (Result protocol) -------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe snapshot; round-trips through :meth:`from_dict`."""
        return {
            "type": "LearnerResult",
            "ok": self.ok,
            "elapsed": self.elapsed,
            "k": self.k,
            "query": None if self.query is None else self.query.to_dict(),
            "hypothesis": None if self.hypothesis is None else self.hypothesis.to_dict(),
            "scps": sorted(
                ([node, list(word)] for node, word in self.scps.items()), key=repr
            ),
            "pta_states": self.pta_states,
            "generalized_states": self.generalized_states,
            "positives_without_scp": sorted(self.positives_without_scp, key=repr),
            "selects_all_positives": self.selects_all_positives,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LearnerResult":
        """Rebuild a result from :meth:`to_dict` output."""
        try:
            return cls(
                query=(
                    None if payload["query"] is None else PathQuery.from_dict(payload["query"])
                ),
                k=payload["k"],
                scps={node: tuple(word) for node, word in payload.get("scps", [])},
                pta_states=payload.get("pta_states", 0),
                generalized_states=payload.get("generalized_states", 0),
                positives_without_scp=frozenset(payload.get("positives_without_scp", ())),
                selects_all_positives=payload.get("selects_all_positives", False),
                hypothesis=(
                    None
                    if payload.get("hypothesis") is None
                    else PathQuery.from_dict(payload["hypothesis"])
                ),
                elapsed=payload.get("elapsed", 0.0),
            )
        except (KeyError, TypeError) as error:
            raise SerializationError(f"malformed LearnerResult payload: {error}") from error


def learn_path_query(
    graph: GraphDB,
    sample: Sample,
    *,
    k: int = DEFAULT_K,
    engine: QueryEngine,
    coverage=None,
) -> LearnerResult:
    """Run Algorithm 1 on the given graph and sample with a fixed bound ``k``.

    Returns a :class:`LearnerResult`; ``result.query`` is the learned
    :class:`~repro.queries.PathQuery` or None (the *null* abstention).

    ``engine`` is the query engine used by the SCP selection, the merge
    guard and the final positives check.  ``coverage`` is an optional prebuilt
    :class:`~repro.learning.scp.NegativeCoverage` for the sample's negatives
    (the dynamic-``k`` procedure shares one across its attempts, the
    interactive session across rounds while the negative set is unchanged);
    a stale or mismatched one raises :class:`~repro.errors.LearningError`.
    :meth:`repro.api.Workspace.learn` calls this with the workspace engine.
    """
    if k < 0:
        raise LearningError("the path-length bound k must be non-negative")
    sample.check_against(graph)
    started = time.perf_counter()

    if not sample.positives:
        # With no positive example every query selecting nothing is trivially
        # consistent, but none is informative; the learner abstains.
        return LearnerResult(query=None, k=k, elapsed=time.perf_counter() - started)

    if coverage is None:
        coverage = NegativeCoverage(engine.index_for(graph), sample.negatives)
    telemetry = engine.telemetry
    with telemetry.span(
        "learner.learn",
        k=k,
        positives=len(sample.positives),
        negatives=len(sample.negatives),
    ) as span:
        with telemetry.span("learner.scp_select"):
            scps = select_smallest_consistent_paths(
                graph, sample, k=k, engine=engine, coverage=coverage
            )
        positives_without_scp = frozenset(sample.positives - scps.keys())
        if not scps:
            span.set(outcome="null", scps=0)
            return LearnerResult(
                query=None,
                k=k,
                positives_without_scp=positives_without_scp,
                elapsed=time.perf_counter() - started,
            )

        # The whole select/merge/check loop runs on the int-coded kernel: the
        # PTA is built directly as a TableDFA from the interned SCPs, candidate
        # merges mutate one MergeFold in place (undo log, no copies), and the
        # guard extends the product pairs the last committed fold reached on
        # the engine's CSR index from the merged classes only.
        pta = pta_table(graph.alphabet, scps.values())

        with telemetry.span("learner.generalize", pta_states=pta.n) as merge_span:
            calls_before = coverage.guard_calls
            fold = fold_generalize(pta, coverage.merge_guard(graph=graph, engine=engine))
            canonical = canonical_table(fold.to_table())
            merge_span.set(
                generalized_states=canonical.n, guard_calls=coverage.guard_calls - calls_before
            )

        with telemetry.span("learner.final_check"):
            # One-shot walks of the table as it stands: fingerprinting and
            # compiling a plan per learner call would cost more than they save.
            # In index order, not set order: where a failing check stops, hence
            # its kernel work, must not depend on the hash seed.
            node_ids = engine.index_for(graph).node_ids
            selects_all = all(
                engine.selects(graph, canonical, node, ephemeral=True)
                for node in sorted(sample.positives, key=node_ids.__getitem__)
            )
        hypothesis = PathQuery._from_canonical(canonical)
        query = hypothesis if selects_all else None
        span.set(
            outcome="learned" if selects_all else "null",
            scps=len(scps),
            pta_states=pta.n,
            generalized_states=canonical.n,
        )
        return LearnerResult(
            query=query,
            k=k,
            scps=scps,
            pta_states=pta.n,
            generalized_states=canonical.n,
            positives_without_scp=positives_without_scp,
            selects_all_positives=selects_all,
            hypothesis=hypothesis,
            elapsed=time.perf_counter() - started,
        )


def dynamic_k_procedure(
    learn,
    graph: GraphDB,
    sample,
    *,
    k_start: int = DEFAULT_K,
    k_max: int = 6,
    engine: QueryEngine,
    **shared,
):
    """The dynamic-``k`` procedure of Section 5.1 over any fixed-``k`` learner.

    ``learn`` is any ``(graph, sample, *, k, engine)`` learner returning a
    result with ``is_null`` and ``elapsed`` (Algorithm 1, 2, 3 or the SCP
    baseline); ``shared`` keywords are handed to every attempt unchanged.
    Start with ``k = k_start``; as long as the learner abstains,
    increment ``k`` and retry, up to ``k_max``.  Returns the first
    non-abstaining result, or the last (abstaining) result if ``k_max`` is
    reached without success.  The returned ``elapsed`` covers the whole
    procedure, not just the last attempt -- it is the learning time
    Figure 12 plots.
    """
    if k_start < 0 or k_max < k_start:
        raise LearningError("need 0 <= k_start <= k_max")
    total_elapsed = 0.0
    for k in range(k_start, k_max + 1):
        result = learn(graph, sample, k=k, engine=engine, **shared)
        total_elapsed += result.elapsed
        if not result.is_null:
            break
    return replace(result, elapsed=total_elapsed)


def learn_with_dynamic_k(
    graph: GraphDB,
    sample: Sample,
    *,
    k_start: int = DEFAULT_K,
    k_max: int = 6,
    engine: QueryEngine,
) -> LearnerResult:
    """Algorithm 1 under the dynamic-``k`` procedure of Section 5.1.

    One learning episode: every ``k`` attempt shares one
    :class:`~repro.learning.scp.NegativeCoverage`, so a retry does not
    recompute the frontiers of the attempt before it.  Each attempt's fold
    gets its own merge guard.
    """
    sample.check_against(graph)
    coverage = NegativeCoverage(engine.index_for(graph), sample.negatives)
    return dynamic_k_procedure(
        learn_path_query,
        graph,
        sample,
        k_start=k_start,
        k_max=k_max,
        engine=engine,
        coverage=coverage,
    )
