"""Baseline learners used by the ablation benchmarks.

Section 3.2 discusses -- and Section 5.2 quantifies -- the effect of the
generalization phase on top of SCP selection.  The baseline implemented
here stops after the SCP step: it returns the plain disjunction of the
selected smallest consistent paths (a query using only concatenation and
disjunction, never the Kleene star).  Comparing it against the full learner
reproduces the "generalization adds about 1% of F1" observation and the
qualitative point that the baseline can never express starred queries.
"""

from __future__ import annotations

import time

from repro.engine.engine import QueryEngine
from repro.graphdb.graph import GraphDB
from repro.learning.learner import DEFAULT_K, LearnerResult
from repro.learning.sample import Sample
from repro.learning.scp import select_smallest_consistent_paths
from repro.queries.path_query import PathQuery


def learn_scp_disjunction(
    graph: GraphDB,
    sample: Sample,
    *,
    k: int = DEFAULT_K,
    engine: QueryEngine,
) -> LearnerResult:
    """The no-generalization baseline: the disjunction of the SCPs.

    Abstains (returns a null result) when no positive node yields an SCP or
    when the disjunction fails to select some positive node (which happens
    exactly when that node has no consistent path of length at most ``k``).

    ``engine`` is the query engine used by the SCP selection and the
    positives check (``LearnerConfig(generalize=False)`` routes here).
    """
    sample.check_against(graph)
    started = time.perf_counter()
    if not sample.positives:
        return LearnerResult(query=None, k=k, elapsed=time.perf_counter() - started)
    scps = select_smallest_consistent_paths(graph, sample, k=k, engine=engine)
    positives_without_scp = frozenset(sample.positives - scps.keys())
    if not scps:
        return LearnerResult(
            query=None,
            k=k,
            positives_without_scp=positives_without_scp,
            elapsed=time.perf_counter() - started,
        )
    query = PathQuery.from_words(graph.alphabet, scps.values())
    node_ids = engine.index_for(graph).node_ids  # index order: see learn_path_query
    selects_all = all(
        engine.selects(graph, query, node)
        for node in sorted(sample.positives, key=node_ids.__getitem__)
    )
    return LearnerResult(
        query=query if selects_all else None,
        k=k,
        scps=scps,
        pta_states=query.size,
        generalized_states=query.size,
        positives_without_scp=positives_without_scp,
        selects_all_positives=selects_all,
        hypothesis=query,
        elapsed=time.perf_counter() - started,
    )
