"""Consistency of a sample (Lemma 3.1 and its bounded approximation).

A sample ``S`` on a graph ``G`` is *consistent* if some path query selects
every positive node and no negative node.  Lemma 3.1 characterizes this:
``S`` is consistent iff for every positive node ``nu``,
``paths_G(nu)`` is not included in ``paths_G(S-)``.

Deciding this exactly is PSPACE-complete (Lemma 3.2).  The exact check here
is one :meth:`~repro.learning.scp.NegativeCoverage.includes` walk per
positive over the negatives' frontier automaton; its pair space is
exponential in the worst case, so it is meant for small graphs.  The
*bounded* check (paths of length at most ``k``) is what Algorithm 1
effectively uses and runs in polynomial time.
"""

from __future__ import annotations

from repro.engine.engine import QueryEngine
from repro.graphdb.graph import GraphDB
from repro.learning.sample import Sample
from repro.learning.scp import NegativeCoverage


def is_consistent(graph: GraphDB, sample: Sample, *, engine: QueryEngine) -> bool:
    """Exact consistency check (Lemma 3.1).

    No positive node's paths may be included in the negatives' paths: one
    unbounded :meth:`~repro.learning.scp.NegativeCoverage.includes` walk per
    positive on ``engine``'s CSR index.  Exponential in the worst case; use
    :func:`bounded_consistent` on large graphs.
    """
    sample.check_against(graph)
    coverage = NegativeCoverage(engine.index_for(graph), sample.negatives)
    return not any(map(coverage.includes, sample.positives))


def bounded_consistent(graph: GraphDB, sample: Sample, *, k: int, engine: QueryEngine) -> bool:
    """Whether every positive node has a consistent path of length at most ``k``.

    This is the (sound but incomplete) certificate of consistency Algorithm 1
    relies on: if it holds, the sample is consistent (the disjunction of the
    witnessing paths is a consistent query); if it does not hold, the sample
    may still be consistent via longer paths.
    """
    sample.check_against(graph)
    coverage = NegativeCoverage(engine.index_for(graph), sample.negatives)
    count = coverage.uncovered_count  # with no negatives, the empty path is uncovered
    return all(count(node, k, graph.alphabet, cap=1) for node in sample.positives)


def sample_has_consistent_query(
    graph: GraphDB, sample: Sample, *, k: int | None = None, engine: QueryEngine
) -> bool:
    """Convenience dispatcher: exact check if ``k`` is None, bounded otherwise."""
    if k is None:
        return is_consistent(graph, sample, engine=engine)
    return bounded_consistent(graph, sample, k=k, engine=engine)
