"""Binary path queries (Appendix B of the paper).

Under the binary semantics a query ``q`` selects the pairs of nodes
``(nu, nu')`` such that some path from ``nu`` to ``nu'`` spells a word of
``L(q)``.  This is the classical regular-path-query semantics; the paper's
monadic class generalizes it, and Algorithm 2 learns it with the same
machinery (only the candidate-path space per example changes).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.engine.engine import QueryEngine
from repro.errors import QueryError
from repro.graphdb.graph import GraphDB, Node
from repro.queries.path_query import _language_hash, _RegexQuery, _same_language


class BinaryPathQuery(_RegexQuery):
    """A regular path query under the binary (pairs-of-nodes) semantics."""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryPathQuery):
            return NotImplemented
        # Binary semantics distinguishes prefixes (the end node is observed),
        # so equivalence is plain language equivalence.
        return _same_language(self.table, other.table)

    def __hash__(self) -> int:
        return _language_hash(self.table)

    def evaluate(self, graph: GraphDB, *, engine: QueryEngine) -> frozenset[tuple[Node, Node]]:
        """The set of node pairs selected on ``graph``."""
        return engine.binary_evaluate(graph, self.table)

    def selects(self, graph: GraphDB, origin: Node, end: Node, *, engine: QueryEngine) -> bool:
        """Whether the query selects the pair ``(origin, end)``."""
        return engine.pair_selects(graph, self.table, origin, end)

    def selectivity(self, graph: GraphDB, *, engine: QueryEngine) -> float:
        """The fraction of node pairs selected (0.0 - 1.0)."""
        total = graph.node_count() ** 2
        if total == 0:
            raise QueryError("selectivity is undefined on an empty graph")
        return len(self.evaluate(graph, engine=engine)) / total

    def is_consistent_with(
        self,
        graph: GraphDB,
        positives: Iterable[tuple[Node, Node]],
        negatives: Iterable[tuple[Node, Node]],
        *,
        engine: QueryEngine,
    ) -> bool:
        """Whether the query selects every positive pair and no negative pair."""
        return all(self.selects(graph, *pair, engine=engine) for pair in positives) and not any(
            self.selects(graph, *pair, engine=engine) for pair in negatives
        )
