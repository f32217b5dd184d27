"""N-ary path queries (Appendix B of the paper).

An n-ary path query is a sequence of ``n-1`` regular expressions
``Q = (q1, ..., q_{n-1})``; it selects the tuples ``(nu_1, ..., nu_n)`` such
that for every position ``i`` there is a path from ``nu_i`` to ``nu_{i+1}``
whose word belongs to ``L(q_i)``.  Algorithm 3 learns such queries by
learning one binary query per position.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.automata.alphabet import Alphabet
from repro.engine.engine import QueryEngine
from repro.errors import QueryError
from repro.graphdb.graph import GraphDB, Node
from repro.queries.binary import BinaryPathQuery


class NaryPathQuery:
    """An n-ary path query: a sequence of binary queries applied position-wise."""

    def __init__(self, components: Sequence[BinaryPathQuery]) -> None:
        if not components:
            raise QueryError("an n-ary query needs at least one component expression")
        self._components = tuple(components)

    @classmethod
    def parse(
        cls,
        expressions: Sequence[str],
        alphabet: Alphabet | Iterable[str] | None = None,
    ) -> "NaryPathQuery":
        """Build an n-ary query from ``n-1`` regular-expression strings."""
        return cls([BinaryPathQuery.parse(expr, alphabet) for expr in expressions])

    @property
    def components(self) -> tuple[BinaryPathQuery, ...]:
        """The per-position binary queries ``(q1, ..., q_{n-1})``."""
        return self._components

    @property
    def arity(self) -> int:
        """The arity ``n`` of the selected tuples."""
        return len(self._components) + 1

    @property
    def size(self) -> int:
        """The maximal size of a component query (the paper's ``npq<=s`` measure)."""
        return max(component.size for component in self._components)

    @property
    def expressions(self) -> tuple[str, ...]:
        """The component expressions, for display."""
        return tuple(component.expression for component in self._components)

    def __repr__(self) -> str:
        return f"NaryPathQuery({list(self.expressions)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NaryPathQuery):
            return NotImplemented
        return self._components == other._components

    def __hash__(self) -> int:
        return hash(self._components)

    def selects(self, graph: GraphDB, nodes: Sequence[Node], *, engine: QueryEngine) -> bool:
        """Whether the query selects the given node tuple."""
        if len(nodes) != self.arity:
            raise QueryError(
                f"expected a tuple of {self.arity} nodes, got {len(nodes)}"
            )
        return all(
            component.selects(graph, nodes[index], nodes[index + 1], engine=engine)
            for index, component in enumerate(self._components)
        )

    def evaluate(
        self, graph: GraphDB, *, engine: QueryEngine, limit: int | None = None
    ) -> frozenset[tuple[Node, ...]]:
        """The selected tuples.

        The result is assembled by joining the per-position binary results,
        so it stays polynomial in the graph even though the tuple space is
        ``|V|^n``.  ``limit`` caps the number of returned tuples (useful on
        large graphs where the join can still be big).
        """
        per_position = [
            component.evaluate(graph, engine=engine) for component in self._components
        ]
        # Index pairs by their first element for the join.
        indexed: list[dict[Node, list[Node]]] = []
        for pairs in per_position:
            index: dict[Node, list[Node]] = {}
            for origin, end in pairs:
                index.setdefault(origin, []).append(end)
            indexed.append(index)

        results: set[tuple[Node, ...]] = set()

        def extend(prefix: tuple[Node, ...]) -> None:
            if limit is not None and len(results) >= limit:
                return
            position = len(prefix) - 1
            if position == len(indexed):
                results.add(prefix)
                return
            for nxt in indexed[position].get(prefix[-1], ()):
                extend(prefix + (nxt,))
                if limit is not None and len(results) >= limit:
                    return

        for start in indexed[0]:
            extend((start,))
            if limit is not None and len(results) >= limit:
                break
        return frozenset(results)

    def is_consistent_with(
        self,
        graph: GraphDB,
        positives: Iterable[Sequence[Node]],
        negatives: Iterable[Sequence[Node]],
        *,
        engine: QueryEngine,
    ) -> bool:
        """Whether the query selects every positive tuple and no negative tuple."""
        return all(self.selects(graph, tuple(t), engine=engine) for t in positives) and not any(
            self.selects(graph, tuple(t), engine=engine) for t in negatives
        )
