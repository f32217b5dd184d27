"""Simulated users ("oracles") for the interactive scenario.

The paper's experiments simulate the user: every proposed node is labeled
according to whether the goal query selects it.  :class:`QueryOracle`
implements exactly that; the :class:`Oracle` base class allows plugging in
other behaviours (e.g. a noisy user) in examples and tests.
"""

from __future__ import annotations

from repro.engine.engine import QueryEngine
from repro.graphdb.graph import GraphDB, Node
from repro.learning.sample import NEGATIVE, POSITIVE
from repro.queries.path_query import PathQuery


class Oracle:
    """Interface of a user that labels nodes on demand."""

    def label(self, graph: GraphDB, node: Node) -> str:
        """Return ``'+'`` or ``'-'`` for the given node."""
        raise NotImplementedError

    def satisfied_with(self, graph: GraphDB, query: PathQuery | None) -> bool:
        """Whether the user would stop the interactions given this query.

        The default implementation never stops early (the loop's own halt
        condition decides); subclasses may override to model a user that
        accepts an intermediate query.
        """
        return False


class QueryOracle(Oracle):
    """A user who labels nodes perfectly consistently with a goal query.

    The goal query's node set is computed once per graph and cached, so that
    labeling thousands of nodes during an interactive experiment stays cheap.

    ``satisfaction_threshold`` models the halt condition: 1.0 (the default)
    is the paper's strongest condition -- the user stops only when the
    learned query selects exactly the goal's node set (F1 = 1); lower values
    model the weaker "the user is satisfied by an intermediate query"
    conditions Section 5.3 mentions.
    """

    def __init__(
        self,
        goal: PathQuery,
        *,
        satisfaction_threshold: float = 1.0,
        engine: QueryEngine,
    ) -> None:
        if not 0.0 < satisfaction_threshold <= 1.0:
            raise ValueError("satisfaction_threshold must be in (0, 1]")
        self.goal = goal
        self.satisfaction_threshold = satisfaction_threshold
        self.engine = engine
        self._cache: dict[tuple[int, int], frozenset[Node]] = {}

    def _selected(self, graph: GraphDB) -> frozenset[Node]:
        # (uid, version) keys the cache soundly: mutating the graph moves its
        # version counter, so labels never go stale mid-session.
        key = (graph.uid, graph.version)
        if key not in self._cache:
            self._cache[key] = self.goal.evaluate(graph, engine=self.engine)
        return self._cache[key]

    def label(self, graph: GraphDB, node: Node) -> str:
        """Label the node with the goal query's verdict."""
        return POSITIVE if node in self._selected(graph) else NEGATIVE

    def satisfied_with(self, graph: GraphDB, query: PathQuery | None) -> bool:
        """Whether the learned query is close enough to the goal to stop.

        With the default threshold of 1.0 this is the strongest halt
        condition of Section 5.3: the learned and goal queries select exactly
        the same nodes.
        """
        if query is None:
            return False
        goal_nodes = self._selected(graph)
        learned_nodes = query.evaluate(graph, engine=self.engine)
        if self.satisfaction_threshold >= 1.0:
            return learned_nodes == goal_nodes
        true_positives = len(learned_nodes & goal_nodes)
        if true_positives == 0:
            return not goal_nodes and not learned_nodes
        precision = true_positives / len(learned_nodes)
        recall = true_positives / len(goal_nodes)
        f1 = 2.0 * precision * recall / (precision + recall)
        return f1 >= self.satisfaction_threshold
