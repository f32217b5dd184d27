"""The per-node interactive loop: the parity reference of ``SessionState``.

What ``InteractiveSession(incremental=False)`` ran before the loop left the
library: every proposal asks the strategy *without* a session state (per
candidate, ``enumerate_paths`` plus a from-scratch ``covered_by`` walk per
path), no label is propagated anywhere, and every round re-learns from
scratch with a private dynamic-``k`` retry.  Same proposals, same labels,
same learned queries as the incremental session -- just slower.
"""

from __future__ import annotations

from repro.graphdb.graph import Node
from repro.interactive.scenario import InteractiveSession
from repro.learning.learner import LearnerResult, learn_path_query


class PerNodeSession(InteractiveSession):
    """``InteractiveSession`` with the three state-backed steps replaced."""

    def propose_node(self) -> Node | None:
        while True:
            node = self.strategy.propose(self.graph, self.sample, k=self.k)
            if node is not None:
                return node
            if self.k >= self.k_max:
                return None
            self.k += 1

    def record_label(self, node: Node, label: str) -> None:
        self.sample = self.sample.with_example(node, label)

    def learn(self) -> LearnerResult:
        result = learn_path_query(self.graph, self.sample, k=self.k, engine=self.engine)
        learn_k = self.k
        while result.is_null and result.positives_without_scp and learn_k < self.k_max:
            learn_k += 1
            result = learn_path_query(self.graph, self.sample, k=learn_k, engine=self.engine)
        self.last_result = result
        return result
