"""Node-selection strategies for the interactive scenario (Section 4.2).

A strategy takes the graph and the current sample and proposes the next node
for the user to label.  The paper evaluates two practical strategies, both
restricted to *k-informative* nodes so that they never propose a node whose
label could not bring information:

* ``kR`` -- pick a k-informative node uniformly at random;
* ``kS`` -- pick the k-informative node with the smallest number of
  non-covered k-paths (favouring nodes whose SCP computation has the
  smallest search space).

A naive uniform-random strategy over unlabeled nodes is provided as the
baseline the ablation benchmark compares against.

On large graphs, scanning every node for informativeness at every
interaction would dominate the running time, so the two k-strategies accept
a ``pool_size``: candidates are drawn from a random sample of the unlabeled
nodes of that size (the default, 512, keeps per-interaction times in the
"order of seconds" regime the paper reports while behaving indistinguishably
from the full scan in our experiments).

When the session passes its :class:`~repro.interactive.state.SessionState`
to :meth:`Strategy.propose`, informativeness verdicts and uncovered-path
counts come from the state's one
:class:`~repro.learning.scp.NegativeCoverage` (its ``table(k)`` cut under
the engine's product walks, its ``uncovered_paths`` for the counts), shared
across all candidates and rounds; without a state the
strategies fall back to the per-node walks, which the parity suite
and the speed benchmark pin the batched path against.

All candidate orderings derive from the graph's *stable node order*
(insertion order), never from ``repr`` sorting or raw set iteration, so a
fixed seed reproduces the same proposal sequence in any process regardless
of the hash seed or of how nodes print themselves.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.errors import InteractionError
from repro.graphdb.graph import GraphDB, Node
from repro.interactive.informativeness import is_k_informative, uncovered_k_paths
from repro.learning.sample import Sample

if TYPE_CHECKING:  # imported lazily to avoid a cycle at import time
    from repro.interactive.state import SessionState


class Strategy:
    """Interface of a node-proposal strategy."""

    #: Short name used in experiment reports (e.g. ``"kR"``).
    name: str = "strategy"

    def propose(
        self,
        graph: GraphDB,
        sample: Sample,
        *,
        k: int,
        state: "SessionState | None" = None,
    ) -> Node | None:
        """Return the next node to label, or None when no useful node remains."""
        raise NotImplementedError

    # -- checkpointing ---------------------------------------------------------

    def rng_state(self) -> list:
        """The strategy's RNG state as a JSON-safe value (see :meth:`set_rng_state`)."""
        version, internal, gauss = self._rng.getstate()
        return [version, list(internal), gauss]

    def set_rng_state(self, payload: Sequence) -> None:
        """Restore the RNG from :meth:`rng_state` output."""
        version, internal, gauss = payload
        self._rng.setstate((version, tuple(internal), gauss))

    def config_dict(self) -> dict:
        """A JSON-safe snapshot sufficient to resume the strategy mid-session."""
        return {"name": self.name, "pool_size": None, "rng_state": self.rng_state()}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _unlabeled_nodes(graph: GraphDB, sample: Sample) -> list[Node]:
    labeled = sample.labeled
    return [node for node in graph.node_order if node not in labeled]


class RandomStrategy(Strategy):
    """Naive baseline: a uniformly random unlabeled node (no informativeness filter)."""

    name = "random"

    def __init__(self, seed: int | random.Random = 0) -> None:
        self._rng = seed if isinstance(seed, random.Random) else random.Random(seed)

    def propose(
        self,
        graph: GraphDB,
        sample: Sample,
        *,
        k: int,
        state: "SessionState | None" = None,
    ) -> Node | None:
        # The candidates come pre-ordered by the graph's stable node order;
        # sorting by repr here would make the draw depend on how nodes print
        # themselves (a default object repr embeds the memory address).
        candidates = _unlabeled_nodes(graph, sample)
        if not candidates:
            return None
        return self._rng.choice(candidates)


class _PooledKStrategy(Strategy):
    """Shared machinery of the two k-informative strategies."""

    def __init__(self, seed: int | random.Random = 0, *, pool_size: int | None = 512) -> None:
        self._rng = seed if isinstance(seed, random.Random) else random.Random(seed)
        if pool_size is not None and pool_size < 1:
            raise InteractionError("pool_size must be positive (or None for a full scan)")
        self._pool_size = pool_size

    def config_dict(self) -> dict:
        return {"name": self.name, "pool_size": self._pool_size, "rng_state": self.rng_state()}

    def _candidate_pool(self, graph: GraphDB, sample: Sample) -> list[Node]:
        unlabeled = _unlabeled_nodes(graph, sample)
        if not unlabeled:
            return []
        if self._pool_size is None or len(unlabeled) <= self._pool_size:
            self._rng.shuffle(unlabeled)
            return unlabeled
        return self._rng.sample(unlabeled, self._pool_size)


class KInformativeRandomStrategy(_PooledKStrategy):
    """The paper's ``kR`` strategy: a random k-informative node."""

    name = "kR"

    def propose(
        self,
        graph: GraphDB,
        sample: Sample,
        *,
        k: int,
        state: "SessionState | None" = None,
    ) -> Node | None:
        pool = self._candidate_pool(graph, sample)
        if state is not None:
            if self._pool_size is None:
                # Full scan: one batched product walk decides every node.
                informative = state.informative_nodes()
                for node in pool:
                    if node in informative:
                        return node
                return None
            for node in pool:
                if state.is_informative(node):
                    return node
            return None
        for node in pool:
            if is_k_informative(graph, sample, node, k=k):
                return node
        return None


class KInformativeSmallestStrategy(_PooledKStrategy):
    """The paper's ``kS`` strategy: the k-informative node with fewest uncovered k-paths."""

    name = "kS"

    #: Counting stops at this many uncovered paths per node; nodes at the cap
    #: are considered equally (the strategy only favours *small* counts).
    count_cap = 64

    def propose(
        self,
        graph: GraphDB,
        sample: Sample,
        *,
        k: int,
        state: "SessionState | None" = None,
    ) -> Node | None:
        best_node: Node | None = None
        best_count: int | None = None
        batched = (
            state.informative_nodes()
            if state is not None and self._pool_size is None
            else None
        )
        for node in self._candidate_pool(graph, sample):
            if node in sample.labeled:
                continue
            if batched is not None:
                if node not in batched:
                    continue  # batched verdict: zero uncovered paths
                count = state.uncovered_count(node, cap=self.count_cap)
            elif state is not None:
                if not state.is_informative(node):
                    continue  # cached/per-candidate verdict: zero uncovered paths
                count = state.uncovered_count(node, cap=self.count_cap)
            else:
                count = uncovered_k_paths(
                    graph, node, sample.negatives, k=k, limit=self.count_cap
                )
            if count == 0:
                continue  # not k-informative
            if best_count is None or count < best_count:
                best_node, best_count = node, count
                if best_count == 1:
                    break  # cannot do better
        return best_node


def make_strategy(name: str, *, seed: int = 0, pool_size: int | None = 512) -> Strategy:
    """Factory used by the experiment drivers: ``"kR"``, ``"kS"`` or ``"random"``."""
    normalized = name.strip()
    if normalized == "kR":
        return KInformativeRandomStrategy(seed, pool_size=pool_size)
    if normalized == "kS":
        return KInformativeSmallestStrategy(seed, pool_size=pool_size)
    if normalized.lower() == "random":
        return RandomStrategy(seed)
    raise InteractionError(f"unknown strategy {name!r}; expected 'kR', 'kS' or 'random'")


def strategy_from_dict(payload: dict) -> Strategy:
    """Rebuild a strategy mid-session from :meth:`Strategy.config_dict` output."""
    try:
        name = payload["name"]
        pool_size = payload.get("pool_size", 512)
        rng_state = payload.get("rng_state")
    except (KeyError, TypeError) as error:
        raise InteractionError(f"malformed strategy payload: {error!r}") from error
    if name == "random":
        strategy = RandomStrategy()
    else:
        strategy = make_strategy(name, pool_size=pool_size)
    try:
        if rng_state is not None:
            strategy.set_rng_state(rng_state)
    except (TypeError, ValueError) as error:
        raise InteractionError(f"malformed strategy RNG state: {error}") from error
    return strategy


STRATEGY_NAMES: Sequence[str] = ("kR", "kS", "random")
