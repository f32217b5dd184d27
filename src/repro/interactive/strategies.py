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

:meth:`Strategy.propose` reads the session's
:class:`~repro.interactive.state.SessionState`: informativeness verdicts
and uncovered-path counts come from the state's one
:class:`~repro.learning.scp.NegativeCoverage` (its ``table(k)`` cut under
the engine's product walks, its ``uncovered_paths`` for the counts), shared
across all candidates and rounds, and candidates are drawn from the state's
kept unlabeled ids.  The per-node walks the parity suite and the speed
benchmark pin this against, making the same RNG calls, are a test oracle
(``tests/oracles/strategies.py``).

All candidate orderings derive from the graph's *stable node order*
(insertion order), never from ``repr`` sorting or raw set iteration, so a
fixed seed reproduces the same proposal sequence in any process regardless
of the hash seed or of how nodes print themselves.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from repro.errors import InteractionError
from repro.graphdb.graph import GraphDB, Node
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
        state: "SessionState",
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
        state: "SessionState",
    ) -> Node | None:
        # The candidates come pre-ordered by the graph's stable node order;
        # sorting by repr here would make the draw depend on how nodes print
        # themselves (a default object repr embeds the memory address).
        ids = state.unlabeled_ids()
        return next(state.nodes_of([self._rng.choice(ids)])) if ids else None


class _PooledKStrategy(Strategy):
    """Shared machinery of the two k-informative strategies."""

    def __init__(self, seed: int | random.Random = 0, *, pool_size: int | None = 512) -> None:
        self._rng = seed if isinstance(seed, random.Random) else random.Random(seed)
        if pool_size is not None and pool_size < 1:
            raise InteractionError("pool_size must be positive (or None for a full scan)")
        self._pool_size = pool_size

    def config_dict(self) -> dict:
        return {"name": self.name, "pool_size": self._pool_size, "rng_state": self.rng_state()}

    def _candidate_pool(self, state: "SessionState") -> Iterator[Node]:
        population = state.unlabeled_ids()
        if self._pool_size is None or len(population) <= self._pool_size:
            pool = list(population)
            self._rng.shuffle(pool)
        else:
            pool = self._rng.sample(population, self._pool_size)
        return state.nodes_of(pool)


class KInformativeRandomStrategy(_PooledKStrategy):
    """The paper's ``kR`` strategy: a random k-informative node."""

    name = "kR"

    def propose(
        self,
        graph: GraphDB,
        sample: Sample,
        *,
        k: int,
        state: "SessionState",
    ) -> Node | None:
        pool = self._candidate_pool(state)
        if self._pool_size is None:  # full scan: one batched walk decides every node
            informative = state.informative_nodes()
            return next((node for node in pool if node in informative), None)
        return next(filter(state.is_informative, pool), None)


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
        state: "SessionState",
    ) -> Node | None:
        best_node: Node | None = None
        best_count: int | None = None
        batched = state.informative_nodes() if self._pool_size is None else None
        for node in self._candidate_pool(state):
            if batched is not None and node not in batched:
                continue  # batched verdict: zero uncovered paths
            # One count per candidate: 0 is also its verdict (cached).
            count = state.uncovered_count(node, cap=self.count_cap)
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
