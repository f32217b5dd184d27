"""Algorithm 3: learning n-ary path queries.

An n-ary example labels a tuple of nodes; the algorithm projects the sample
onto each pair of adjacent positions, learns a binary query per position
with Algorithm 2, and combines the component queries.  If any component
learner abstains, the n-ary learner abstains.  Each component run inherits
Algorithm 2's kernel path: the per-position merge loops execute on in-place
:class:`~repro.automata.kernel.MergeFold` hypotheses, so the n-ary learner
never copies an automaton either.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.engine.engine import QueryEngine
from repro.errors import LearningError, SerializationError
from repro.graphdb.graph import GraphDB
from repro.learning.binary_learner import BinaryLearnerResult, learn_binary_query
from repro.learning.learner import DEFAULT_K
from repro.learning.sample import NarySample
from repro.queries.nary import NaryPathQuery


@dataclass(frozen=True)
class NaryLearnerResult:
    """Outcome of one run of the n-ary learner (``query`` is None on abstain).

    Implements the uniform :class:`repro.api.Result` protocol: ``ok``,
    ``query``, ``elapsed`` and a JSON-safe ``to_dict``/``from_dict`` pair.
    """

    query: NaryPathQuery | None
    k: int
    components: tuple[BinaryLearnerResult, ...] = field(default_factory=tuple)
    elapsed: float = 0.0

    @property
    def is_null(self) -> bool:
        """Whether the learner abstained."""
        return self.query is None

    @property
    def ok(self) -> bool:
        """Result protocol: True iff the learner returned a query."""
        return not self.is_null

    # -- serialization (Result protocol) -------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe snapshot; round-trips through :meth:`from_dict`."""
        return {
            "type": "NaryLearnerResult",
            "ok": self.ok,
            "elapsed": self.elapsed,
            "k": self.k,
            "components": [component.to_dict() for component in self.components],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NaryLearnerResult":
        """Rebuild a result from :meth:`to_dict` output."""
        try:
            components = tuple(
                BinaryLearnerResult.from_dict(entry)
                for entry in payload.get("components", [])
            )
            query: NaryPathQuery | None = None
            if payload.get("ok") and components and all(c.query for c in components):
                query = NaryPathQuery([component.query for component in components])
            return cls(
                query=query,
                k=payload["k"],
                components=components,
                elapsed=payload.get("elapsed", 0.0),
            )
        except (KeyError, TypeError) as error:
            raise SerializationError(
                f"malformed NaryLearnerResult payload: {error}"
            ) from error


def learn_nary_query(
    graph: GraphDB,
    sample: NarySample,
    *,
    k: int = DEFAULT_K,
    engine: QueryEngine,
) -> NaryLearnerResult:
    """Run Algorithm 3 on the given graph and n-ary sample.

    ``engine`` is forwarded to the per-position binary learners.
    """
    if k < 0:
        raise LearningError("the path-length bound k must be non-negative")
    sample.check_against(graph)
    started = time.perf_counter()
    arity = sample.arity
    if arity is None or not sample.positives:
        return NaryLearnerResult(query=None, k=k, elapsed=time.perf_counter() - started)

    component_results: list[BinaryLearnerResult] = []
    for position in range(arity - 1):
        projected = sample.project(position)
        result = learn_binary_query(graph, projected, k=k, engine=engine)
        component_results.append(result)
        if result.is_null:
            return NaryLearnerResult(
                query=None,
                k=k,
                components=tuple(component_results),
                elapsed=time.perf_counter() - started,
            )
    query = NaryPathQuery([result.query for result in component_results])
    return NaryLearnerResult(
        query=query,
        k=k,
        components=tuple(component_results),
        elapsed=time.perf_counter() - started,
    )
