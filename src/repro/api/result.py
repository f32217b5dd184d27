"""The uniform result protocol of the public API.

Every outcome object the library produces -- learning runs, interactive
sessions, experiment sweeps, and the workspace's own query evaluations --
satisfies one small structural contract, :class:`Result`:

* ``ok``       -- did the run produce a usable outcome?
* ``query``    -- the learned/evaluated query (or its expression), if any;
* ``elapsed``  -- wall-clock seconds spent producing the result;
* ``to_dict``  -- a JSON-safe snapshot (with a ``"type"`` tag) that
  round-trips through the matching ``from_dict`` classmethod.

:func:`result_from_dict` / :func:`result_from_json` are the inverse: they
dispatch on the ``"type"`` tag and rebuild the concrete result object, which
is what the ``python -m repro`` CLI envelope and any service layer on top of
the workspace rely on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from repro.engine.index import Answer
from repro.errors import SerializationError
from repro.evaluation.interactive import InteractiveExperimentResult
from repro.evaluation.static import StaticExperimentResult
from repro.interactive.scenario import InteractiveCheckpoint, InteractiveResult
from repro.learning.binary_learner import BinaryLearnerResult
from repro.learning.learner import LearnerResult
from repro.learning.nary_learner import NaryLearnerResult
from repro.queries.binary import BinaryPathQuery
from repro.queries.path_query import PathQuery


@runtime_checkable
class Result(Protocol):
    """Structural protocol satisfied by every result object of the library."""

    @property
    def ok(self) -> bool:
        """Whether the run produced a usable outcome."""

    @property
    def query(self) -> Any:
        """The learned or evaluated query (or its expression), if any."""

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds spent producing this result."""

    def to_dict(self) -> dict:
        """A JSON-safe snapshot carrying a ``"type"`` tag."""


class QueryResult:
    """The outcome of one :meth:`repro.api.Workspace.query` evaluation.

    ``selected`` holds the selected nodes (monadic semantics) or node pairs
    (binary semantics).  Implements the :class:`Result` protocol.

    A monadic evaluation hands over the engine's
    :class:`~repro.engine.index.Answer` (the walk's node ids), and
    ``selected`` is built from it on first read; ``count``, :meth:`nodes`
    and :meth:`to_dict` read the ids and never build the set.

    Decoding (:meth:`from_dict`) defers the query's compile: it checks the
    payload's shape, builds ``selected`` at once and keeps a copy of the
    query entry.  ``query`` is compiled (through the parse cache) on its
    first read, which raises the parse error of a bad expression; a client
    that sent the expression itself need never pay for it.  :meth:`to_dict`,
    ``==`` and ``hash`` read ``query``, so on a decoded result they compile
    it; ``repr``, ``count`` and :meth:`nodes` do not.

    ``profile`` is the per-query execution profile captured when the owning
    workspace's telemetry runs in profiling mode (compile/index/walk splits,
    cache attribution, per-depth frontier sizes); None otherwise.
    """

    __slots__ = (
        "semantics", "elapsed", "profile", "_query", "_query_payload", "_answer", "_selected"
    )

    def __init__(
        self,
        query: PathQuery | BinaryPathQuery,
        semantics: str,
        selected: frozenset | Answer,
        elapsed: float = 0.0,
        profile: dict | None = None,
    ) -> None:
        self._query, self._query_payload = query, None
        self.semantics = semantics
        self.elapsed = elapsed
        self.profile = profile
        if isinstance(selected, Answer):
            self._answer, self._selected = selected, None
        else:
            self._answer, self._selected = None, selected

    @property
    def query(self) -> PathQuery | BinaryPathQuery:
        """The evaluated query; a decoded result compiles it on first read."""
        if self._query is None:
            kind = BinaryPathQuery if self.semantics == "binary" else PathQuery
            try:
                self._query = kind.from_dict(self._query_payload)
            except (KeyError, TypeError, IndexError) as error:
                raise SerializationError(f"malformed QueryResult payload: {error}") from error
        return self._query

    @property
    def selected(self) -> frozenset:
        """The selected nodes (or pairs) as a set."""
        if self._selected is None:
            self._selected = self._answer.node_set()
        return self._selected

    @property
    def ok(self) -> bool:
        """Result protocol: evaluation always produces a node set."""
        return True

    @property
    def count(self) -> int:
        """The number of selected nodes (or pairs)."""
        return len(self._answer if self._selected is None else self._selected)

    def nodes(self) -> list:
        """The selected nodes/pairs in deterministic order (for display)."""
        if self._selected is None:
            return self._answer.in_repr_order()
        return sorted(self._selected, key=repr)

    def _fields(self) -> tuple:
        return (self.query, self.semantics, self.selected, self.elapsed, self.profile)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryResult):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        if self._query is None:
            expression = self._query_payload["expression"]
        else:
            expression = self._query.expression
        return f"QueryResult({expression!r}, semantics={self.semantics!r}, count={self.count})"

    # -- serialization (Result protocol) -------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe snapshot; round-trips through :meth:`from_dict`."""
        if self.semantics == "binary":
            selected: list = sorted(([o, e] for o, e in self.selected), key=repr)
        else:
            selected = self.nodes()
        payload = {
            "type": "QueryResult",
            "ok": self.ok,
            "elapsed": self.elapsed,
            "semantics": self.semantics,
            "query": self.query.to_dict(),
            "count": self.count,
            "selected": selected,
        }
        if self.profile is not None:
            payload["profile"] = self.profile
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryResult":
        """Rebuild a result from :meth:`to_dict` output.

        The ``query`` entry must be a dict with a string ``expression``; it
        is compiled on first read of ``query`` (see the class docstring).
        """
        try:
            query, semantics = payload["query"], payload.get("semantics", "path")
            if not (isinstance(query, dict) and isinstance(query.get("expression"), str)):
                raise SerializationError("a QueryResult's query needs a string 'expression'")
            listed = payload.get("selected", [])
            if not isinstance(listed, (list, tuple)):
                raise SerializationError("a QueryResult's 'selected' must be a list")
            if semantics == "binary":
                selected = frozenset((pair[0], pair[1]) for pair in listed)
            else:
                selected = frozenset(listed)
            result = cls(
                query=None,
                semantics=semantics,
                selected=selected,
                elapsed=payload.get("elapsed", 0.0),
                profile=payload.get("profile"),
            )
        except (KeyError, TypeError, IndexError) as error:
            raise SerializationError(f"malformed QueryResult payload: {error}") from error
        result._query_payload = dict(query)
        return result


@dataclass(frozen=True)
class ExplainResult:
    """The outcome of one :meth:`repro.api.Workspace.explain` call.

    A query *plan*, not an answer: which rewrites the planner applied (and
    their parity status), the compiled plan's fingerprint and shape, the
    ``inputs`` the kernel and pair choices read, the kernel/backend the
    engine would dispatch, and the result cache's disposition for this exact
    (plan, graph version) key.  ``selected`` never appears -- explaining
    runs no kernel.  Implements the :class:`Result` protocol.
    """

    query: PathQuery | BinaryPathQuery
    semantics: str
    plan: dict
    planner: dict
    inputs: dict
    chosen: dict
    cache: dict
    graph: dict
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """Result protocol: planning always produces a plan."""
        return True

    @property
    def rewrites(self) -> tuple:
        """The rewrite pass names the planner applied, in order."""
        return tuple(self.planner.get("rewrites", ()))

    @property
    def strategy(self) -> str:
        """The whole-graph strategy the engine would dispatch."""
        return self.chosen.get("strategy", "python")

    def __repr__(self) -> str:
        return (
            f"ExplainResult({self.query.expression!r}, semantics={self.semantics!r}, "
            f"strategy={self.strategy!r}, rewrites={list(self.rewrites)!r})"
        )

    # -- serialization (Result protocol) -------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe snapshot; round-trips through :meth:`from_dict`."""
        return {
            "type": "ExplainResult",
            "ok": self.ok,
            "elapsed": self.elapsed,
            "semantics": self.semantics,
            "query": self.query.to_dict(),
            "plan": self.plan,
            "planner": self.planner,
            "inputs": self.inputs,
            "chosen": self.chosen,
            "cache": self.cache,
            "graph": self.graph,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExplainResult":
        """Rebuild a result from :meth:`to_dict` output."""
        try:
            semantics = payload.get("semantics", "path")
            if semantics == "binary":
                query: PathQuery | BinaryPathQuery = BinaryPathQuery.from_dict(
                    payload["query"]
                )
            else:
                query = PathQuery.from_dict(payload["query"])
            return cls(
                query=query,
                semantics=semantics,
                plan=dict(payload["plan"]),
                planner=dict(payload["planner"]),
                inputs=dict(payload.get("inputs", {})),
                chosen=dict(payload["chosen"]),
                cache=dict(payload.get("cache", {})),
                graph=dict(payload.get("graph", {})),
                elapsed=payload.get("elapsed", 0.0),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SerializationError(
                f"malformed ExplainResult payload: {error}"
            ) from error


#: ``"type"`` tag -> concrete result class, the dispatch table of
#: :func:`result_from_dict`.
RESULT_TYPES: dict[str, type] = {
    "QueryResult": QueryResult,
    "ExplainResult": ExplainResult,
    "LearnerResult": LearnerResult,
    "BinaryLearnerResult": BinaryLearnerResult,
    "NaryLearnerResult": NaryLearnerResult,
    "InteractiveResult": InteractiveResult,
    "InteractiveCheckpoint": InteractiveCheckpoint,
    "StaticExperimentResult": StaticExperimentResult,
    "InteractiveExperimentResult": InteractiveExperimentResult,
}


def result_from_dict(payload: dict) -> Result:
    """Rebuild any library result from its ``to_dict`` snapshot.

    Dispatches on the payload's ``"type"`` tag; raises
    :class:`~repro.errors.SerializationError` on unknown or missing tags.
    """
    if not isinstance(payload, dict):
        raise SerializationError(
            f"result payload must be a dict, got {type(payload).__name__}"
        )
    tag = payload.get("type")
    result_cls = RESULT_TYPES.get(tag)
    if result_cls is None:
        known = sorted(RESULT_TYPES)
        raise SerializationError(f"unknown result type tag {tag!r}; expected one of {known}")
    return result_cls.from_dict(payload)


def result_to_json(result: Result, *, indent: int | None = None) -> str:
    """Serialize any library result to its JSON document."""
    return json.dumps(result.to_dict(), indent=indent, sort_keys=False)


def result_from_json(text: str) -> Result:
    """Inverse of :func:`result_to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid result JSON: {error}") from error
    return result_from_dict(payload)


__all__ = [
    "Result",
    "QueryResult",
    "ExplainResult",
    "RESULT_TYPES",
    "result_from_dict",
    "result_from_json",
    "result_to_json",
]
