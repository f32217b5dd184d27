"""Per-query execution profiles: where one evaluation spent its time.

A :class:`QueryProfile` is the engine's answer to "where did this query
spend its time": the compile-vs-index-vs-walk split, which caches answered
(plan cache, result cache), which index version served the walk, the
kernel work done (states expanded, edges scanned) and the per-depth
frontier sizes of the product BFS.  The engine records one per evaluation
when profiling is enabled; :meth:`repro.api.Workspace.query` attaches it to
the :class:`~repro.api.QueryResult` so it travels with the answer
(``result.to_dict()["profile"]``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

try:  # hashlib.blake2b's own C module: importing hashlib loads OpenSSL, ~3.7 MiB of RSS
    from _blake2 import blake2b
except ImportError:  # not CPython
    from hashlib import blake2b


@dataclass
class QueryProfile:
    """A JSON-safe breakdown of one engine evaluation.

    ``cache`` is the result-cache outcome (``"hit"``, ``"miss"`` or
    ``"ephemeral"`` for uncached throwaway walks); ``plan_cache`` the plan
    cache outcome (``"hit"``, ``"miss"`` or ``None`` when no plan was
    compiled at all).  The seconds fields are ``perf_counter`` deltas;
    ``depth_sizes[d]`` is the number of product states expanded at BFS
    depth ``d`` (empty on cache hits -- no walk happened).
    """

    operation: str = "evaluate"
    plan: str | None = None
    index_version: int | None = None
    index_uid: int | None = None
    cache: str = "miss"
    plan_cache: str | None = None
    compile_seconds: float = 0.0
    index_seconds: float = 0.0
    walk_seconds: float = 0.0
    total_seconds: float = 0.0
    states_expanded: int = 0
    edges_scanned: int = 0
    depth_sizes: list[int] = field(default_factory=list)
    selected: int | None = None

    def to_dict(self) -> dict:
        """A JSON-safe snapshot (stable key order; lists stay lists)."""
        return {
            "operation": self.operation,
            "plan": self.plan,
            "index_version": self.index_version,
            "index_uid": self.index_uid,
            "cache": self.cache,
            "plan_cache": self.plan_cache,
            "compile_seconds": self.compile_seconds,
            "index_seconds": self.index_seconds,
            "walk_seconds": self.walk_seconds,
            "total_seconds": self.total_seconds,
            "states_expanded": self.states_expanded,
            "edges_scanned": self.edges_scanned,
            "depth_sizes": list(self.depth_sizes),
            "selected": self.selected,
        }


def fingerprint_token(fingerprint: tuple) -> str:
    """A short printable token for a plan fingerprint: 12 hex digits.

    A content digest (``blake2b`` of the fingerprint's ``repr``), so the
    token in ``repro explain``, planner reports, slow-log records and span
    attributes is the same in every process and across daemon restarts.
    That needs a ``repr`` that does not follow the hash seed, which the one
    fingerprint shape there is, ``TableDFA.fingerprint()`` (strings, ints
    and bytes in a tuple), has.
    """
    return blake2b(repr(fingerprint).encode(), digest_size=6).hexdigest()
