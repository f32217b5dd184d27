"""LRU caches for compiled plans and versioned query results.

Two caches back the engine:

* the **plan cache** maps a query table's structural fingerprint
  (:meth:`~repro.automata.kernel.TableDFA.fingerprint`; with the planner on,
  paired with the graph's label set) to the entry ``(table, report)``: the
  :class:`~repro.automata.kernel.TableDFA` the walks read -- the planner's
  output, or the query's own table -- and the rewrite report.  Re-evaluating
  a query -- or a different ``PathQuery`` object with the same canonical
  table -- skips the rewrite and its parity checks;
* the **result cache** maps ``(operation, fingerprint, graph uid, graph
  version)`` to a finished result: a monadic
  :class:`~repro.engine.index.Answer` (the walk's id array) or a pair set.
  Because the graph's version counter participates in the key, a mutation
  silently invalidates every stale entry: the new version simply misses and
  the old entries age out of the LRU.

Retention note: entries are evicted by capacity, not by graph lifetime, so
results for graphs that have since been garbage collected (including
``O(|V|^2)`` binary pair sets) stay pinned until enough newer entries churn
them out.  Long-lived processes sweeping many large graphs should size
``result_cache_size`` accordingly or call
:meth:`~repro.engine.engine.QueryEngine.clear_caches` between workloads.

Thread safety: every operation holds the cache's own lock, so a served
engine can hit one shared plan/result cache from many worker threads
without corrupting the underlying ``OrderedDict`` recency links (the
service layer's whole shared-cache design rests on this).
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from collections.abc import Hashable
from itertools import islice
from typing import Any

_MISSING = object()

#: How many container elements :func:`estimate_entry_bytes` samples before
#: extrapolating; deep exhaustive measurement would rival the kernel cost
#: of producing the value in the first place.
_SAMPLE = 8


def estimate_entry_bytes(value: Any, _depth: int = 2) -> int:
    """A cheap byte estimate of one cache entry (key or value).

    Containers are sampled (up to a few elements, two levels deep) and
    extrapolated.  The point is proportionality -- a 100k-pair binary result
    must dwarf a ten-node set -- not accounting-grade precision.  Anything
    else is its ``sys.getsizeof``, which for a monadic
    :class:`~repro.engine.index.Answer` is exact: the id array's bytes.
    """
    size = sys.getsizeof(value, 64)
    if _depth <= 0:
        return size
    if isinstance(value, (tuple, list, set, frozenset)):
        length = len(value)
        if length:
            sampled = list(islice(iter(value), _SAMPLE))
            per_item = sum(
                estimate_entry_bytes(item, _depth - 1) for item in sampled
            ) / len(sampled)
            size += int(per_item * length)
    elif isinstance(value, dict):
        if value:
            sampled = list(islice(value.items(), _SAMPLE))
            per_item = sum(
                estimate_entry_bytes(k, _depth - 1) + estimate_entry_bytes(v, _depth - 1)
                for k, v in sampled
            ) / len(sampled)
            size += int(per_item * len(value))
    return size


class LRUCache:
    """A small order-of-use bounded mapping with hit/miss counters.

    Beyond the entry-count capacity an optional **byte budget** bounds the
    estimated memory footprint (:func:`estimate_entry_bytes`): inserts
    evict least-recently-used entries until the estimate fits again, so one
    cache full of ``O(|V|^2)`` binary pair sets cannot quietly pin
    gigabytes.  The most recent entry always stays, however large --
    evicting the result that was just computed would only force a rerun.
    """

    __slots__ = (
        "capacity",
        "hits",
        "misses",
        "evictions",
        "budget_bytes",
        "size_bytes",
        "_data",
        "_sizes",
        "_lock",
    )

    def __init__(self, capacity: int, *, budget_bytes: int | None = None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        if budget_bytes is not None and budget_bytes < 1:
            raise ValueError("cache budget_bytes must be positive when set")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.budget_bytes = budget_bytes
        self.size_bytes = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        # Per-entry byte estimates; maintained only under an active budget
        # (the estimator is not free, and without a budget it buys nothing).
        self._sizes: dict[Hashable, int] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency; counts a hit or a miss."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key``, evicting LRU entries past capacity or budget."""
        with self._lock:
            data = self._data
            if key in data:
                data.move_to_end(key)
            data[key] = value
            if self.budget_bytes is not None:
                previous = self._sizes.pop(key, 0)
                entry_bytes = estimate_entry_bytes(key) + estimate_entry_bytes(value)
                self._sizes[key] = entry_bytes
                self.size_bytes += entry_bytes - previous
            if len(data) > self.capacity:
                self._evict_lru()
            if self.budget_bytes is not None:
                while self.size_bytes > self.budget_bytes and len(data) > 1:
                    self._evict_lru()

    def _evict_lru(self) -> None:
        """Drop the least recently used entry (caller holds the lock)."""
        evicted_key, _ = self._data.popitem(last=False)
        self.evictions += 1
        if self.budget_bytes is not None:
            self.size_bytes -= self._sizes.pop(evicted_key, 0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        """Drop every entry (the hit/miss counters are kept)."""
        with self._lock:
            self._data.clear()
            self._sizes.clear()
            self.size_bytes = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (1.0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def metrics(self) -> dict[str, int | float]:
        """The cache's hit economics as one JSON-safe dict (telemetry export)."""
        return {
            "capacity": self.capacity,
            "size": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "budget_bytes": self.budget_bytes,
            "size_bytes": self.size_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(size={len(self._data)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class PlanCache(LRUCache):
    """LRU cache of ``(table, report)`` plans, keyed by table fingerprint."""


class ResultCache(LRUCache):
    """LRU cache of finished results, keyed by (op, plan, graph uid+version)."""

    @staticmethod
    def key(
        operation: str, fingerprint: Hashable, graph_uid: object, graph_version: int
    ) -> tuple:
        """The versioned cache key of one evaluation.

        ``graph_uid`` is the process-minted counter for heap graphs, but
        snapshot-backed views substitute their **content identity** (path +
        payload checksum), which is what lets independently opened
        workspaces over the same snapshot share one result cache.
        """
        return (operation, fingerprint, graph_uid, graph_version)


# -- cross-workspace sharing --------------------------------------------------
#
# Two workspaces that `open_snapshot` the same file evaluate against
# byte-identical graphs, yet each engine would grow its own caches and
# re-answer queries the sibling already paid for.  The registry below keys
# one process-wide (plan cache, result cache) pair by the snapshot's
# *content* identity; engines adopt the shared pair via
# `QueryEngine.adopt_shared_caches`.  Both cache classes are thread-safe,
# so adoption needs no extra synchronization beyond this registry lock.

_SHARED_LOCK = threading.Lock()
_SHARED_CACHES: dict[Hashable, tuple[PlanCache, ResultCache]] = {}


def shared_caches(
    content_key: Hashable,
    *,
    plan_capacity: int = 256,
    result_capacity: int = 1024,
    budget_bytes: int | None = None,
) -> tuple[PlanCache, ResultCache]:
    """The process-wide cache pair for one snapshot content identity.

    The first caller's capacities and budget create the pair; later
    callers adopt it as-is (capacities are a property of the shared pool,
    not of each adopter).
    """
    with _SHARED_LOCK:
        pair = _SHARED_CACHES.get(content_key)
        if pair is None:
            pair = (
                PlanCache(plan_capacity),
                ResultCache(result_capacity, budget_bytes=budget_bytes),
            )
            _SHARED_CACHES[content_key] = pair
        return pair


def shared_cache_keys() -> list:
    """The content identities currently holding shared cache pairs."""
    with _SHARED_LOCK:
        return list(_SHARED_CACHES)


def clear_shared_caches() -> None:
    """Drop every shared pair (tests; a served process never needs this)."""
    with _SHARED_LOCK:
        _SHARED_CACHES.clear()
