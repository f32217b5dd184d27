"""The indexed query-engine subsystem.

A production-shaped evaluation layer over the paper's product-construction
semantics (the dict/frozenset construction is the parity oracle in
``tests/oracles/product.py``):

* :mod:`repro.engine.index` -- :class:`GraphIndex`, an immutable int-encoded
  per-label CSR snapshot of a graph, invalidated by the graph's version
  counter;
* :mod:`repro.engine.cache` -- LRU plan cache (a plan is the query's kernel
  ``TableDFA`` as the planner left it) and versioned result cache,
  with byte-budget eviction and a process-wide shared-cache registry keyed
  by snapshot content identity;
* :mod:`repro.engine.planner` -- every planning decision
  (``EngineConfig.planner``): the parity-pinned automaton rewriter and the
  two comparisons that pick an all-pairs kernel and a pair search;
* :mod:`repro.engine.executor` -- the product walk on int arrays, written
  once per shape (forward early-exit search, backward whole-graph closure,
  per-source binary closure, bidirectional pair search) over one ``bind``
  of the kernel's transition array; the pure-python walks are the
  reference for the numpy-vectorized twins of the whole-graph walks;
* :mod:`repro.engine.engine` -- :class:`QueryEngine`, the facade with
  single-query, batch (:meth:`QueryEngine.evaluate_many`) and stats APIs.

The high-level entry points (``PathQuery.evaluate``, the learner's
consistency checks, the interactive session, the experiment drivers) take a
required keyword-only ``engine=`` -- a :class:`~repro.api.Workspace` hands
them its own; there is no process-wide engine.
"""

from repro.engine.cache import (
    LRUCache,
    PlanCache,
    ResultCache,
    clear_shared_caches,
    estimate_entry_bytes,
    shared_cache_keys,
    shared_caches,
)
from repro.engine.engine import EngineStats, QueryEngine
from repro.engine.executor import BACKENDS, KernelStats, resolve_backend
from repro.engine.planner import PLANNER_MODES, RewriteOutcome, rewrite_table
from repro.engine.index import GraphIndex

__all__ = [
    "BACKENDS",
    "EngineStats",
    "GraphIndex",
    "KernelStats",
    "LRUCache",
    "PLANNER_MODES",
    "PlanCache",
    "QueryEngine",
    "ResultCache",
    "RewriteOutcome",
    "clear_shared_caches",
    "estimate_entry_bytes",
    "resolve_backend",
    "rewrite_table",
    "shared_cache_keys",
    "shared_caches",
]
