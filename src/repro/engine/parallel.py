"""Sharded process-pool execution of the whole-graph product walks.

The two whole-graph walks (:func:`~repro.engine.executor.evaluate_all`,
:func:`~repro.engine.executor.binary_evaluate`, or their numpy twins --
:func:`~repro.engine.executor.whole_graph_walks` picks the pair for a
backend) have a natural partition:

* ``evaluate_all`` runs one backward BFS from the accepting seed pairs, and
  co-reachability from a union of seed sets is the union of the per-shard
  co-reachable sets -- so the seed pairs split into contiguous node ranges
  and the selected sets union back together;
* ``binary_evaluate`` walks each source node independently -- the source
  range splits the same way;
* a batch of plans (``evaluate_many``) splits by plan.

Workers share the graph through the storage layer: the pool initializer
``open_snapshot``-s the *same* ``.rgz`` file, so every worker gets a
zero-copy mmap view of the CSR arrays and nothing graph-sized is ever
pickled -- only :class:`~repro.engine.plan.CompiledPlan` objects (small,
plain int tables) and result frozensets cross the process boundary.  That
is also why sharding is **snapshot-backed only**: a heap-built index has no
file to re-open, and serializing it would cost more than it saves.

:class:`ParallelExecutor` is the engine-facing facade.  It is conservative
by construction: below ``min_shard_edges`` the per-process fan-out cannot
amortize, unsuitable indexes (no ``path``) are declined via
:meth:`available_for`, and any pool failure (spawn error, dead worker)
permanently marks the snapshot as broken and reports ``None`` so the
engine falls back to the in-process kernels -- results are never lost to
parallelism.  Worker kernel stats are merged into the engine's
:class:`~repro.engine.executor.KernelStats` with one locked add per call.
"""

from __future__ import annotations

import itertools
import os
import threading
import uuid
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

from repro.engine.executor import KernelStats, whole_graph_walks
from repro.engine.index import GraphIndex
from repro.engine.plan import CompiledPlan

#: Below this many edges a process fan-out cannot amortize its IPC cost.
DEFAULT_MIN_SHARD_EDGES = 50_000


def shard_bounds(n: int, shards: int) -> list[tuple[int, int]]:
    """``shards`` contiguous, disjoint ``[lo, hi)`` ranges covering ``0..n``.

    Ranges differ in size by at most one node; empty ranges are dropped, so
    asking for more shards than nodes degrades gracefully.
    """
    shards = max(1, shards)
    bounds = []
    for i in range(shards):
        lo = i * n // shards
        hi = (i + 1) * n // shards
        if lo < hi:
            bounds.append((lo, hi))
    return bounds or [(0, n)]


# -- worker side --------------------------------------------------------------
#
# One module-global index per worker process, installed by the pool
# initializer.  Task payloads reference the graph implicitly through it.

_WORKER_INDEX: GraphIndex | None = None


def _worker_init(path: str) -> None:
    """Pool initializer: map the shared snapshot into this worker."""
    global _WORKER_INDEX
    from repro.storage.snapshot import open_snapshot

    _WORKER_INDEX = open_snapshot(path)


# Cross-process span identity for traced shard work: a random per-process
# origin token plus one atomic counter yields ``origin:span_id`` refs that
# merge into the coordinator's trace without id coordination (the same
# scheme Tracer uses -- see repro.telemetry.tracing).  Workers have no
# tracer or sink of their own: they build finished-span record dicts and
# ship them back with the shard results; the coordinator ingests them.

_WORKER_ORIGIN: str | None = None
_WORKER_SPAN_IDS = itertools.count(1)


def _worker_origin() -> str:
    global _WORKER_ORIGIN
    if _WORKER_ORIGIN is None:
        _WORKER_ORIGIN = uuid.uuid4().hex[:8]
    return _WORKER_ORIGIN


def _span_record(name: str, seconds: float, attrs: dict, trace: dict) -> dict:
    """A finished-span record for traced shard work (Tracer record schema).

    ``start`` is 0.0: worker clocks do not share the coordinator tracer's
    epoch, so only ``seconds`` is meaningful across the process boundary.
    """
    span_id = next(_WORKER_SPAN_IDS)
    record = {
        "name": name,
        "span_id": span_id,
        "parent_id": 0,
        "depth": 0,
        "start": 0.0,
        "seconds": round(seconds, 9),
        "attrs": attrs,
        "trace": trace.get("trace_id"),
        "span": f"{_worker_origin()}:{span_id}",
    }
    if trace.get("parent_span") is not None:
        record["parent"] = trace["parent_span"]
    if trace.get("tenant") is not None:
        record["tenant"] = trace["tenant"]
    return record


def _shard_evaluate_all(payload) -> tuple[frozenset[int], tuple[int, int], tuple]:
    plan, lo, hi, backend, trace = payload
    whole, _ = whole_graph_walks(backend)
    stats = KernelStats()
    started = perf_counter()
    selected = whole(_WORKER_INDEX, plan, stats, seed_lo=lo, seed_hi=hi)
    marks = stats.mark()
    if trace is None:
        return selected, marks, ()
    attrs = {
        "lo": lo,
        "hi": hi,
        "backend": backend,
        "pid": os.getpid(),
        "states_expanded": marks[0],
        "edges_scanned": marks[1],
    }
    record = _span_record("shard.evaluate_all", perf_counter() - started, attrs, trace)
    return selected, marks, (record,)


def _shard_binary_evaluate(payload) -> tuple[frozenset, tuple[int, int], tuple]:
    plan, lo, hi, backend, trace = payload
    _, binary = whole_graph_walks(backend)
    stats = KernelStats()
    started = perf_counter()
    selected = binary(_WORKER_INDEX, plan, stats, source_lo=lo, source_hi=hi)
    marks = stats.mark()
    if trace is None:
        return selected, marks, ()
    attrs = {
        "lo": lo,
        "hi": hi,
        "backend": backend,
        "pid": os.getpid(),
        "states_expanded": marks[0],
        "edges_scanned": marks[1],
    }
    record = _span_record("shard.binary_evaluate", perf_counter() - started, attrs, trace)
    return selected, marks, (record,)


def _shard_evaluate_plans(payload) -> tuple[list[frozenset[int]], tuple[int, int], tuple]:
    plans, backend, trace = payload
    whole, _ = whole_graph_walks(backend)
    stats = KernelStats()
    started = perf_counter()
    results = [whole(_WORKER_INDEX, plan, stats) for plan in plans]
    marks = stats.mark()
    if trace is None:
        return results, marks, ()
    attrs = {
        "plans": len(plans),
        "backend": backend,
        "pid": os.getpid(),
        "states_expanded": marks[0],
        "edges_scanned": marks[1],
    }
    record = _span_record("shard.evaluate_plans", perf_counter() - started, attrs, trace)
    return results, marks, (record,)


# -- in-process shard kernels (used by the invariance tests and fallbacks) ----


def evaluate_all_sharded(
    index: GraphIndex,
    plan: CompiledPlan,
    shards: int,
    *,
    backend: str = "python",
    stats: KernelStats | None = None,
) -> frozenset[int]:
    """Shard ``evaluate_all`` sequentially in-process and union the results.

    The shard kernels are plain callables; the process pool is only
    transport.  This function runs the identical partition without a pool,
    which is what the shard-count-invariance tests pin against the
    single-shard answer.
    """
    whole, _ = whole_graph_walks(backend)
    if plan.is_empty_language or plan.accepts_empty_word:
        return whole(index, plan, stats)
    selected: set[int] = set()
    for lo, hi in shard_bounds(index.num_nodes, shards):
        selected.update(whole(index, plan, stats, seed_lo=lo, seed_hi=hi))
    return frozenset(selected)


def binary_evaluate_sharded(
    index: GraphIndex,
    plan: CompiledPlan,
    shards: int,
    *,
    backend: str = "python",
    stats: KernelStats | None = None,
) -> frozenset[tuple[int, int]]:
    """Shard ``binary_evaluate`` sequentially in-process; union the pairs."""
    _, binary = whole_graph_walks(backend)
    selected: set[tuple[int, int]] = set()
    for lo, hi in shard_bounds(index.num_nodes, shards):
        selected.update(binary(index, plan, stats, source_lo=lo, source_hi=hi))
    return frozenset(selected)


# -- the engine-facing facade -------------------------------------------------


class ParallelExecutor:
    """Fan whole-graph kernel calls across a per-snapshot process pool.

    One executor belongs to one engine.  Pools are created lazily per
    snapshot path and reused across calls; a pool that fails to spawn or
    loses a worker marks its path broken, and every entry point then
    returns ``None`` (= "run in-process instead") rather than raising.
    """

    def __init__(
        self,
        *,
        workers: int,
        backend: str = "python",
        min_shard_edges: int = DEFAULT_MIN_SHARD_EDGES,
        registry=None,
    ) -> None:
        self.workers = workers
        self.backend = backend
        self.min_shard_edges = min_shard_edges
        self._pools: dict[str, ProcessPoolExecutor] = {}
        self._broken: set[str] = set()
        self._lock = threading.Lock()
        if registry is not None:
            self._shards = registry.counter(
                "kernel_shards_total",
                help="Node-range shards dispatched to pool workers",
            )
            self._fallbacks = registry.counter(
                "kernel_shard_fallbacks_total",
                help="Sharded calls that fell back to in-process execution",
            )
        else:
            self._shards = self._fallbacks = None

    # -- eligibility ---------------------------------------------------------

    @staticmethod
    def snapshot_path(index: GraphIndex) -> str | None:
        """The backing ``.rgz`` path of a snapshot-mapped index, or None."""
        path = getattr(index, "path", None)
        return None if path is None else str(path)

    def available_for(self, index: GraphIndex) -> bool:
        """Whether sharded execution can run on this index at all."""
        if self.workers < 2:
            return False
        path = self.snapshot_path(index)
        if path is None or path in self._broken:
            return False
        return index.edge_count >= self.min_shard_edges

    # -- pool management -----------------------------------------------------

    def _pool_for(self, path: str) -> ProcessPoolExecutor | None:
        with self._lock:
            if path in self._broken:
                return None
            pool = self._pools.get(path)
            if pool is not None:
                return pool
            try:
                pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_worker_init,
                    initargs=(path,),
                )
            except Exception:
                self._broken.add(path)
                return None
            self._pools[path] = pool
            return pool

    def _discard_pool(self, path: str) -> None:
        with self._lock:
            self._broken.add(path)
            pool = self._pools.pop(path, None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        if self._fallbacks is not None:
            self._fallbacks.inc()

    def shutdown(self) -> None:
        """Stop every worker pool (idempotent)."""
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- sharded kernels -----------------------------------------------------

    def _fan_out(self, index, task, payloads):
        """Run ``task`` for every payload on the index's pool.

        Returns the list of worker results, or ``None`` when the pool is
        unavailable or any worker failed (the caller falls back).
        """
        path = self.snapshot_path(index)
        if path is None:
            return None
        pool = self._pool_for(path)
        if pool is None:
            return None
        try:
            results = list(pool.map(task, payloads))
        except Exception:
            self._discard_pool(path)
            return None
        if self._shards is not None:
            self._shards.inc(len(payloads))
        return results

    def evaluate_all(
        self,
        index: GraphIndex,
        plan: CompiledPlan,
        stats: KernelStats | None = None,
        *,
        trace: dict | None = None,
        ingest=None,
    ) -> frozenset[int] | None:
        """Sharded :func:`~repro.engine.executor.evaluate_all`, or None.

        ``trace`` is a :class:`~repro.telemetry.TraceContext` wire dict
        shipped inside every task payload; workers then return finished
        span records which are fed to the ``ingest`` callable (usually
        ``Tracer.ingest``) during the merge.
        """
        if plan.is_empty_language:
            return frozenset()
        if plan.accepts_empty_word:
            return frozenset(range(index.num_nodes))
        payloads = [
            (plan, lo, hi, self.backend, trace)
            for lo, hi in shard_bounds(index.num_nodes, self.workers)
        ]
        shards = self._fan_out(index, _shard_evaluate_all, payloads)
        if shards is None:
            return None
        return self._merge(shards, stats, ingest)

    def binary_evaluate(
        self,
        index: GraphIndex,
        plan: CompiledPlan,
        stats: KernelStats | None = None,
        *,
        trace: dict | None = None,
        ingest=None,
    ) -> frozenset[tuple[int, int]] | None:
        """Sharded :func:`~repro.engine.executor.binary_evaluate`, or None."""
        if plan.is_empty_language:
            return frozenset()
        payloads = [
            (plan, lo, hi, self.backend, trace)
            for lo, hi in shard_bounds(index.num_nodes, self.workers)
        ]
        shards = self._fan_out(index, _shard_binary_evaluate, payloads)
        if shards is None:
            return None
        return self._merge(shards, stats, ingest)

    def evaluate_plans(
        self,
        index: GraphIndex,
        plans: list[CompiledPlan],
        stats: KernelStats | None = None,
        *,
        trace: dict | None = None,
        ingest=None,
    ) -> list[frozenset[int]] | None:
        """A batch of whole-graph evaluations fanned across the pool.

        Plans are split into one chunk per worker (order preserved); this is
        the transport under :meth:`QueryEngine.evaluate_many
        <repro.engine.engine.QueryEngine.evaluate_many>` and therefore under
        the service micro-batcher.
        """
        if not plans:
            return []
        chunks = [
            (plans[lo:hi], self.backend, trace)
            for lo, hi in shard_bounds(len(plans), self.workers)
        ]
        outputs = self._fan_out(index, _shard_evaluate_plans, chunks)
        if outputs is None:
            return None
        results: list[frozenset[int]] = []
        states = edges = 0
        for chunk_results, (chunk_states, chunk_edges), records in outputs:
            results.extend(chunk_results)
            states += chunk_states
            edges += chunk_edges
            if ingest is not None:
                for record in records:
                    ingest(record)
        if stats is not None:
            stats.add(states, edges)
        return results

    @staticmethod
    def _merge(shards, stats: KernelStats | None, ingest=None):
        """Union shard results; flush summed worker stats in one locked add.

        Worker-emitted span records ride back with the shard results and
        are handed to ``ingest`` here, so traced shard work lands in the
        coordinator's sink in the same pass that merges the answers.
        """
        merged: set = set()
        states = edges = 0
        for selected, (shard_states, shard_edges), records in shards:
            merged.update(selected)
            states += shard_states
            edges += shard_edges
            if ingest is not None:
                for record in records:
                    ingest(record)
        if stats is not None:
            stats.add(states, edges)
        return frozenset(merged)

    def __repr__(self) -> str:
        return (
            f"ParallelExecutor(workers={self.workers}, backend={self.backend!r}, "
            f"pools={len(self._pools)})"
        )
