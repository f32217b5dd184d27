"""The micro-batcher: coalesce concurrent queries into one engine pass.

Requests for the *same snapshot* that queue together are drained together,
deduplicated by query expression (a burst of clients asking the same
question costs one evaluation, fanned back to each), and answered by one
pass of the worker through the snapshot's engine, every plan and result
going through the shared caches.  Each request gets back what its own
evaluation produced: the answer, the error, the profile.

Batches start at least ``batch_window`` apart: a request that arrives a
window or more after the last batch started drains at once (so a client
that pauses between queries never waits), and requests arriving sooner
collect into one batch that starts when the window has passed or
``batch_max`` is reached.

Submitting threads block on a per-request event; a single worker thread
owns the engine calls.  Admission is bounded: past ``queue_depth`` pending
requests the batcher sheds with a structured
:class:`~repro.errors.OverloadedError` (a 429, not a hang), which is the
service's backpressure story.

``pause()``/``resume()`` freeze draining so tests (and drain-sensitive
benchmarks) can pile up submissions and observe one deterministic batch.
"""

from __future__ import annotations

import threading
import time


class _Pending:
    """One submitted query waiting for its batch to execute.

    ``trace`` is the request's :class:`~repro.telemetry.TraceContext` (or
    None): the batch executes in the worker thread, where the submitting
    thread's ambient context is invisible, so it must ride the queue
    explicitly.
    """

    __slots__ = ("dataset", "query", "event", "result", "error", "trace", "profile", "queued")

    def __init__(self, dataset, query, trace=None) -> None:
        self.dataset = dataset
        self.query = query
        self.event = threading.Event()
        self.result = None
        self.error: Exception | None = None
        self.trace = trace
        self.profile: dict | None = None
        self.queued = time.perf_counter()


class MicroBatcher:
    """Group compatible single-query requests into engine batch calls.

    The ``dataset`` passed to :meth:`submit` is the hot snapshot's
    :class:`~repro.api.Workspace` (its ``.graph``, ``.engine`` and
    ``.telemetry`` are used); grouping is by dataset identity, so only
    requests against the same open snapshot ever share a batch.
    """

    def __init__(
        self,
        *,
        batch_window: float = 0.002,
        batch_max: int = 16,
        queue_depth: int = 64,
        registry=None,
    ) -> None:
        self.batch_window = batch_window
        self.batch_max = batch_max
        self.queue_depth = queue_depth
        self._pending: list[_Pending] = []
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._paused = False
        self._stopped = False
        self._worker: threading.Thread | None = None
        if registry is not None:
            self._batches = registry.counter(
                "service_batches_total", help="batches executed by the micro-batcher"
            )
            self._batched = registry.counter(
                "service_batched_queries_total",
                help="query requests answered through a micro-batch",
            )
            self._batch_size = registry.histogram(
                "service_batch_size",
                buckets=(1, 2, 4, 8, 16, 32),
                help="queries coalesced per batch",
            )
            self._shed = registry.counter(
                "service_batch_shed_total",
                help="query requests shed because the batch queue was full",
            )
            self._deduped = registry.counter(
                "service_batch_deduped_total",
                help="batched requests answered by a duplicate batch-mate's evaluation",
            )
            self._wait = registry.histogram(
                "service_batch_wait_seconds", help="seconds from enqueue to the batch's start"
            )
        else:
            self._batches = self._batched = self._batch_size = self._shed = None
            self._deduped = self._wait = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the worker thread (idempotent)."""
        with self._lock:
            if self._worker is not None:
                return
            self._stopped = False
            self._worker = threading.Thread(
                target=self._run, name="repro-batcher", daemon=True
            )
            self._worker.start()

    def stop(self) -> None:
        """Stop the worker, failing any still-pending requests."""
        with self._wakeup:
            self._stopped = True
            leftovers = self._pending
            self._pending = []
            self._wakeup.notify_all()
        from repro.errors import ServiceError

        for pending in leftovers:
            pending.error = ServiceError(
                "service shutting down", code="shutting_down", status=503
            )
            pending.event.set()
        worker = self._worker
        if worker is not None:
            worker.join(timeout=5.0)
            self._worker = None

    def pause(self) -> None:
        """Hold draining; submissions queue up (until ``queue_depth``)."""
        with self._wakeup:
            self._paused = True
            self._wakeup.notify_all()

    def resume(self) -> None:
        """Resume draining whatever accumulated while paused."""
        with self._wakeup:
            self._paused = False
            self._wakeup.notify_all()

    @property
    def depth(self) -> int:
        """Currently queued (not yet drained) requests."""
        with self._lock:
            return len(self._pending)

    # -- the client-facing call ----------------------------------------------

    def submit(self, dataset, query, *, timeout: float | None = None, trace=None):
        """Evaluate ``query`` on ``dataset``, coalesced with its neighbours.

        Blocks until the owning batch executed; raises
        :class:`~repro.errors.OverloadedError` immediately when the queue
        is full, and a 504-style timeout error when the batch did not
        complete within ``timeout`` seconds (the request leaves the queue).
        ``trace`` carries the request's trace context into the worker thread.
        """
        from repro.errors import OverloadedError, ServiceError

        pending = _Pending(dataset, query, trace)
        with self._wakeup:
            if self._stopped:
                raise ServiceError("service shutting down", code="shutting_down", status=503)
            if len(self._pending) >= self.queue_depth:
                if self._shed is not None:
                    self._shed.inc()
                raise OverloadedError(
                    f"batch queue full ({self.queue_depth} pending); retry later"
                )
            self._pending.append(pending)
            self._wakeup.notify_all()
        if not pending.event.wait(timeout):
            with self._lock:
                if pending in self._pending:  # once drained, its answer is dropped
                    self._pending.remove(pending)
            raise ServiceError(
                f"query did not complete within {timeout}s", code="timeout", status=504
            )
        if pending.error is not None:
            raise pending.error
        # As if this thread had called ``engine.answer`` itself: the answer
        # is returned and its profile waits in this thread's slot.
        dataset.engine.last_profile = pending.profile
        return pending.result

    # -- the worker ----------------------------------------------------------

    def _run(self) -> None:
        opens = 0.0  # the next batch may start from here on
        while True:
            with self._wakeup:
                while not self._stopped and (self._paused or not self._pending):
                    self._wakeup.wait()
                if self._stopped:
                    return
                # Collect batch-mates until the window since the last batch's
                # start has passed (stop() empties the queue).
                while not self._paused and 0 < len(self._pending) < self.batch_max:
                    if not self._wakeup.wait(opens - time.perf_counter()):
                        break
                batch = self._drain_one_group()
            if batch:
                opens = time.perf_counter() + self.batch_window
                self._execute(batch)

    def _drain_one_group(self) -> list[_Pending]:
        """Pop up to ``batch_max`` requests of the oldest dataset (lock held)."""
        if self._paused or not self._pending:
            return []
        dataset = self._pending[0].dataset
        batch: list[_Pending] = []
        keep: list[_Pending] = []
        for pending in self._pending:
            if pending.dataset is dataset and len(batch) < self.batch_max:
                batch.append(pending)
            else:
                keep.append(pending)
        self._pending = keep
        if keep:  # another group (or overflow) is still waiting
            self._wakeup.notify_all()
        return batch

    @staticmethod
    def _dedupe_key(pending: _Pending):
        """Group batch-mates asking the same question (burst traffic is
        repetitive: many clients polling one query).  Queries without a
        stable expression fall back to identity -- never deduplicated."""
        expression = getattr(pending.query, "expression", None)
        return expression if isinstance(expression, str) else pending

    def _execute(self, batch: list[_Pending]) -> None:
        dataset = batch[0].dataset
        if self._batches is not None:
            started = time.perf_counter()
            self._batches.inc()
            self._batched.inc(len(batch))
            self._batch_size.observe(len(batch))
            for pending in batch:
                self._wait.observe(started - pending.queued)
        # Evaluate each distinct expression once and fan the answer (its
        # error, its profile) back to every duplicate submitter.  Traced
        # requests opt out: their spans must attribute to exactly one
        # request's trace -- tracing is a diagnostic mode, fidelity beats
        # coalescing there.
        leaders: dict[object, _Pending] = {}
        for pending in batch:
            key = pending if pending.trace is not None else self._dedupe_key(pending)
            leader = leaders.setdefault(key, pending)
            if leader is pending:
                try:
                    with dataset.telemetry.context(pending.trace):
                        pending.result = dataset.engine.answer(dataset.graph, pending.query)
                    # The profile is this thread's; it rides back with the
                    # answer instead of waiting in a slot the tenants share.
                    pending.profile = dataset.engine.take_profile()
                except Exception as error:  # noqa: BLE001 - delivered to the caller
                    pending.error = error
            else:
                pending.result, pending.error = leader.result, leader.error
                pending.profile = leader.profile
            pending.event.set()
        if self._deduped is not None and len(leaders) < len(batch):
            self._deduped.inc(len(batch) - len(leaders))
