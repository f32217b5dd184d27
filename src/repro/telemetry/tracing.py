"""Structured tracing: nestable spans, a bounded buffer, a rotating JSONL sink.

A :class:`Tracer` hands out :class:`Span` context managers.  Spans nest --
the tracer keeps a per-thread stack, so each finished span records its
parent id and depth even when many server threads share one tracer -- and
are timed with ``time.perf_counter`` (monotonic; consistent with
``Result.elapsed`` everywhere in the library).  Finished spans land in an
in-memory ring buffer and, when a :class:`TraceSink` is attached, as one
JSON object per line in a trace file with size-based rotation.

Record schema (one JSONL object per finished span)::

    {"name": "engine.evaluate", "span_id": 7, "parent_id": 3, "depth": 1,
     "start": 0.000132, "seconds": 0.00251, "attrs": {"cache": "miss", ...}}

``start`` is seconds since the tracer was created (perf_counter deltas, not
wall clock), so records order and subtract cleanly within one process.

Distributed traces add a :class:`TraceContext` -- a trace id plus the
globally-unique ref of the parent span, minted client-side and carried on
the wire.  While a context is attached (:meth:`Tracer.context`, per
thread), every finished record additionally carries::

    {"trace": "9f2c...", "span": "a1b2c3d4:7", "parent": "e5f6a7b8:3",
     "tenant": "acme"}

``span``/``parent`` are ``origin:span_id`` refs (``origin`` is a random
per-tracer token), so records from different processes join into one tree
without coordinating span-id allocation; a thread's *root* span parents
onto the context's ``parent_span`` ref from the remote caller.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import uuid
from collections import deque
from dataclasses import dataclass, replace
from time import perf_counter

from repro.errors import TelemetryError

#: Default sink rotation threshold (bytes) and number of rotated files kept.
DEFAULT_MAX_BYTES = 8 * 1024 * 1024
DEFAULT_KEEP = 3


@dataclass(frozen=True)
class TraceContext:
    """The cross-process identity of one request's trace.

    ``trace_id`` names the whole request; ``parent_span`` is the
    ``origin:span_id`` ref of the caller's open span (None for a root
    context); ``tenant`` stamps every record for per-tenant attribution.
    The wire form (:meth:`to_dict`) rides the protocol's ``trace`` field.
    """

    trace_id: str
    parent_span: str | None = None
    tenant: str | None = None

    @classmethod
    def mint(cls, *, tenant: str | None = None) -> "TraceContext":
        """A fresh root context with a random 128-bit trace id."""
        return cls(trace_id=uuid.uuid4().hex, tenant=tenant)

    def child(self, parent_span: str | None) -> "TraceContext":
        """The same trace, re-parented onto ``parent_span`` for a callee."""
        return replace(self, parent_span=parent_span)

    def to_dict(self) -> dict:
        payload: dict = {"trace_id": self.trace_id}
        if self.parent_span is not None:
            payload["parent_span"] = self.parent_span
        if self.tenant is not None:
            payload["tenant"] = self.tenant
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceContext":
        """Validate a wire ``trace`` payload back into a context."""
        if not isinstance(payload, dict):
            raise TelemetryError(
                f"trace context must be an object, got {type(payload).__name__}"
            )
        trace_id = payload.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            raise TelemetryError(
                f"trace context needs a non-empty trace_id string, got {trace_id!r}"
            )
        parent_span = payload.get("parent_span")
        if parent_span is not None and not isinstance(parent_span, str):
            raise TelemetryError(
                f"trace context parent_span must be a span ref string, got {parent_span!r}"
            )
        tenant = payload.get("tenant")
        if tenant is not None and not isinstance(tenant, str):
            raise TelemetryError(
                f"trace context tenant must be a string, got {tenant!r}"
            )
        return cls(trace_id=trace_id, parent_span=parent_span, tenant=tenant)


class _NoopSpan:
    """The shared do-nothing span handed out when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


#: Singleton no-op span: ``telemetry.span(...)`` returns this when disabled,
#: so the instrumented code path is one truthiness check plus two no-op calls.
NOOP_SPAN = _NoopSpan()


class Span:
    """One timed, attributed region of work (use as a context manager)."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "depth", "start", "seconds", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id = 0
        self.depth = 0
        self.start = 0.0
        self.seconds = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span (chains; last write wins)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._close(self)
        return False

    def __repr__(self) -> str:
        return f"Span({self.name!r}, id={self.span_id}, seconds={self.seconds:.6f})"


class TraceSink:
    """An append-only JSONL file with size-based rotation.

    When the file exceeds ``max_bytes`` after a write, it rotates:
    ``trace.jsonl`` -> ``trace.jsonl.1`` -> ... -> ``trace.jsonl.<keep>``
    (the oldest is dropped).  Writes are line-buffered JSON, one record per
    line, compact separators, serialized by a lock so one sink can be
    shared by many tracers (the serving daemon shares one sink across its
    per-dataset engines).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        keep: int = DEFAULT_KEEP,
    ) -> None:
        if max_bytes <= 0:
            raise TelemetryError("trace rotation threshold must be positive")
        if keep < 1:
            raise TelemetryError("must keep at least one rotated trace file")
        self.path = os.fspath(path)
        self.max_bytes = max_bytes
        self.keep = keep
        self._file = open(self.path, "a", encoding="utf-8")
        self._size = self._file.tell()
        self._lock = threading.Lock()

    def write(self, record: dict) -> None:
        """Append one record as a JSON line (rotating first if needed)."""
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            if self._size and self._size + len(line) + 1 > self.max_bytes:
                self._rotate()
            self._file.write(line + "\n")
            self._size += len(line) + 1

    def _rotate(self) -> None:
        self._file.close()
        for i in range(self.keep - 1, 0, -1):
            older = f"{self.path}.{i}"
            if os.path.exists(older):
                os.replace(older, f"{self.path}.{i + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._file = open(self.path, "a", encoding="utf-8")
        self._size = 0

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __repr__(self) -> str:
        return f"TraceSink({self.path!r}, size={self._size})"


class Tracer:
    """Creates spans, tracks nesting, buffers and sinks finished records.

    ``events`` is a bounded ring of the most recent finished span records
    (dicts, newest last) -- always available for in-process inspection even
    without a sink.

    The open-span stack and the attached :class:`TraceContext` are both
    thread-local: the thread-per-connection server shares one tracer
    across requests, and concurrent spans must neither corrupt each
    other's parent/depth attribution nor leak another request's trace id.
    Span ids come from one atomic process-wide counter, so records from
    all threads stay unique; ``origin`` qualifies them into globally
    unique ``origin:span_id`` refs for cross-process assembly.
    """

    def __init__(self, sink: TraceSink | None = None, *, buffer: int = 2048) -> None:
        self.sink = sink
        self.events: deque[dict] = deque(maxlen=buffer)
        self.origin = uuid.uuid4().hex[:8]
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._epoch = perf_counter()

    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> Span:
        """A new (not yet started) span; enter it with ``with``."""
        return Span(self, name, attrs)

    # -- distributed context ---------------------------------------------------

    def context(self, ctx: TraceContext | None):
        """Attach a trace context to this thread for the ``with`` body.

        While attached, finished spans carry ``trace``/``span``/``parent``
        (and ``tenant``) fields, and a root span parents onto the
        context's ``parent_span`` ref.  ``None`` detaches (useful for
        uniform call sites).  Contexts nest: the previous one is restored
        on exit.
        """
        return _ContextScope(self, ctx)

    def current_context(self) -> TraceContext | None:
        """The context attached to this thread, or None."""
        return getattr(self._local, "context", None)

    def span_ref(self, span: Span) -> str:
        """The globally unique ``origin:span_id`` ref of a span."""
        return f"{self.origin}:{span.span_id}"

    def current_ref(self) -> str | None:
        """The ref of this thread's innermost open span, or None."""
        stack = self._stack
        return self.span_ref(stack[-1]) if stack else None

    # -- span lifecycle (called by Span.__enter__/__exit__) -------------------

    def _open(self, span: Span) -> None:
        span.span_id = next(self._ids)
        stack = self._stack
        if stack:
            span.parent_id = stack[-1].span_id
            span.depth = len(stack)
        stack.append(span)
        span.start = perf_counter() - self._epoch

    def _close(self, span: Span) -> None:
        span.seconds = perf_counter() - self._epoch - span.start
        # Tolerate mispaired exits (generators, exceptions mid-stack): pop
        # back to this span rather than corrupting the whole stack.
        stack = self._stack
        while stack:
            top = stack.pop()
            if top is span:
                break
        record = {
            "name": span.name,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "depth": span.depth,
            "start": round(span.start, 9),
            "seconds": round(span.seconds, 9),
            "attrs": span.attrs,
        }
        ctx = self.current_context()
        if ctx is not None:
            record["trace"] = ctx.trace_id
            record["span"] = self.span_ref(span)
            if span.parent_id:
                record["parent"] = f"{self.origin}:{span.parent_id}"
            elif ctx.parent_span is not None:
                record["parent"] = ctx.parent_span
            if ctx.tenant is not None:
                record["tenant"] = ctx.tenant
        self.events.append(record)
        if self.sink is not None:
            self.sink.write(record)

    def flush(self) -> None:
        if self.sink is not None:
            self.sink.flush()

    def __repr__(self) -> str:
        return f"Tracer(events={len(self.events)}, open={len(self._stack)})"


class _ContextScope:
    """Attach/restore one thread's trace context (``Tracer.context``)."""

    __slots__ = ("_tracer", "_ctx", "_previous")

    def __init__(self, tracer: Tracer, ctx: TraceContext | None) -> None:
        self._tracer = tracer
        self._ctx = ctx
        self._previous: TraceContext | None = None

    def __enter__(self) -> TraceContext | None:
        self._previous = getattr(self._tracer._local, "context", None)
        self._tracer._local.context = self._ctx
        return self._ctx

    def __exit__(self, *exc_info) -> bool:
        self._tracer._local.context = self._previous
        return False
