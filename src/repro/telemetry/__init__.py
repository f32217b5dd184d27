"""Observability for the repro engine: metrics, tracing, per-query profiles.

One :class:`Telemetry` object bundles the three concerns an engine owns:

- a :class:`~repro.telemetry.metrics.MetricsRegistry` (always on -- the
  engine's counters live here, behind the compatible ``EngineStats``
  properties; exportable as a snapshot dict or Prometheus text),
- a :class:`~repro.telemetry.tracing.Tracer` with an optional rotating
  JSONL :class:`~repro.telemetry.tracing.TraceSink` (on only when asked:
  ``Telemetry(trace_path=...)`` or ``Telemetry(enabled=True)``),
- per-query :class:`~repro.telemetry.profile.QueryProfile` capture
  (``Telemetry(profile=True)``).

Disabled is the default and costs near nothing: ``telemetry.span(...)``
returns a shared no-op span and ``telemetry.active`` is False, so the
engine's hot paths skip every capture branch.

    from repro.telemetry import Telemetry

    tel = Telemetry(trace_path="run.jsonl", profile=True)
    ws = repro.Workspace(graph, telemetry=tel)
    ws.query("a.b*")
    print(tel.registry.render_prometheus())
"""

from __future__ import annotations

import os

import contextlib

from repro.telemetry.export import (
    build_trace_tree,
    read_trace,
    summarize_slow,
    summarize_trace,
    tail_trace,
)
from repro.telemetry.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.profile import QueryProfile, fingerprint_token
from repro.telemetry.tracing import (
    DEFAULT_KEEP,
    DEFAULT_MAX_BYTES,
    NOOP_SPAN,
    Span,
    TraceContext,
    TraceSink,
    Tracer,
)

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "TraceContext",
    "TraceSink",
    "Span",
    "QueryProfile",
    "read_trace",
    "tail_trace",
    "summarize_trace",
    "summarize_slow",
    "build_trace_tree",
    "fingerprint_token",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_KEEP",
    "NOOP_SPAN",
]


class Telemetry:
    """The telemetry bundle one engine (or workspace) owns.

    Parameters
    ----------
    enabled:
        Turn tracing on without a sink (spans land in the in-memory ring
        buffer only).  Implied by ``trace_path``.
    trace_path:
        Write finished spans to this JSONL file (a :class:`TraceSink` with
        its default size-based rotation).
    profile:
        Capture a :class:`QueryProfile` per engine evaluation
        (``engine.take_profile()`` / ``QueryResult.profile``).
    registry:
        Share a prebuilt :class:`MetricsRegistry` (one registry can serve
        several engines); a fresh one is created by default.
    sink:
        Borrow an already-open :class:`TraceSink` instead of opening one
        from ``trace_path`` (implies ``enabled``).  The sink stays owned
        by its creator: :meth:`close` detaches but does not close it.
        The serving daemon uses this to merge every dataset engine's
        spans into one rotating trace file.
    """

    def __init__(
        self,
        *,
        enabled: bool = False,
        trace_path: str | os.PathLike | None = None,
        profile: bool = False,
        registry: MetricsRegistry | None = None,
        sink: TraceSink | None = None,
    ) -> None:
        if sink is not None and trace_path is not None:
            raise ValueError("pass either sink or trace_path, not both")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.profiling = bool(profile)
        self.enabled = bool(enabled) or trace_path is not None or sink is not None
        self._owns_sink = trace_path is not None
        self.sink = TraceSink(trace_path) if trace_path is not None else sink
        self.tracer = Tracer(self.sink) if self.enabled else None

    @property
    def active(self) -> bool:
        """Whether any capture (tracing or profiling) is on."""
        return self.enabled or self.profiling

    def span(self, name: str, **attrs):
        """A span context manager; the shared no-op span when tracing is off."""
        if self.tracer is None:
            return NOOP_SPAN
        return self.tracer.span(name, **attrs)

    def context(self, ctx: TraceContext | None):
        """Attach a :class:`TraceContext` to this thread for the ``with`` body.

        A no-op context manager when tracing is off or ``ctx`` is None, so
        call sites stay uniform: ``with telemetry.context(maybe_ctx): ...``.
        """
        if self.tracer is None or ctx is None:
            return contextlib.nullcontext(ctx)
        return self.tracer.context(ctx)

    def ensure_context(self, *, tenant: str | None = None):
        """Attach a fresh root context unless one is already attached.

        Locally traced runs (``repro query --trace``) get a trace id this
        way, so their records join ``repro trace --id`` like remote ones.
        """
        if self.tracer is None or self.tracer.current_context() is not None:
            return contextlib.nullcontext(self.current_context())
        return self.tracer.context(TraceContext.mint(tenant=tenant))

    def current_context(self) -> TraceContext | None:
        """This thread's attached trace context, or None."""
        return self.tracer.current_context() if self.tracer is not None else None

    def current_ref(self) -> str | None:
        """The ref of this thread's innermost open span, or None."""
        return self.tracer.current_ref() if self.tracer is not None else None

    def events(self) -> list[dict]:
        """The in-memory ring of recent finished span records (oldest first)."""
        return list(self.tracer.events) if self.tracer is not None else []

    def flush(self) -> None:
        """Flush the trace sink (no-op without one)."""
        if self.tracer is not None:
            self.tracer.flush()

    def close(self) -> None:
        """Flush and close the trace sink (the telemetry object stays usable
        for metrics; further traced spans only land in the ring buffer).
        A borrowed sink is detached, not closed -- its owner closes it."""
        if self.sink is not None:
            if self._owns_sink:
                self.sink.close()
            else:
                self.sink.flush()
            if self.tracer is not None:
                self.tracer.sink = None
            self.sink = None

    def __repr__(self) -> str:
        mode = []
        if self.enabled:
            mode.append("tracing")
        if self.profiling:
            mode.append("profiling")
        return f"Telemetry({'+'.join(mode) or 'disabled'}, registry={self.registry!r})"
