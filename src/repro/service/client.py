"""The in-process counterpart of the daemon: :class:`ServiceClient`.

Speaks the newline-delimited JSON protocol over one TCP connection and
rebuilds every ``result`` payload through
:func:`~repro.api.result.result_from_dict`, so remote calls return the
*same typed objects* the local :class:`~repro.api.Workspace` would --
``client.query("a.b*")`` is a :class:`~repro.api.QueryResult`, a failed
request raises the same :class:`~repro.errors.ServiceError` hierarchy
(:class:`~repro.errors.OverloadedError` for a shed, carrying the server's
``code``/``status``).  The client is thread-safe: a lock serializes
request/response pairs on the shared socket.

With a :class:`~repro.telemetry.Telemetry` attached
(``ServiceClient(host, port, telemetry=tel)``), every request mints a
:class:`~repro.telemetry.TraceContext`, opens a ``client.request`` span,
and ships the context on the wire's ``trace`` field -- the server parents
its spans onto it, so the client's trace file plus
the server's reconstruct the whole distributed tree (``repro trace --id``).
"""

from __future__ import annotations

import socket
import threading

from repro.api.result import Result, result_from_dict
from repro.errors import ServiceError
from repro.service import protocol


class ServiceClient:
    """One connection to a running :class:`~repro.service.QueryService`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = protocol.DEFAULT_TENANT,
        timeout: float | None = 60.0,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        telemetry=None,
    ) -> None:
        self.tenant = tenant
        self.max_frame_bytes = max_frame_bytes
        self.telemetry = telemetry
        try:
            self._socket = socket.create_connection((host, port), timeout=timeout)
        except OSError as error:
            raise ServiceError(
                f"cannot connect to {host}:{port}: {error}", code="unavailable", status=503
            ) from error
        self._reader = self._socket.makefile("rb")
        self._lock = threading.Lock()
        self._next_id = 0

    # -- plumbing ------------------------------------------------------------

    def request(self, op: str, params: dict | None = None) -> dict:
        """Send one request and return its (successful) response envelope.

        Raises the typed :class:`~repro.errors.ServiceError` hierarchy on
        error envelopes and on transport failures.
        """
        tracer = self.telemetry.tracer if self.telemetry is not None else None
        if tracer is None:
            envelope = self._exchange(op, params, trace=None)
            return protocol.raise_for_error(envelope)
        from repro.telemetry.tracing import TraceContext

        ctx = TraceContext.mint(tenant=self.tenant)
        with tracer.context(ctx):
            with tracer.span("client.request", op=op, tenant=self.tenant) as span:
                wire = ctx.child(tracer.span_ref(span)).to_dict()
                envelope = self._exchange(op, params, trace=wire)
                span.set(id=envelope.get("id"), trace=ctx.trace_id)
                return protocol.raise_for_error(envelope)

    def _exchange(self, op: str, params: dict | None, *, trace: dict | None) -> dict:
        """One locked send/receive round trip on the shared socket."""
        with self._lock:
            self._next_id += 1
            payload = {
                "id": self._next_id,
                "op": op,
                "tenant": self.tenant,
                "params": params or {},
            }
            if trace is not None:
                payload["trace"] = trace
            frame = protocol.encode_frame(payload, max_bytes=self.max_frame_bytes)
            try:
                self._socket.sendall(frame)
                envelope = protocol.read_frame(
                    self._reader, max_bytes=self.max_frame_bytes
                )
            except OSError as error:
                raise ServiceError(
                    f"connection to the service lost: {error}",
                    code="unavailable",
                    status=503,
                ) from error
        if envelope is None:
            raise ServiceError(
                "server closed the connection", code="unavailable", status=503
            )
        return envelope

    def close(self) -> None:
        try:
            self._reader.close()
        except OSError:  # pragma: no cover - already closed
            pass
        try:
            self._socket.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- typed operations ----------------------------------------------------

    def ping(self) -> bool:
        """True iff the server answers the health check."""
        return bool(self.request("ping")["result"].get("ok"))

    def query(
        self, expr: str, *, snapshot: str | None = None, semantics: str = "path"
    ) -> Result:
        """Evaluate a path query remotely; returns a typed ``QueryResult``."""
        params: dict = {"expr": expr, "semantics": semantics}
        if snapshot is not None:
            params["snapshot"] = snapshot
        return result_from_dict(self.request("query", params)["result"])

    def learn(
        self,
        positives,
        negatives=(),
        *,
        snapshot: str | None = None,
        config=None,
    ) -> Result:
        """Learn a query from labeled examples remotely (typed result).

        ``config`` is a :class:`~repro.api.LearnerConfig` or its ``to_dict``
        payload; binary semantics take ``(origin, end)`` pairs as examples.
        """
        params: dict = {
            "positives": [list(p) if isinstance(p, (tuple, list)) else p for p in positives],
            "negatives": [list(n) if isinstance(n, (tuple, list)) else n for n in negatives],
        }
        if snapshot is not None:
            params["snapshot"] = snapshot
        if config is not None:
            params["config"] = config if isinstance(config, dict) else config.to_dict()
        return result_from_dict(self.request("learn", params)["result"])

    def interactive(
        self,
        goal: str,
        *,
        session: str | None = None,
        snapshot: str | None = None,
        config=None,
    ) -> tuple[Result, dict]:
        """Run (or resume) an interactive session remotely.

        Returns ``(InteractiveResult, session_info)``; with a ``session``
        name the server checkpoints the session in the caller's tenant
        table, so a later call with the same name resumes it.
        """
        params: dict = {"goal": goal}
        if session is not None:
            params["session"] = session
        if snapshot is not None:
            params["snapshot"] = snapshot
        if config is not None:
            params["config"] = config if isinstance(config, dict) else config.to_dict()
        envelope = self.request("interactive", params)
        return result_from_dict(envelope["result"]), envelope.get("session", {})

    def release_session(self, session: str) -> bool:
        """Drop a checkpointed session; False if this tenant had none."""
        return bool(
            self.request("session.release", {"session": session})["result"]["released"]
        )

    def stats(self) -> dict:
        """Server counters, per-snapshot engine stats, own session names."""
        return self.request("stats")["result"]

    def metrics_text(self) -> str:
        """The server's metrics in the Prometheus text format."""
        return self.request("metrics")["result"]["text"]

    def catalog(self) -> dict:
        """The server's catalog: registered, hot and default snapshots."""
        return self.request("catalog")["result"]["catalog"]

    def shutdown(self) -> bool:
        """Ask the server to stop (needs ``allow_remote_shutdown``)."""
        return bool(self.request("shutdown")["result"].get("ok"))


def parse_address(text: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` string (the CLI's ``--remote`` value)."""
    host, separator, port = text.rpartition(":")
    if not separator or not host or not port.isdigit():
        raise ServiceError(
            f"--remote must look like HOST:PORT, got {text!r}",
            code="bad_request",
            status=400,
        )
    return host, int(port)
