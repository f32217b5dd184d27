"""The ``repro serve`` daemon: one catalog of hot snapshots, many clients.

A :class:`QueryService` opens a :class:`~repro.storage.DatasetCatalog`
once, builds one shared :class:`~repro.api.Workspace` (engine + frozen
:class:`~repro.storage.GraphView`) per snapshot, and serves the newline-
delimited JSON protocol of :mod:`repro.service.protocol` over a plain TCP
socket -- one reader thread per connection, which is the right shape for a
synchronous engine (requests block in kernel code, not in an event loop).

Sharing one engine per snapshot is what makes the daemon economical: the
result cache is keyed by ``(operation, plan fingerprint, graph uid,
graph version)``, so a query answered for one tenant is a cache hit for
every other tenant asking the same thing of the same snapshot -- results
are immutable node sets, never tenant data.  What *is* per-tenant
(interactive sessions, in-flight caps) lives in
:mod:`repro.service.session`; single-query traffic is coalesced by the
:mod:`repro.service.batching` micro-batcher.

The request path is one table, one pipeline, one boundary: an op is one
entry of :data:`repro.service.protocol.OPS` (its params and their checks,
whether it is admitted, whether its tenant is charged) and one ``_op_<name>``
method here; :meth:`QueryService.handle` runs every request through the same
steps and is the only place a failure becomes an envelope.

Observability: the server keeps a :class:`~repro.telemetry.MetricsRegistry`
of request/shed/batch/latency instruments, serves its Prometheus text over
``GET /metrics`` when ``metrics_port`` is set, and writes it to
``metrics_path`` on shutdown.

With ``trace_path`` set the daemon participates in distributed traces:
every request opens a ``server.request`` span under the client-supplied
:class:`~repro.telemetry.TraceContext` (or a freshly minted one), every
dataset engine shares the server's rotating trace sink -- that file plus
the client's reconstruct the whole cross-process tree (``repro trace
--id``).  ``slow_log_path`` adds the
slow-query log: any query over ``slow_query_seconds`` is written out with
its profile and plan explanation (``repro slow``).  Per-tenant counters
(queries, errors, sheds, cache hits, kernel work, wall time) aggregate on
labeled series and in the ``stats`` op's ``tenants`` table.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from contextlib import nullcontext

from repro.api.config import InteractiveConfig, LearnerConfig, ServiceConfig
from repro.api.result import QueryResult
from repro.api.workspace import QUERY_SEMANTICS, Workspace
from repro.errors import (
    AlphabetError,
    ConfigError,
    OverloadedError,
    ProtocolError,
    QueryError,
    RegexSyntaxError,
    ReproError,
    SampleError,
    ServiceError,
    StorageError,
)
from repro.learning.sample import BinarySample, Sample
from repro.queries.path_query import (
    PathQuery,
    parse_cache_stats,
    register_parse_cache_metrics,
)
from repro.service import protocol
from repro.service.batching import MicroBatcher
from repro.service.session import AdmissionController, SessionTable
from repro.storage.catalog import BUILTIN_DATASETS, DatasetCatalog
from repro.telemetry import Telemetry
from repro.telemetry.metrics import Counter, MetricsRegistry
from repro.telemetry.tracing import TraceContext, TraceSink

_LOG = logging.getLogger(__name__)

#: Latency buckets for the request histogram (seconds).
_LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)

#: The per-tenant accounting table's columns and their labeled series.
_TENANT_SERIES = {
    "queries": ("service_tenant_queries_total", "requests received per tenant"),
    "errors": ("service_tenant_errors_total", "error envelopes per tenant"),
    "sheds": ("service_tenant_sheds_total", "overload sheds per tenant"),
    "cache_hits": (
        "service_tenant_cache_hits_total",
        "result-cache hits served per tenant",
    ),
    "kernel_units": (
        "service_tenant_kernel_units_total",
        "kernel states expanded on behalf of each tenant",
    ),
    "wall_milliseconds": (
        "service_tenant_wall_milliseconds_total",
        "request wall time per tenant (integer milliseconds)",
    ),
}


def _learn_examples(params: dict, name: str, binary: bool) -> list:
    """``params[name]`` as learner examples, or a ``bad_request``.

    The wire carries a list of nodes (JSON scalars) for the path semantics
    and a list of ``[origin, end]`` pairs of them for the binary one.
    """

    def is_node(value: object) -> bool:
        return not isinstance(value, (list, dict))

    def is_pair(value: object) -> bool:
        return isinstance(value, list) and len(value) == 2 and all(map(is_node, value))

    examples = params.get(name) or []
    if not all(map(is_pair if binary else is_node, examples)):
        expected = "[origin, end] node pairs" if binary else "nodes"
        raise ProtocolError(f"learn needs params.{name} as a list of {expected}, got {examples!r}")
    return [tuple(pair) for pair in examples] if binary else examples


class QueryService:
    """The long-running daemon behind ``repro serve``."""

    def __init__(self, config: ServiceConfig | None = None, *, catalog=None) -> None:
        self.config = config or ServiceConfig()
        self.catalog: DatasetCatalog = (
            catalog if catalog is not None else self.config.catalog()
        )
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter(
            "service_requests_total", help="requests received (any op, any outcome)"
        )
        self._errors = self.registry.counter(
            "service_errors_total", help="requests answered with an error envelope"
        )
        self._latency = self.registry.histogram(
            "service_request_seconds",
            buckets=_LATENCY_BUCKETS,
            help="wall-clock seconds per request, admission to response",
        )
        self.admission = AdmissionController(
            max_concurrent=self.config.max_concurrent,
            per_tenant=self.config.per_tenant,
            registry=self.registry,
        )
        self.sessions = SessionTable(
            max_sessions_per_tenant=self.config.max_sessions_per_tenant,
            registry=self.registry,
        )
        self.batcher = MicroBatcher(
            batch_window=self.config.batch_window,
            batch_max=self.config.batch_max,
            queue_depth=self.config.queue_depth,
            registry=self.registry,
        )
        # Distributed tracing: the server owns the rotating sink; every
        # dataset engine borrows it (Telemetry(sink=...)), so server and
        # engine spans land in one file.
        self.telemetry = Telemetry(
            trace_path=self.config.trace_path, registry=self.registry
        )
        self._slow_log = (
            TraceSink(self.config.slow_log_path)
            if self.config.slow_log_path is not None
            else None
        )
        # tenant -> column -> its labeled counter: the series are the table.
        self._tenants: dict[str, dict[str, Counter]] = {}
        self._datasets: dict[str, Workspace] = {}
        self._datasets_lock = threading.Lock()
        self._ops_lock = threading.Lock()
        self._ops: dict[str, int] = {}
        self._listener: socket.socket | None = None
        self._address: tuple[str, int] | None = None
        self._stop = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._shutdown_done = threading.Event()
        self._threads: list[threading.Thread] = []
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._metrics_server = None
        self._metrics_address: tuple[str, int] | None = None
        self.registry.callback(
            "service_datasets", lambda: float(len(self._datasets)),
            help="snapshots currently open and serving",
        )
        register_parse_cache_metrics(self.registry)

    # -- datasets ------------------------------------------------------------

    def _open_dataset(self, name: str) -> Workspace:
        """Open (and cache) the named catalog snapshot: its frozen view and
        the tenant-shared engine, as one hot :class:`~repro.api.Workspace`."""
        with self._datasets_lock:
            dataset = self._datasets.get(name)
            if dataset is not None:
                return dataset
            if name not in self.catalog and name in BUILTIN_DATASETS:
                self.catalog.ensure(name)
            try:
                view = self.catalog.open_view(name)
            except StorageError as error:
                raise ServiceError(str(error), code="not_found", status=404) from error
            # Each engine needs its own registry (engine counter names
            # collide across datasets) but shares the server's trace sink;
            # the slow-query log needs per-query profiles, so it turns
            # profiling on for every dataset engine.
            engine_telemetry = None
            if self.telemetry.enabled or self._slow_log is not None:
                engine_telemetry = Telemetry(
                    enabled=self.telemetry.enabled,
                    sink=self.telemetry.sink,
                    profile=self._slow_log is not None,
                )
            workspace = Workspace(
                view,
                engine_config=self.config.engine_config(),
                telemetry=engine_telemetry,
                name=name,
            )
            # Two catalog names backed by byte-identical snapshots share one
            # plan/result cache pair, so a plan compiled (or a result cached)
            # for one tenant's dataset pays for every alias of those bytes.
            content_uid = getattr(view, "content_uid", None)
            if self.config.share_caches and content_uid is not None:
                workspace.engine.adopt_shared_caches(content_uid)
            self._datasets[name] = workspace
            return workspace

    def _resolve_dataset(self, params: dict) -> Workspace:
        # Only an absent (or null) name falls back: the op's guard refused
        # every other falsy value.
        name = params.get("snapshot") or self.default_snapshot
        if name is None:
            raise ProtocolError(
                "no snapshot named and the server has no default; pass params.snapshot"
            )
        return self._open_dataset(name)

    @property
    def default_snapshot(self) -> str | None:
        if self.config.default_snapshot is not None:
            return self.config.default_snapshot
        preload = self.config.snapshots
        return preload[0] if preload else None

    def dataset_names(self) -> list[str]:
        with self._datasets_lock:
            return sorted(self._datasets)

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._address is None:
            raise ServiceError("service is not started")
        return self._address

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """The metrics HTTP endpoint's ``(host, port)``, when enabled."""
        return self._metrics_address

    def start(self) -> tuple[str, int]:
        """Preload snapshots, bind the socket, start accepting. Returns the address."""
        names = self.config.snapshots or tuple(self.catalog.names())
        for name in names:
            self._open_dataset(name)
        self.batcher.start()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(128)
        self._listener = listener
        self._address = listener.getsockname()[:2]
        acceptor = threading.Thread(target=self._accept_loop, name="repro-accept", daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        if self.config.metrics_port is not None:
            self._start_metrics_endpoint()
        return self._address

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` (or a remote shutdown op)."""
        self._stop.wait()

    def shutdown(self) -> None:
        """Stop accepting, drain the batcher, close connections (idempotent).

        Safe to call from several threads: the first caller does the work,
        later callers block until teardown (including the metrics-file
        write) has actually completed.
        """
        with self._shutdown_lock:
            first = not self._stop.is_set()
            if first:
                self._stop.set()
        if not first:
            self._shutdown_done.wait(timeout=30.0)
            return
        try:
            self._do_shutdown()
        finally:
            self._shutdown_done.set()

    def _do_shutdown(self) -> None:
        if self._listener is not None:
            # close() alone leaves the acceptor blocked in accept() on Linux
            # (its join below would time out); shutdown() wakes it first.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:  # not every platform lets a listener shut down
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - already closed
                pass
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self.batcher.stop()
        if self._metrics_server is not None:
            self._metrics_server.shutdown()
            self._metrics_server.server_close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self.telemetry.close()
        if self._slow_log is not None:
            self._slow_log.close()
        if self.config.metrics_path is not None:
            from pathlib import Path

            Path(self.config.metrics_path).write_text(self.metrics_text(), encoding="utf-8")

    def __enter__(self) -> "QueryService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- the socket front-end ------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                connection, _peer = self._listener.accept()
            except OSError:  # listener closed by shutdown
                return
            with self._connections_lock:
                self._connections.add(connection)
            handler = threading.Thread(
                target=self._connection_loop, args=(connection,), daemon=True
            )
            handler.start()

    def _connection_loop(self, connection: socket.socket) -> None:
        reader = connection.makefile("rb")
        try:
            while not self._stop.is_set():
                try:
                    payload = protocol.read_frame(
                        reader, max_bytes=self.config.max_frame_bytes
                    )
                except ProtocolError as refused:
                    # The stream is still framed (read_frame drained the
                    # line): handle() answers the refusal like any failing
                    # request, and the connection goes on.
                    payload = refused
                if payload is None:
                    return
                self._send(connection, self.handle(payload))
        except OSError:
            return  # peer went away (or shutdown closed the socket)
        finally:
            reader.close()
            with self._connections_lock:
                self._connections.discard(connection)
            try:
                connection.close()
            except OSError:
                pass

    def _send(self, connection: socket.socket, response: dict) -> None:
        try:
            frame = protocol.encode_frame(
                response, max_bytes=self.config.max_frame_bytes
            )
        except ProtocolError as error:  # response itself oversized
            frame = protocol.encode_frame(
                protocol.error_response(response.get("id"), error, op=response.get("op"))
            )
        connection.sendall(frame)

    # -- request handling ----------------------------------------------------

    def handle(self, payload: dict | ProtocolError) -> dict:
        """Execute one request payload and return its response envelope.

        This is the whole server minus the socket, which is what the tests
        and the in-process client paths use directly.  It is total: every
        payload -- any JSON value, or the error that refused a frame on its
        way in, which is what the socket loop passes for one -- gets an
        envelope, through one pipeline: parse, trace context, span, admit,
        guard, handler, account, envelope.
        """
        self._requests.inc()
        started = time.perf_counter()
        request = trace = error = None
        try:
            if isinstance(payload, ProtocolError):
                raise payload
            request = protocol.parse_request(payload)
            with self._ops_lock:
                self._ops[request.op] = self._ops.get(request.op, 0) + 1
            ctx = self._trace_context(request)
            trace = ctx.to_dict() if ctx is not None else request.trace
            result, extra = self._run(request, ctx)
        except Exception as failure:
            # The boundary a connection must outlive: library and I/O errors map
            # to their structured codes, anything else is a bug -- logged with
            # its traceback and answered as internal/500, never a dropped socket.
            if not isinstance(failure, (ReproError, OSError)):
                _LOG.exception("unexpected error in op %r", request and request.op)
            error = self._map_error(failure)
            self._errors.inc()
        # Both outcomes leave through here, touching only validated fields.
        elapsed = time.perf_counter() - started
        self._latency.observe(elapsed)
        if request is not None and protocol.OPS[request.op].accounted:
            self._tenant_account(
                request.tenant,
                queries=1,
                errors=int(error is not None),
                sheds=int(isinstance(error, OverloadedError)),
                wall_milliseconds=int(elapsed * 1000),
            )
        if error is not None:
            request_id, op = protocol.echo_of(payload)
            return protocol.error_response(request_id, error, op=op, trace=trace)
        if trace is not None:
            extra = {**extra, "trace": trace}
        return protocol.ok_response(request, result, elapsed=elapsed, **extra)

    def _trace_context(self, request: protocol.Request) -> TraceContext | None:
        """The request's trace context (wire-supplied or server-minted).

        None when tracing is off -- untraced serving carries no context
        anywhere.  A request that arrives without one, on a tracing
        server, gets a root context so purely server-side spans are still
        joinable by trace id; a wire context that names no tenant is stamped
        with the request's.
        """
        if self.telemetry.tracer is None:
            return None
        if request.trace is None:
            return TraceContext.mint(tenant=request.tenant)
        return TraceContext(**{"tenant": request.tenant, **request.trace})

    def _run(
        self, request: protocol.Request, ctx: TraceContext | None
    ) -> tuple[dict, dict]:
        """Admit, guard and dispatch one parsed request as ``protocol.OPS`` declares it.

        The ``server.request`` span (a no-op when tracing is off) carries
        the wire request ``id`` (so wire ids and trace ids join in the trace
        file) and parents every downstream span: an op declared ``traced``
        receives a child context re-parented onto it, which it attaches
        around engine work and ships to the batcher.
        """
        op = protocol.OPS[request.op]
        telemetry = self.telemetry
        with telemetry.context(ctx), telemetry.span(
            "server.request", op=request.op, tenant=request.tenant, request=request.id
        ) as span:
            child = ctx.child(telemetry.tracer.span_ref(span)) if ctx is not None else None
            # An op declared exempt (the health check) is never shed.
            with self.admission.admit(request.tenant) if op.admitted else nullcontext():
                protocol.check_params(request)
                handler = getattr(self, "_op_" + request.op.replace(".", "_"))
                return handler(request, child) if op.traced else handler(request)

    def _tenant_account(self, tenant: str, **deltas: int) -> None:
        """Add counter deltas to a (validated) tenant's row of the table."""
        row = self._tenants.setdefault(tenant, {})
        for column, amount in deltas.items():
            if not amount:
                continue  # a series appears with its first count
            counter = row.get(column)
            if counter is None:  # racing creators get one counter from the registry
                name, text = _TENANT_SERIES[column]
                counter = row[column] = self.registry.counter(
                    name, help=text, labels={"tenant": tenant}
                )
            counter.inc(amount)

    def tenant_stats(self) -> dict[str, dict[str, int]]:
        """The per-tenant accounting table (sorted copy)."""
        return {
            tenant: {
                column: row[column].value if column in row else 0 for column in _TENANT_SERIES
            }
            for tenant, row in sorted(self._tenants.items())
        }

    @staticmethod
    def _map_error(error: Exception) -> Exception:
        if isinstance(error, ServiceError):
            return error
        if isinstance(
            error,
            (ConfigError, ProtocolError, RegexSyntaxError, QueryError, SampleError, AlphabetError),
        ):
            return ProtocolError(str(error))
        if isinstance(error, StorageError):
            return ServiceError(str(error), code="not_found", status=404)
        return ServiceError(str(error), code="internal", status=500)

    # -- ops -----------------------------------------------------------------

    def _op_ping(self, request: protocol.Request) -> tuple[dict, dict]:
        return {"type": "Pong", "ok": True}, {}

    def _op_query(
        self, request: protocol.Request, trace: TraceContext | None
    ) -> tuple[dict, dict]:
        expr = request.params["expr"]
        dataset = self._resolve_dataset(request.params)
        started = time.perf_counter()
        # Best-effort per-tenant work attribution: deltas of the shared
        # engine's counters around this call.  Concurrent queries on the
        # same dataset can bleed into each other's deltas; totals across
        # tenants stay exact, which is what capacity accounting needs.
        before = dataset.engine.stats_snapshot()
        if request.params.get("semantics") == "binary":
            # Pair selection has no batch kernel; answer it directly (the
            # shared result cache still applies).
            with dataset.telemetry.context(trace):
                result = dataset.query(expr, semantics="binary")
            profile = result.profile
        else:
            query = PathQuery.parse(expr, dataset.graph.alphabet)
            answer = self.batcher.submit(
                dataset, query, timeout=self.config.request_timeout, trace=trace
            )
            result = QueryResult(
                query=query,
                semantics="path",
                selected=answer,
                elapsed=time.perf_counter() - started,
            )
            profile = dataset.engine.take_profile()
        self._account_query(request, dataset, before)
        self._maybe_log_slow(request, dataset, result, profile, trace)
        return result.to_dict(), {"snapshot": dataset.name}

    def _account_query(
        self, request: protocol.Request, dataset: Workspace, before: dict
    ) -> None:
        """Charge the engine-counter deltas of one query to its tenant."""
        after = dataset.engine.stats_snapshot()

        def delta(key: str) -> int:
            return max(0, int(after.get(key, 0)) - int(before.get(key, 0)))

        self._tenant_account(
            request.tenant,
            cache_hits=delta("result_cache_hits"),
            kernel_units=delta("states_expanded"),
        )

    def _maybe_log_slow(
        self,
        request: protocol.Request,
        dataset: Workspace,
        result: QueryResult,
        profile: dict | None,
        trace: TraceContext | None,
    ) -> None:
        """Append one slow-query record when the threshold is exceeded.

        The record bundles everything the debugging loop needs: identity
        (timestamp, tenant, wire id, trace id), the query, its latency,
        the captured :class:`~repro.telemetry.QueryProfile`, and the
        planner's explanation (computed here, only for slow queries --
        ``explain`` never runs a kernel, so it is cheap relative to the
        query that just blew the threshold).
        """
        if self._slow_log is None or result.elapsed < self.config.slow_query_seconds:
            return
        expr = request.params["expr"]
        record = {
            "ts": time.time(),
            "tenant": request.tenant,
            "request": request.id,
            "snapshot": dataset.name,
            "expr": expr,
            "semantics": result.semantics,
            "elapsed": round(result.elapsed, 9),
            "threshold": self.config.slow_query_seconds,
            "trace": trace.trace_id if trace is not None else None,
        }
        if profile is not None:
            record["profile"] = profile
        try:
            record["explain"] = dataset.explain(expr, semantics=result.semantics).to_dict()
        except ReproError:  # the query itself succeeded; keep the record
            record["explain"] = None
        self._slow_log.write(record)

    def _op_learn(
        self, request: protocol.Request, trace: TraceContext | None
    ) -> tuple[dict, dict]:
        params = request.params
        dataset = self._resolve_dataset(params)
        config = LearnerConfig.from_dict(params.get("config") or {})
        if config.semantics not in QUERY_SEMANTICS:
            raise ProtocolError(
                f"the service supports 'path' and 'binary' learning, got {config.semantics!r}"
            )
        binary = config.semantics == "binary"
        positives = _learn_examples(params, "positives", binary)
        negatives = _learn_examples(params, "negatives", binary)
        sample: Sample | BinarySample = (BinarySample if binary else Sample)(positives, negatives)
        with dataset.telemetry.context(trace):
            result = dataset.learn(sample, config)
        return result.to_dict(), {"snapshot": dataset.name}

    def _op_interactive(
        self, request: protocol.Request, trace: TraceContext | None
    ) -> tuple[dict, dict]:
        params = request.params
        dataset = self._resolve_dataset(params)
        goal, name = params["goal"], params.get("session")
        config = InteractiveConfig.from_dict(params.get("config") or {})
        extra: dict = {"snapshot": dataset.name}
        if name is None:
            with dataset.telemetry.context(trace):
                result = dataset.interactive_session(goal, config).run()
            return result.to_dict(), extra
        # Resume-run-checkpoint is read-modify-write on the stored session:
        # serialize it per (tenant, session) so concurrent calls of the
        # same tenant chain instead of losing each other's interactions.
        with self.sessions.lock_for(request.tenant, name):
            checkpoint = self.sessions.get(request.tenant, name)
            session = dataset.interactive_session(goal, config, resume_from=checkpoint)
            with dataset.telemetry.context(trace):
                result = session.run()
            self.sessions.put(request.tenant, name, session.checkpoint().to_dict())
        extra["session"] = {
            "name": name,
            "resumed": checkpoint is not None,
            "interactions": len(session.interactions),
        }
        return result.to_dict(), extra

    def _op_session_release(self, request: protocol.Request) -> tuple[dict, dict]:
        released = self.sessions.release(request.tenant, request.params["session"])
        return {"type": "SessionRelease", "ok": True, "released": released}, {}

    def server_stats(self) -> dict:
        """The server-level counters (requests, errors, ops, admission)."""
        with self._ops_lock:
            ops = dict(self._ops)
        return {
            "requests": self._requests.value,
            "errors": self._errors.value,
            "ops": ops,
            "admission": self.admission.snapshot(),
            "batch_depth": self.batcher.depth,
            "sessions_total": self.sessions.total(),
            "parse_cache": parse_cache_stats(),
            "tenants": self.tenant_stats(),
        }

    def _op_stats(self, request: protocol.Request) -> tuple[dict, dict]:
        with self._datasets_lock:
            hot = list(self._datasets.values())
        return {
            "type": "ServiceStats",
            "ok": True,
            "server": self.server_stats(),
            "datasets": {dataset.name: dataset.stats() for dataset in hot},
            # Only the *requesting* tenant's sessions: names are tenant data.
            "tenant_sessions": self.sessions.names(request.tenant),
        }, {}

    def _op_metrics(self, request: protocol.Request) -> tuple[dict, dict]:
        return {"type": "MetricsReport", "ok": True, "text": self.metrics_text()}, {}

    def _op_catalog(self, request: protocol.Request) -> tuple[dict, dict]:
        return {
            "type": "CatalogInfo",
            "ok": True,
            "catalog": {
                "root": str(self.catalog.root),
                "snapshots": self.catalog.entries(),
                "hot": self.dataset_names(),
                "default": self.default_snapshot,
            },
        }, {}

    def _op_shutdown(self, request: protocol.Request) -> tuple[dict, dict]:
        if not self.config.allow_remote_shutdown:
            raise ServiceError(
                "remote shutdown is disabled (start with allow_remote_shutdown)",
                code="forbidden",
                status=403,
            )
        # Respond first, stop after: the shutdown closes this very socket.
        threading.Thread(target=self._deferred_shutdown, daemon=True).start()
        return {"type": "Shutdown", "ok": True}, {}

    def _deferred_shutdown(self) -> None:
        time.sleep(0.05)  # let the shutdown response flush to its client
        self.shutdown()

    # -- observability -------------------------------------------------------

    def metrics_text(self) -> str:
        """The server registry plus engine aggregates as Prometheus text.

        Engine registries are per snapshot and share instrument names, so
        they cannot be concatenated verbatim; instead the engine counters
        are summed across hot datasets into ``service_engine_*`` series.
        """
        lines = [self.registry.render_prometheus().rstrip("\n")]
        with self._datasets_lock:
            hot = list(self._datasets.values())
        totals: dict[str, int] = {}
        for dataset in hot:
            for key, value in dataset.stats().items():
                # Only the integer counters aggregate meaningfully; derived
                # ratios (hit rates) and the backend name do not sum across
                # engines.
                if isinstance(value, int) and not isinstance(value, bool):
                    totals[key] = totals.get(key, 0) + value
        for key in sorted(totals):
            name = f"service_engine_{key}"
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {totals[key]}")
        return "\n".join(lines) + "\n"

    def _start_metrics_endpoint(self) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        service = self

        class MetricsHandler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404)
                    return
                body = service.metrics_text().encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "text/plain; version=0.0.4")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # keep the daemon's stdout clean
                pass

        server = ThreadingHTTPServer(
            (self.config.host, self.config.metrics_port), MetricsHandler
        )
        self._metrics_server = server
        self._metrics_address = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, name="repro-metrics", daemon=True)
        thread.start()
        self._threads.append(thread)
