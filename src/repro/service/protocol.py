"""The query service's wire protocol: newline-delimited JSON frames.

One frame is one JSON document terminated by ``\\n`` -- trivially parseable
from any language, stream-framed without length prefixes, and directly
reusing the library's JSON envelopes.  Requests look like::

    {"id": 7, "op": "query", "tenant": "acme", "params": {"expr": "a.b*"}}

and responses mirror the CLI envelope, carrying the uniform
:class:`~repro.api.result.Result` ``to_dict`` payload under ``result`` (so
:func:`~repro.api.result.result_from_dict` rebuilds the typed object
client-side via the type-tag dispatch)::

    {"id": 7, "ok": true, "op": "query", "elapsed": 0.004, "result": {...}}
    {"id": 7, "ok": false, "op": "query",
     "error": {"type": "OverloadedError", "code": "overloaded",
               "status": 429, "message": "..."}}

``status`` is the HTTP-flavoured numeric code clients key backoff and retry
policies on (429 = shed, retry later; 4xx = don't retry; 5xx = server
fault).  Frames larger than the negotiated ``max_frame_bytes`` are rejected
with a 413-style ``too_large`` error *without* desynchronizing the stream:
:func:`read_frame` drains the oversized line to the next newline so the
connection keeps working.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.api.config import NAME, TEXT, Check, one_of, optional
from repro.api.workspace import QUERY_SEMANTICS
from repro.errors import OverloadedError, ProtocolError, ServiceError

#: Default per-frame size cap (requests and responses alike).
MAX_FRAME_BYTES = 4 * 1024 * 1024


class Op(NamedTuple):
    """One operation's declaration -- everything the server knows about it.

    ``params`` are the names the op reads, each with the check its value
    must pass (an absent param is checked as ``None``); a name not declared
    here is refused.  ``accounted`` ops are charged to the tenant's row of
    the accounting table: the work ops are, health checks and the
    observability ops are free -- charging a tenant for *reading* its bill
    would make the table drift under monitoring traffic.  ``admitted`` ops
    hold an admission slot while they run; a health check is never shed.
    ``traced`` ops run engine work and take the request's trace context as
    their handler's second argument; the others take the request alone.
    """

    params: dict[str, Check] = {}
    accounted: bool = False
    admitted: bool = True
    traced: bool = False


_SNAPSHOT = optional(NAME, "a name string")
_CONFIG = optional(Check(lambda v: isinstance(v, dict), "an object"))
_EXAMPLES = optional(Check(lambda v: isinstance(v, list), "a list"))

#: The operations a server understands: the one inventory.  The server finds
#: the handler by name (``QueryService._op_<name>``), ``ServiceClient`` has
#: one method per entry.
OPS: dict[str, Op] = {
    "ping": Op(admitted=False),
    "query": Op(
        {"expr": NAME, "semantics": optional(one_of(QUERY_SEMANTICS)), "snapshot": _SNAPSHOT},
        accounted=True,
        traced=True,
    ),
    "learn": Op(
        {"positives": _EXAMPLES, "negatives": _EXAMPLES, "config": _CONFIG, "snapshot": _SNAPSHOT},
        accounted=True,
        traced=True,
    ),
    "interactive": Op(
        {"goal": NAME, "session": optional(NAME), "config": _CONFIG, "snapshot": _SNAPSHOT},
        accounted=True,
        traced=True,
    ),
    "session.release": Op({"session": NAME}, accounted=True),
    "stats": Op(),
    "metrics": Op(),
    "catalog": Op(),
    "shutdown": Op(),
}

#: Default tenant for clients that do not name one.
DEFAULT_TENANT = "default"

#: A tenant names a row of the accounting table and a Prometheus label value,
#: so it is held to what both can carry.
TENANT = Check(
    lambda v: isinstance(v, str)
    and 0 < len(v) <= 128
    and v.isprintable()
    and not any(ch in v for ch in '"\\'),
    "a printable string of 1 to 128 characters without '\"' or '\\'",
)

#: The fields of a wire trace context; nothing else travels on or is echoed.
_TRACE = {"trace_id": NAME, "parent_span": optional(TEXT), "tenant": optional(TENANT)}


@dataclass(frozen=True)
class Request:
    """One validated request frame.

    ``trace`` is the optional distributed-tracing context in wire form
    (``{"trace_id": ..., "parent_span": ..., "tenant": ...}`` -- see
    :class:`~repro.telemetry.tracing.TraceContext`).  It is kept as the
    validated plain dict here so the protocol layer stays free of
    telemetry imports; the server promotes it to a ``TraceContext``.
    """

    id: int | str | None
    op: str
    tenant: str = DEFAULT_TENANT
    params: dict = field(default_factory=dict)
    trace: dict | None = None


def encode_frame(payload: dict, *, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one payload as a newline-terminated JSON frame."""
    frame = json.dumps(payload, separators=(",", ":"), sort_keys=False).encode("utf-8") + b"\n"
    if len(frame) > max_bytes:
        raise ProtocolError(
            f"frame of {len(frame)} bytes exceeds the {max_bytes}-byte limit",
            code="too_large",
            status=413,
        )
    return frame


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


# Strict JSON: ``NaN`` and ``+-Infinity`` would be echoed as what no JSON
# parser on the other side accepts.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def decode_frame(line: bytes) -> dict:
    """Parse one received line into its payload dict."""
    try:
        payload = _DECODER.decode(line.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # ValueError: bad JSON, bad UTF-8, an integer past the digit limit;
        # RecursionError: nesting deeper than the interpreter's stack.
        raise ProtocolError(f"frame is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def read_frame(stream, *, max_bytes: int = MAX_FRAME_BYTES) -> dict | None:
    """Read the next frame from a buffered binary stream.

    Returns None on a clean EOF.  An oversized line is drained up to its
    terminating newline (keeping the stream framed) and then rejected with
    a 413-style :class:`~repro.errors.ProtocolError`.
    """
    line = stream.readline(max_bytes + 1)
    if not line:
        return None
    if len(line) > max_bytes:
        drained = line.endswith(b"\n")
        while not drained:
            chunk = stream.readline(max_bytes + 1)
            drained = not chunk or chunk.endswith(b"\n")
        raise ProtocolError(
            f"frame exceeds the {max_bytes}-byte limit", code="too_large", status=413
        )
    return decode_frame(line)


def parse_request(payload: dict) -> Request:
    """Validate a request frame into a :class:`Request`.

    The frame's own fields are checked here; the op's ``params`` are checked
    against its declaration by :func:`check_params`, once the request can be
    attributed to its tenant and trace.
    """
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(payload).__name__}")
    op = payload.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {sorted(OPS)}")
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, (int, str)):
        raise ProtocolError(f"request id must be an int or string, got {request_id!r}")
    tenant = payload.get("tenant", DEFAULT_TENANT)
    if not TENANT.accepts(tenant):
        raise ProtocolError(f"tenant must be {TENANT.expected}, got {tenant!r}")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(f"params must be an object, got {type(params).__name__}")
    trace = payload.get("trace")
    if trace is not None:
        if not isinstance(trace, dict):
            raise ProtocolError(f"trace must be an object, got {type(trace).__name__}")
        for name, check in _TRACE.items():
            if not check.accepts(trace.get(name)):
                raise ProtocolError(
                    f"trace.{name} must be {check.expected}, got {trace.get(name)!r}"
                )
        trace = {name: trace[name] for name in _TRACE if trace.get(name) is not None}
    return Request(id=request_id, op=op, tenant=tenant, params=params, trace=trace)


def check_params(request: Request) -> None:
    """The op's guard: only declared params, each passing its declared check."""
    declared = OPS[request.op].params
    for name in request.params:
        if name not in declared:
            raise ProtocolError(
                f"{request.op} takes no params.{name}; it reads {sorted(declared)}"
            )
    for name, check in declared.items():
        value = request.params.get(name)
        if not check.accepts(value):
            raise ProtocolError(
                f"{request.op} needs params.{name}: {name} must be {check.expected}, "
                f"got {value!r}"
            )


def echo_of(payload: object) -> tuple[int | str | None, str | None]:
    """The ``id`` and ``op`` of a refused frame, as far as they can be echoed."""
    frame = payload if isinstance(payload, dict) else {}
    request_id, op = frame.get("id"), frame.get("op")
    return (
        request_id if isinstance(request_id, (int, str)) else None,
        op if isinstance(op, str) else None,
    )


def ok_response(request: Request, result: dict, *, elapsed: float, **extra) -> dict:
    """A success envelope (``result`` is a ``Result.to_dict()``-style dict).

    When the request carried a ``trace`` context, the envelope echoes it
    back (possibly enriched by the server), so the client can log the
    trace id next to its own span without a side channel.
    """
    envelope = {"id": request.id, "ok": True, "op": request.op, "elapsed": elapsed}
    if request.trace is not None:
        envelope["trace"] = request.trace
    envelope.update(extra)
    envelope["result"] = result
    return envelope


def error_response(
    request_id: int | str | None,
    error: Exception,
    *,
    op: str | None = None,
    trace: dict | None = None,
) -> dict:
    """A structured error envelope for any exception.

    ``trace`` echoes the request's trace context when known, so failed
    requests stay joinable to their distributed trace too.
    """
    if isinstance(error, ServiceError):
        code, status = error.code, error.status
    else:
        code, status = "internal", 500
    envelope = {
        "id": request_id,
        "ok": False,
        "op": op,
        "error": {
            "type": type(error).__name__,
            "code": code,
            "status": status,
            "message": str(error),
        },
    }
    if trace is not None:
        envelope["trace"] = trace
    return envelope


def raise_for_error(envelope: dict) -> dict:
    """Client side: re-raise a failed envelope as a typed exception.

    Returns the envelope unchanged when ``ok`` is true.  The raised
    exception carries the server's ``code``/``status``, so retry policies
    written against local exceptions work unchanged against remote ones.
    """
    if envelope.get("ok"):
        return envelope
    detail = envelope.get("error") or {}
    code = detail.get("code", "internal")
    status = detail.get("status", 500)
    message = detail.get("message", "request failed")
    if code == "overloaded":
        raise OverloadedError(message)
    if int(status) // 100 == 4:
        raise ProtocolError(message, code=code, status=status)
    raise ServiceError(message, code=code, status=status)
