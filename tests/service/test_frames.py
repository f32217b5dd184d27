"""Every frame gets one envelope; every op is one declaration.

The request path's contract, checked from outside: whatever bytes arrive on
a connection -- fuzzed JSON frames, wrong types in every field, nesting past
the interpreter's stack, integers past the digit limit, the three constants
that are not JSON -- are answered by exactly one reply line of strict JSON,
and the connection answers the next ``ping``.  In process the same frames
never make ``QueryService.handle`` raise.  Beside it: the op table
(``protocol.OPS``) is the only inventory, an undeclared param is refused by
name, a tenant is held to what a metrics label can carry, and the envelopes
of well-formed requests are the ones recorded on this PR's parent.
"""

from __future__ import annotations

import inspect
import json
import socket
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.service
from repro.api.config import ServiceConfig
from repro.service import QueryService, ServiceClient, protocol
from repro.storage.catalog import DatasetCatalog

GOAL = "(tram+bus)*.cinema"


def strict_loads(line: bytes):
    """``json.loads`` that refuses what only Python's parser accepts."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(line, parse_constant=refuse)


@pytest.fixture(scope="module")
def catalog_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("frames-catalog")
    DatasetCatalog(root).ensure("geo")
    return str(root)


def make_service(catalog_root: str, **overrides) -> QueryService:
    defaults = dict(catalog_root=catalog_root, snapshots=("geo",), default_snapshot="geo")
    return QueryService(ServiceConfig(**{**defaults, **overrides}))


@pytest.fixture(scope="module")
def service(catalog_root):
    with make_service(catalog_root, batch_window=0.0) as running:
        yield running


def exchange(service: QueryService, line: bytes) -> dict:
    """Send one raw line on a fresh connection; its one reply, then a ping's."""
    host, port = service.address
    with socket.create_connection((host, port), timeout=30) as raw:
        reader = raw.makefile("rb")
        raw.sendall(line + b"\n")
        answer = strict_loads(reader.readline())
        raw.sendall(b'{"id": "next", "op": "ping"}\n')
        pong = strict_loads(reader.readline())
        assert pong["ok"] is True and pong["id"] == "next", pong
    assert isinstance(answer, dict) and isinstance(answer["ok"], bool), answer
    return answer


def assert_refused(answer: dict, code: str = "bad_request", status: int = 400) -> str:
    assert answer["ok"] is False, answer
    assert (answer["error"]["code"], answer["error"]["status"]) == (code, status), answer
    return answer["error"]["message"]


# -- the fuzzed frames ---------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)

NASTY_TENANTS = ['a"b', "a\\b", "a\nb", "t\ud800", "", "x" * 129, "ok tenant", "acme"]
DECLARED = ["config", "expr", "goal", "negatives", "positives", "semantics", "session", "snapshot"]
param_values = json_values | st.sampled_from(["tram", GOAL, "geo", "binary", "s1", ["N2"]])
frames = st.fixed_dictionaries(
    {},
    optional={
        "op": st.sampled_from(sorted(protocol.OPS)) | json_values,
        "id": json_values,
        "tenant": st.sampled_from(NASTY_TENANTS) | json_values,
        "params": st.dictionaries(st.sampled_from(DECLARED) | st.text(max_size=6), param_values)
        | json_values,
        "trace": st.fixed_dictionaries(
            {}, optional={"trace_id": json_values, "parent_span": json_values,
                          "tenant": st.sampled_from(NASTY_TENANTS) | json_values,
                          "more": json_values},
        )
        | json_values,
    },
)
raw_lines = st.binary(max_size=48).map(lambda data: data.replace(b"\n", b" "))
FUZZ = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@FUZZ
@given(line=frames.map(lambda frame: json.dumps(frame).encode()) | raw_lines)
def test_every_frame_gets_one_strict_json_reply_and_the_connection_lives(service, line):
    exchange(service, line)


@FUZZ
@given(payload=frames | json_values)
def test_handle_is_total(service, payload):
    answer = service.handle(payload)
    # What handle() returns is what the socket loop can always send.
    strict_loads(json.dumps(answer, allow_nan=False).encode())


# -- the byte-level cases that used to kill the connection thread ---------------

UNDECODABLE = {
    "deep-array": b"[" * 200_000,
    "deep-object": b'{"a":' * 100_000 + b"1" + b"}" * 100_000,
    "huge-int-id": b'{"op": "ping", "id": ' + b"7" * 5000 + b"}",
    "nan-id": b'{"op": "ping", "id": NaN}',
    "infinity-param": b'{"op": "query", "params": {"expr": -Infinity}}',
    "bad-utf8": b'{"op": "ping", "id": "\xff\xfe"}',
    "empty-line": b"",
}


@pytest.mark.parametrize("line", UNDECODABLE.values(), ids=UNDECODABLE.keys())
def test_an_undecodable_frame_is_a_400_envelope(service, line):
    errors_before = service.server_stats()["errors"]
    message = assert_refused(exchange(service, line))
    assert "not valid JSON" in message
    # Counted like any failing request, by the one failure path.
    assert service.server_stats()["errors"] == errors_before + 1


def test_a_float_too_large_for_json_is_never_echoed(service):
    answer = exchange(service, b'{"op": "ping", "id": 1e999}')
    assert_refused(answer)
    assert answer["id"] is None
    # An untraced server echoes the wire context: its three fields, no more.
    answer = exchange(service, b'{"op": "ping", "trace": {"trace_id": "t", "x": 1e999}}')
    assert answer["ok"] is True and answer["trace"] == {"trace_id": "t"}


def test_an_oversized_frame_is_answered_by_the_same_failure_path(catalog_root):
    with make_service(catalog_root, max_frame_bytes=2048) as small:
        answer = exchange(small, b'{"op": "ping", "id": "' + b"a" * 4096 + b'"}')
        assert_refused(answer, "too_large", 413)
        assert small.server_stats()["errors"] == 1
        assert small.server_stats()["requests"] == 2  # the frame and the ping


# -- tenants -------------------------------------------------------------------

BAD_TENANTS = ['a"b', "a\\b", "a\nb", "t\ud800", "tab\there", "", "x" * 129, 7, ["t"]]


@pytest.mark.parametrize("tenant", BAD_TENANTS, ids=repr)
def test_a_tenant_no_label_can_carry_is_refused_at_the_boundary(catalog_root, tmp_path, tenant):
    metrics_path = tmp_path / "final.prom"
    with make_service(catalog_root, metrics_path=str(metrics_path)) as fresh:
        for frame in (
            {"id": 1, "op": "query", "tenant": tenant, "params": {"expr": GOAL}},
            {"id": 2, "op": "query", "params": {"expr": GOAL},
             "trace": {"trace_id": "t", "tenant": tenant}},
        ):
            message = assert_refused(fresh.handle(frame))
            assert "tenant must be" in message
        # Nothing ran and nobody was charged ...
        assert fresh.tenant_stats() == {}
        # ... so the exposition still renders and encodes, for /metrics and
        # for the file shutdown writes.
        fresh.metrics_text().encode("utf-8")
    assert "service_requests_total" in metrics_path.read_text()


def test_a_tenant_at_the_limit_is_served_and_charged(service):
    tenant = "A tenant: 128 chars, spaces & {braces} " + "x" * 89
    assert len(tenant) == 128
    answer = service.handle({"op": "query", "tenant": tenant, "params": {"expr": GOAL}})
    assert answer["ok"] is True
    assert service.tenant_stats()[tenant]["queries"] == 1
    assert f'service_tenant_queries_total{{tenant="{tenant}"}} 1' in service.metrics_text()


# -- the op table --------------------------------------------------------------

CLIENT_METHODS = {"session.release": "release_session", "metrics": "metrics_text"}


def test_op_table(service):
    assert repro.service.OPS is protocol.OPS
    assert list(repro.service.OPS) == [
        "ping", "query", "learn", "interactive", "session.release",
        "stats", "metrics", "catalog", "shutdown",
    ]  # fmt: skip
    for name in protocol.OPS:
        assert callable(getattr(service, "_op_" + name.replace(".", "_"))), name
        assert callable(getattr(ServiceClient, CLIENT_METHODS.get(name, name))), name
    handlers = {name for name in dir(QueryService) if name.startswith("_op_")}
    assert len(handlers) == len(protocol.OPS)  # and no handler without a declaration
    accounted = {name for name, op in protocol.OPS.items() if op.accounted}
    assert accounted == {"query", "learn", "interactive", "session.release"}
    assert sorted({name for op in protocol.OPS.values() for name in op.params}) == DECLARED
    assert [name for name, op in protocol.OPS.items() if not op.admitted] == ["ping"]
    # A handler takes the trace context iff its op is declared traced.
    traced = {name for name, op in protocol.OPS.items() if op.traced}
    assert traced == {"query", "learn", "interactive"}
    for name, op in protocol.OPS.items():
        handler = getattr(QueryService, "_op_" + name.replace(".", "_"))
        takes = list(inspect.signature(handler).parameters)
        assert takes == (["self", "request", "trace"] if op.traced else ["self", "request"])
    # The README's op table is written from the same declarations.
    readme = (Path(__file__).parents[2] / "README.md").read_text()
    for name, op in protocol.OPS.items():
        (row,) = [line for line in readme.splitlines() if line.startswith(f"  | `{name}` |")]
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        flags = (op.accounted, op.admitted, op.traced)
        assert cells[2:] == ["yes" if flag else "no" for flag in flags]
        declared = [part.split("`")[1] for part in cells[1].split(";") if "`" in part]
        assert declared == list(op.params)


def test_only_ping_is_exempt_from_admission(catalog_root):
    with make_service(catalog_root, max_concurrent=1) as tiny:
        with tiny.admission.admit("hog"):
            assert tiny.handle({"op": "ping"})["ok"] is True
            for op in set(protocol.OPS) - {"ping"}:
                assert_refused(tiny.handle({"op": op}), "overloaded", 429)


@pytest.mark.parametrize(
    "op, params, name",
    [
        ("query", {"expr": "bus", "snaphot": "g0"}, "snaphot"),
        ("catalog", {"verbose": True}, "verbose"),
        ("ping", {"expr": "bus"}, "expr"),
        ("learn", {"positives": ["N2"], "goal": GOAL}, "goal"),
        ("session.release", {"session": "s", "snapshot": "geo"}, "snapshot"),
    ],
)
def test_an_undeclared_param_is_a_400_naming_it(service, op, params, name):
    message = assert_refused(service.handle({"id": 1, "op": op, "params": params}))
    assert f"params.{name}" in message


@pytest.mark.parametrize(
    "op, params, name",
    [
        ("query", {}, "expr"),
        ("query", {"expr": ""}, "expr"),
        ("query", {"expr": ["bus"]}, "expr"),
        ("query", {"expr": "bus", "semantics": "nary"}, "semantics"),
        ("interactive", {}, "goal"),
        ("interactive", {"goal": GOAL, "session": ""}, "session"),
        ("interactive", {"goal": GOAL, "session": 3}, "session"),
        ("interactive", {"goal": GOAL, "config": "fast"}, "config"),
        ("learn", {"positives": "N2"}, "positives"),
        ("learn", {"positives": ["N2"], "config": [1]}, "config"),
        ("session.release", {}, "session"),
    ],
)
def test_a_param_failing_its_declared_check_is_a_400_naming_it(service, op, params, name):
    message = assert_refused(service.handle({"id": 1, "op": op, "params": params}))
    assert f"params.{name}" in message


# -- wire compatibility ---------------------------------------------------------

RECORDED = Path(__file__).with_name("envelopes_geo.json")

#: One well-formed request (or more) per op, in an order that exercises a
#: session's whole life; the last one really shuts the service down.
REQUESTS = [
    {"id": 1, "op": "ping"},
    {"id": 2, "op": "query", "tenant": "acme", "params": {"expr": GOAL}},
    {"id": 3, "op": "query", "tenant": "acme",
     "params": {"expr": "tram", "semantics": "binary", "snapshot": "geo"}},
    {"id": 4, "op": "learn", "tenant": "acme",
     "params": {"positives": ["N2", "N6"], "negatives": ["N5"]}},
    {"id": 5, "op": "learn", "tenant": "acme",
     "params": {"positives": [["N1", "N4"]], "negatives": [["N1", "N5"]],
                "config": {"semantics": "binary"}}},
    {"id": 6, "op": "interactive", "tenant": "acme",
     "params": {"goal": GOAL, "session": "s1", "config": {"max_interactions": 2}}},
    {"id": 7, "op": "interactive", "tenant": "acme", "params": {"goal": GOAL, "session": "s1"}},
    {"id": "eight", "op": "session.release", "tenant": "acme", "params": {"session": "s1"}},
    {"id": 9, "op": "session.release", "tenant": "acme", "params": {"session": "s1"}},
    {"id": 10, "op": "stats", "tenant": "acme"},
    {"id": 11, "op": "metrics"},
    {"id": 12, "op": "catalog"},
    {"id": 13, "op": "query", "params": {"expr": GOAL, "snapshot": "no-such-snapshot"},
     "trace": {"trace_id": "abc", "parent_span": "c:1"}},
    {"id": 14, "op": "shutdown"},
]  # fmt: skip

#: Clock readings, a temp path, the process-wide parse cache, and counters
#: that follow the kernel backend or the hash seed: masked by key, wherever
#: they sit (the engines' own stats blocks keep their key lists).
VOLATILE = {
    "elapsed", "ts", "seconds", "total_seconds", "wall_milliseconds", "root", "registered_at",
    "parse_cache", "cache_hits", "kernel_units",
}  # fmt: skip


def masked(value):
    if isinstance(value, dict):
        if value.get("type") == "MetricsReport":  # the series it lists, not their values
            lines = value["text"].splitlines()
            value = {**value, "text": sorted(ln.split(" ")[0] for ln in lines if ln[0] != "#")}
        if value.get("type") == "ServiceStats":
            value = {**value, "datasets": {k: sorted(v) for k, v in value["datasets"].items()}}
        return {
            key: "<volatile>" if key in VOLATILE else masked(item) for key, item in value.items()
        }
    return [masked(item) for item in value] if isinstance(value, list) else value


def record_envelopes(catalog_root: str) -> list:
    service = make_service(catalog_root, allow_remote_shutdown=True, share_caches=False)
    service.start()
    try:
        return [masked(service.handle(request)) for request in REQUESTS]
    finally:
        service.shutdown()


def test_well_formed_requests_get_the_envelopes_the_parent_sent(catalog_root):
    envelopes = record_envelopes(catalog_root)
    assert {request["op"] for request in REQUESTS} == set(protocol.OPS)
    recorded = json.loads(RECORDED.read_text())
    for request, envelope, expected in zip(REQUESTS, envelopes, recorded, strict=True):
        assert list(envelope) == list(expected), request  # keys, in wire order
        assert envelope == expected, request


if __name__ == "__main__":  # re-record: PYTHONPATH=<parent>/src python tests/service/test_frames.py
    import tempfile

    root = tempfile.mkdtemp()
    DatasetCatalog(root).ensure("geo")
    RECORDED.write_text(json.dumps(record_envelopes(root), indent=1) + "\n")
