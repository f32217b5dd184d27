"""End-to-end daemon tests: concurrency, isolation, batching, shedding.

This file carries the PR's acceptance assertions: a running service
sustains 8+ concurrent clients across multiple tenants against one shared
snapshot with zero cross-tenant state leakage, request batching really
lands in ``evaluate_many``, and overload answers are structured 429-style
errors rather than hangs.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import Workspace
from repro.api.config import ServiceConfig
from repro.api.result import QueryResult
from repro.errors import OverloadedError, ProtocolError, ServiceError
from repro.learning import Sample
from repro.service import QueryService, ServiceClient
from repro.storage.catalog import DatasetCatalog

GOAL = "(tram+bus)*.cinema"


@pytest.fixture(scope="module")
def catalog_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-catalog")
    catalog = DatasetCatalog(root)
    catalog.ensure("geo")
    catalog.ensure("g0")
    return str(root)


def make_service(catalog_root: str, **overrides) -> QueryService:
    defaults = dict(
        catalog_root=catalog_root,
        snapshots=("geo",),
        default_snapshot="geo",
        allow_remote_shutdown=True,
    )
    defaults.update(overrides)
    return QueryService(ServiceConfig(**defaults))


@pytest.fixture(scope="module")
def service(catalog_root):
    with make_service(catalog_root) as running:
        yield running


def client_for(service: QueryService, tenant: str = "default") -> ServiceClient:
    host, port = service.address
    return ServiceClient(host, port, tenant=tenant)


# -- basic request/response ---------------------------------------------------


def test_ping_and_typed_query_roundtrip(service):
    with client_for(service) as client:
        assert client.ping() is True
        result = client.query(GOAL)
        assert isinstance(result, QueryResult)
        assert result.nodes() == ["N1", "N2", "N4", "N6"]
        # Remote answers match a local workspace on the same figure graph.
        local = Workspace.from_figure("geo").query(GOAL)
        assert result.selected == local.selected


def test_a_seen_expression_is_compiled_by_neither_daemon_nor_client(service, request):
    from repro.api.result import result_from_dict

    with client_for(service) as client:
        first = client.query(GOAL)  # the text is seen: compiled at most here
        # Server thread and client share this process, so one counter sees
        # the daemon's parse and the client's rebuild of the reply.
        compilations = request.getfixturevalue("compilations")
        again = client.query(GOAL)
        rebuilt = result_from_dict(again.to_dict())
    assert compilations == []
    assert rebuilt == again and again.selected == first.selected


def test_named_snapshot_and_binary_semantics(service):
    with client_for(service) as client:
        binary = client.query("tram", snapshot="geo", semantics="binary")
        assert binary.semantics == "binary"
        assert all(isinstance(pair, tuple) for pair in binary.selected)
        # A snapshot that exists in the catalog but was not preloaded is
        # opened lazily on first use.
        g0 = client.query("a.b", snapshot="g0")
        assert g0.semantics == "path"
        assert "g0" in client.catalog()["hot"]


def test_learn_remotely_matches_local(service):
    with client_for(service) as client:
        remote = client.learn(["N2", "N6"], ["N5"])
    local = Workspace.from_figure("geo").learn(
        Sample(positives={"N2", "N6"}, negatives={"N5"})
    )
    assert remote.query.expression == local.query.expression


def test_unknown_snapshot_is_structured_404(service):
    with client_for(service) as client:
        with pytest.raises(ServiceError) as exc_info:
            client.query(GOAL, snapshot="no-such-dataset")
        assert exc_info.value.status == 404 and exc_info.value.code == "not_found"
        # The connection survives the error.
        assert client.ping() is True


def test_bad_expression_is_structured_400(service):
    with client_for(service) as client:
        with pytest.raises(ProtocolError) as exc_info:
            client.query("((broken")
        assert exc_info.value.status == 400
        with pytest.raises(ProtocolError):
            client.query(GOAL, semantics="nope")
        assert client.ping() is True


# What each work op needs besides the param under test; only declared names
# (an undeclared one is refused before anything else is looked at).
OP_PARAMS = {
    "query": {"expr": "tram"},
    "learn": {"positives": ["N2"], "negatives": ["N5"]},
    "interactive": {"goal": GOAL},
}

MALFORMED_WIRE_CONFIGS = [
    ("interactive", {"max_interactions": "x"}),
    ("interactive", {"neighborhood_radius": 1.5}),
    ("interactive", {"pool_size": "512"}),
    ("interactive", {"target_f1": "1.0"}),
    ("interactive", {"k_start": None}),
    ("interactive", {"strategy": ["kR"]}),
    ("learn", {"dynamic_k": "yes"}),
    ("learn", {"k": "2"}),
    ("learn", {"generalize": 0}),
]


@pytest.mark.parametrize("op, config", MALFORMED_WIRE_CONFIGS)
def test_wrongly_typed_wire_config_is_a_400_envelope(service, op, config):
    params = {**OP_PARAMS[op], "config": config}
    answer = service.handle({"id": 7, "op": op, "params": params})
    assert answer["ok"] is False and answer["id"] == 7
    error = answer["error"]
    assert (error["code"], error["status"]) == ("bad_request", 400), error
    assert next(iter(config)) in error["message"]


BINARY = {"semantics": "binary"}
MALFORMED_LEARN_PARAMS = [
    ({"positives": 5, "negatives": []}, "params.positives"),
    ({"positives": [["a"]]}, "params.positives"),
    ({"positives": [1], "config": BINARY}, "params.positives"),
    ({"positives": [["N1", "N4"]], "negatives": [["N1"]], "config": BINARY}, "params.negatives"),
    ({"positives": ["no-such-node"]}, "not present in the graph"),
    # The shard pool's knobs are gone from every config, the wire's included.
    ({"positives": ["N2"], "config": {"workers": 2}}, "unknown LearnerConfig fields"),
]


@pytest.mark.parametrize(
    "params, complaint",
    MALFORMED_LEARN_PARAMS,
    ids=["not-a-list", "nested-node", "node-for-pair", "short-pair", "unknown-node", "workers"],
)
def test_malformed_learn_examples_are_a_400_envelope(service, caplog, params, complaint):
    with caplog.at_level("ERROR", logger="repro.service.server"):
        answer = service.handle({"id": 9, "op": "learn", "params": params})
    assert answer["ok"] is False and answer["id"] == 9
    error = answer["error"]
    assert (error["code"], error["status"]) == ("bad_request", 400), error
    assert complaint in error["message"]
    assert not caplog.records  # a client's mistake is not a server traceback


def test_malformed_wire_config_keeps_the_connection(service):
    host, port = service.address
    with socket.create_connection((host, port), timeout=10) as raw:
        reader = raw.makefile("rb")
        request = {
            "id": 1,
            "op": "interactive",
            "params": {"goal": "tram", "config": {"max_interactions": "x"}},
        }
        raw.sendall(json.dumps(request).encode() + b"\n")
        answer = json.loads(reader.readline())
        assert answer["ok"] is False and answer["id"] == 1
        assert answer["error"]["code"] == "bad_request" and answer["error"]["status"] == 400
        # The same connection answers the next request.
        raw.sendall(b'{"id": 2, "op": "ping"}\n')
        answer = json.loads(reader.readline())
        assert answer["ok"] is True and answer["id"] == 2


DEEP_EXPRESSIONS = ["(" * 300 + "tram" + ")" * 300, "tram" + ".tram" * 1000]


@pytest.mark.parametrize("expr", DEEP_EXPRESSIONS, ids=["parentheses", "chain"])
def test_too_deep_an_expression_is_a_400_envelope(service, caplog, expr):
    with caplog.at_level("ERROR", logger="repro.service.server"):
        answer = service.handle({"id": 4, "op": "query", "params": {"expr": expr}})
    assert answer["ok"] is False and answer["id"] == 4
    error = answer["error"]
    assert (error["code"], error["status"]) == ("bad_request", 400), error
    assert "nested too deeply" in error["message"]
    assert not caplog.records  # a syntax error, not a RecursionError traceback


def test_too_deep_an_expression_keeps_the_connection(service):
    host, port = service.address
    with socket.create_connection((host, port), timeout=10) as raw:
        reader = raw.makefile("rb")
        request = {"id": 1, "op": "query", "params": {"expr": DEEP_EXPRESSIONS[1]}}
        raw.sendall(json.dumps(request).encode() + b"\n")
        answer = json.loads(reader.readline())
        assert answer["ok"] is False and answer["id"] == 1
        assert answer["error"]["code"] == "bad_request" and answer["error"]["status"] == 400
        raw.sendall(b'{"id": 2, "op": "ping"}\n')
        answer = json.loads(reader.readline())
        assert answer["ok"] is True and answer["id"] == 2


@pytest.mark.parametrize("op", ["query", "learn", "interactive"])
@pytest.mark.parametrize("snapshot", [0, "", [], False], ids=repr)
def test_a_falsy_snapshot_is_refused_not_served_from_the_default(service, op, snapshot):
    params = OP_PARAMS[op]
    answer = service.handle({"id": 5, "op": op, "params": {**params, "snapshot": snapshot}})
    assert answer["ok"] is False and answer["id"] == 5
    error = answer["error"]
    assert (error["code"], error["status"]) == ("bad_request", 400), error
    assert "snapshot must be a name string" in error["message"]
    # Only an absent (or null) name falls back to the default.
    for fallback in (params, {**params, "snapshot": None}):
        assert service.handle({"id": 6, "op": op, "params": fallback})["ok"] is True


@pytest.mark.parametrize("op", [["x"], {"query": 1}, 7, 1.5, True, None, "no-such-op"])
def test_every_json_value_of_op_is_a_400_envelope(service, op):
    errors_before = service.server_stats()["errors"]
    answer = service.handle({"id": 3, "op": op})
    assert answer["ok"] is False and answer["id"] == 3
    assert (answer["error"]["code"], answer["error"]["status"]) == ("bad_request", 400)
    assert service.server_stats()["errors"] == errors_before + 1


def test_unhashable_op_keeps_the_connection(service):
    host, port = service.address
    with socket.create_connection((host, port), timeout=10) as raw:
        reader = raw.makefile("rb")
        raw.sendall(b'{"id": 1, "op": ["query"], "tenant": "acme"}\n')
        answer = json.loads(reader.readline())
        assert answer["ok"] is False and answer["id"] == 1
        assert answer["error"]["code"] == "bad_request" and answer["error"]["status"] == 400
        # The same connection answers the next request.
        raw.sendall(b'{"id": 2, "op": "ping"}\n')
        answer = json.loads(reader.readline())
        assert answer["ok"] is True and answer["id"] == 2


def test_unexpected_exception_in_an_op_is_a_500_envelope(service, monkeypatch, caplog):
    def broken(request):
        raise RuntimeError("bug in the op")

    monkeypatch.setattr(service, "_op_catalog", broken)
    errors_before = service.server_stats()["errors"]
    with client_for(service) as client:
        with pytest.raises(ServiceError) as exc_info:
            client.catalog()
        assert (exc_info.value.code, exc_info.value.status) == ("internal", 500)
        assert "bug in the op" in str(exc_info.value)
        # The connection loop survived the bug, and the traceback was logged.
        assert client.ping() is True
    assert service.server_stats()["errors"] == errors_before + 1
    assert any(record.exc_info for record in caplog.records)


def test_error_mapping_follows_the_class_hierarchy():
    from repro.errors import AlphabetError, QueryError, RegexSyntaxError, SampleError

    for base in (RegexSyntaxError, QueryError, SampleError, AlphabetError):
        subclass = type("Special" + base.__name__, (base,), {})
        mapped = QueryService._map_error(subclass("nope"))
        assert isinstance(mapped, ProtocolError) and mapped.status == 400, base.__name__
    assert QueryService._map_error(RuntimeError("boom")).status == 500


def test_oversized_request_rejected_connection_survives(catalog_root):
    with make_service(catalog_root, max_frame_bytes=2048) as service:
        host, port = service.address
        with socket.create_connection((host, port), timeout=10) as raw:
            reader = raw.makefile("rb")
            raw.sendall(b'{"op": "query", "params": {"expr": "' + b"a" * 4096 + b'"}}\n')
            answer = json.loads(reader.readline())
            assert answer["ok"] is False
            assert answer["error"]["code"] == "too_large"
            assert answer["error"]["status"] == 413
            # Framing recovered: a well-formed request still works.
            raw.sendall(b'{"id": 2, "op": "ping"}\n')
            answer = json.loads(reader.readline())
            assert answer["ok"] is True and answer["id"] == 2


# -- the acceptance test: concurrent multi-tenant traffic ---------------------


def test_eight_concurrent_clients_two_tenants_no_leakage(catalog_root):
    """8 clients / 2 tenants against one shared snapshot.

    Every client mixes queries with tenant-private interactive sessions
    under the *same session name*; correctness of every query result and
    strict per-tenant session counters prove the shared engine serves all
    tenants while no session state crosses the tenant boundary.
    """
    expressions = [GOAL, "tram", "bus", "tram.tram", "(tram.bus)*.cinema"]
    local = Workspace.from_figure("geo")
    expected = {expr: local.query(expr).selected for expr in expressions}
    interactive_config = {"max_interactions": 2, "pool_size": 32}

    # The single-tenant reference: 4 sequential resumed calls of the same
    # session.  Each concurrent tenant below must reproduce exactly this
    # interaction-count trajectory -- leakage across tenants would chain
    # all 8 calls into one session and blow past it.
    reference_counts: list[int] = []
    checkpoint = None
    reference_ws = Workspace.from_figure("geo")
    from repro.api import InteractiveConfig

    for _ in range(4):
        session = reference_ws.interactive_session(
            GOAL, InteractiveConfig(**interactive_config), resume_from=checkpoint
        )
        session.run()
        checkpoint = session.checkpoint().to_dict()
        reference_counts.append(len(session.interactions))

    with make_service(catalog_root, max_concurrent=16, per_tenant=8) as service:
        clients = 8
        per_client_rounds = 6
        errors: list[Exception] = []
        session_counts: list[tuple[str, int]] = []
        counts_lock = threading.Lock()
        barrier = threading.Barrier(clients)

        def worker(i: int) -> None:
            tenant = "acme" if i % 2 == 0 else "rival"
            try:
                with client_for(service, tenant=tenant) as client:
                    barrier.wait()
                    for round_no in range(per_client_rounds):
                        expr = expressions[(i + round_no) % len(expressions)]
                        result = client.query(expr)
                        assert result.selected == expected[expr], expr
                    # Same session name for everyone: only the tenant may
                    # distinguish them.
                    _result, info = client.interactive(
                        GOAL, session="shared-name", config=interactive_config
                    )
                    with counts_lock:
                        session_counts.append((tenant, info["interactions"]))
            except Exception as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]

        # Zero cross-tenant leakage: each tenant's 4 calls walked exactly
        # the single-tenant trajectory (and no one else's), and no session
        # materialized under any other tenant.
        for tenant in ("acme", "rival"):
            observed = sorted(count for t, count in session_counts if t == tenant)
            assert observed == sorted(reference_counts), tenant
            stored = service.sessions.get(tenant, "shared-name")
            assert stored is not None
            assert len(stored["interactions"]) == reference_counts[-1]
        assert service.sessions.get("default", "shared-name") is None

        # Shared-engine economics: one engine answered all tenants, so
        # repeated expressions were result-cache hits across tenants.
        with service._datasets_lock:
            engine = service._datasets["geo"].engine
        assert engine.stats.snapshot()["result_cache_hits"] > 0

        # And the stats op shows each tenant only its own sessions.
        with client_for(service, tenant="acme") as client:
            stats = client.stats()
            assert stats["tenant_sessions"] == ["shared-name"]
            assert stats["server"]["requests"] > clients * per_client_rounds


def test_batching_hits_evaluate_many(catalog_root):
    """Concurrent queries demonstrably coalesce into evaluate_many calls."""
    with make_service(catalog_root) as service:
        service.batcher.pause()
        clients = 8
        results: list = [None] * clients
        errors: list[Exception] = []

        def worker(i: int) -> None:
            tenant = "acme" if i % 2 == 0 else "rival"
            try:
                with client_for(service, tenant=tenant) as client:
                    results[i] = client.query(GOAL)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
        for thread in threads:
            thread.start()
        # Wait until all 8 requests are queued behind the paused batcher,
        # then release them as one burst.
        for _ in range(1000):
            if service.batcher.depth == clients:
                break
            threading.Event().wait(0.01)
        assert service.batcher.depth == clients
        service.batcher.resume()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]

        expected = Workspace.from_figure("geo").query(GOAL).selected
        assert all(result.selected == expected for result in results)
        batches = service.registry.counter("service_batches_total").value
        batched = service.registry.counter("service_batched_queries_total").value
        assert batched == clients
        # All 8 queued requests fit one batch (batch_max=16 default).
        assert batches == 1
        size = service.registry.snapshot()["service_batch_size"]
        assert size["sum"] == clients


def test_load_shedding_returns_structured_429_not_a_hang(catalog_root):
    with make_service(catalog_root, queue_depth=3, max_concurrent=32) as service:
        service.batcher.pause()
        blocked_clients = [client_for(service, tenant=f"t{i}") for i in range(3)]
        threads = [
            threading.Thread(target=client.query, args=(GOAL,))
            for client in blocked_clients
        ]
        try:
            for thread in threads:
                thread.start()
            for _ in range(1000):
                if service.batcher.depth == 3:
                    break
                threading.Event().wait(0.01)
            assert service.batcher.depth == 3
            # Queue full: the next client is shed immediately and typed.
            with client_for(service, tenant="late") as late:
                with pytest.raises(OverloadedError) as exc_info:
                    late.query(GOAL)
                assert exc_info.value.status == 429
                # The shed connection is still healthy.
                assert late.ping() is True
            assert service.registry.counter("service_batch_shed_total").value >= 1
        finally:
            service.batcher.resume()
            for thread in threads:
                thread.join()
            for client in blocked_clients:
                client.close()


def test_per_tenant_cap_sheds_noisy_tenant_only(catalog_root):
    with make_service(catalog_root, per_tenant=1, max_concurrent=32) as service:
        service.batcher.pause()
        noisy = client_for(service, tenant="noisy")
        blocked = threading.Thread(target=noisy.query, args=(GOAL,))
        try:
            blocked.start()
            for _ in range(1000):
                if service.batcher.depth == 1:
                    break
                threading.Event().wait(0.01)
            assert service.batcher.depth == 1
            with client_for(service, tenant="noisy") as second:
                with pytest.raises(OverloadedError):
                    second.query(GOAL)
            assert service.registry.counter("service_shed_total").value >= 1
        finally:
            service.batcher.resume()
            blocked.join()
            noisy.close()
        # The quiet tenant was never blocked by the noisy tenant's cap.
        with client_for(service, tenant="quiet") as quiet:
            assert quiet.query(GOAL).count == 4


def test_a_lone_query_does_not_wait_for_the_window(catalog_root):
    with make_service(catalog_root, batch_window=10.0) as service:
        started = time.perf_counter()
        envelope = service.handle({"op": "query", "params": {"expr": GOAL}})
        assert envelope["ok"] and time.perf_counter() - started < 1.0
        assert service.registry.counter("service_batches_total").value == 1


# -- sessions over the wire ---------------------------------------------------


def test_interactive_session_resumes_across_requests(service):
    with client_for(service, tenant="resume-me") as client:
        _result, first = client.interactive(
            GOAL, session="s", config={"max_interactions": 2, "pool_size": 32}
        )
        assert first == {"name": "s", "resumed": False, "interactions": 2}
        _result, second = client.interactive(
            GOAL, session="s", config={"max_interactions": 2, "pool_size": 32}
        )
        assert second["resumed"] is True
        assert second["interactions"] == 4
        assert client.stats()["tenant_sessions"] == ["s"]
        assert client.release_session("s") is True
        assert client.release_session("s") is False
        assert client.stats()["tenant_sessions"] == []


def test_session_cap_refuses_a_new_name_before_any_work(service):
    """At the cap a *new* name is a 429 that runs nothing and keeps no lock;
    an existing name still resumes, and a release makes room again."""
    sessions = service.sessions
    cap = sessions.max_sessions_per_tenant
    engine = service._resolve_dataset({}).engine

    def interactive(name, tenant="cap-tester", goal=GOAL):
        params = {"goal": goal, "session": name, "config": {"max_interactions": 1}}
        return service.handle({"op": "interactive", "tenant": tenant, "params": params})

    def no_orphan_locks():
        stored = {(t, n) for t in sessions._sessions for n in sessions.names(t)}
        return set(sessions._session_locks) <= stored

    try:
        for number in range(cap):
            assert interactive(f"s{number}")["ok"]
        evaluations = engine.stats.evaluations
        for number in range(cap, cap + 5):
            refused = interactive(f"s{number}")
            assert not refused["ok"]
            assert (refused["error"]["code"], refused["error"]["status"]) == ("session_limit", 429)
        assert engine.stats.evaluations == evaluations  # refused before any walk
        assert sessions.names("cap-tester") == sorted(f"s{n}" for n in range(cap))
        assert len(sessions._session_locks) <= sessions.total() and no_orphan_locks()
        resumed = interactive("s0")
        assert resumed["ok"] and resumed["session"]["resumed"] is True
        released = service.handle(
            {"op": "session.release", "tenant": "cap-tester", "params": {"session": "s1"}}
        )
        assert released["result"]["released"] is True
        assert interactive("fresh")["ok"]
        # A run that raises stores nothing, so its lock goes too.
        assert not interactive("broken", tenant="cap-other", goal="((")["ok"]
        assert sessions.names("cap-other") == [] and no_orphan_locks()
    finally:
        for name in sessions.names("cap-tester"):
            sessions.release("cap-tester", name)
    assert no_orphan_locks()


def test_session_runs_to_goal_matches_local(service):
    local = Workspace.from_figure("geo").learn_interactive(GOAL)
    with client_for(service, tenant="goal-seeker") as client:
        remote, _info = client.interactive(GOAL)
    assert remote.halted_by == "goal"
    assert remote.query.expression == local.query.expression


# -- observability ------------------------------------------------------------


def test_stats_and_metrics_surface_service_counters(service):
    with client_for(service) as client:
        client.query(GOAL)
        stats = client.stats()
        assert stats["server"]["requests"] >= 2
        assert "geo" in stats["datasets"]
        assert stats["datasets"]["geo"]["evaluations"] >= 1
        assert stats["server"]["admission"]["max_concurrent"] == 32
        text = client.metrics_text()
    assert "service_requests_total" in text
    assert "service_request_seconds_bucket" in text
    assert "service_engine_evaluations" in text
    # The process-wide expression cache reports its own counters once, in
    # the server block and the Prometheus text (not summed per dataset).
    parse_cache = stats["server"]["parse_cache"]
    assert set(parse_cache) == {"hits", "misses", "size"}
    assert parse_cache["hits"] + parse_cache["misses"] >= 1
    assert "queries_parse_cache_hits_total" in text
    assert "queries_parse_cache_misses_total" in text
    assert "service_engine_parse_cache" not in text


def test_http_metrics_endpoint(catalog_root):
    with make_service(catalog_root, metrics_port=0) as service:
        with client_for(service) as client:
            client.query(GOAL)
        host, port = service.metrics_address
        body = urllib.request.urlopen(f"http://{host}:{port}/metrics").read().decode()
        assert "service_requests_total" in body
        assert "service_datasets 1" in body
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"http://{host}:{port}/nope")


def test_metrics_file_written_on_shutdown(catalog_root, tmp_path):
    metrics_path = tmp_path / "final-metrics.prom"
    with make_service(catalog_root, metrics_path=str(metrics_path)) as service:
        with client_for(service) as client:
            client.query(GOAL)
    text = metrics_path.read_text()
    assert "service_requests_total 1" in text
    assert "service_engine_evaluations" in text


def test_per_tenant_accounting(catalog_root):
    # Private caches: content-identity cache sharing with other tests'
    # services would turn the first query into a hit and zero the deltas.
    with make_service(catalog_root, share_caches=False) as service:
        with client_for(service, tenant="acme") as acme:
            acme.query(GOAL)
            acme.query(GOAL)
            with pytest.raises(ServiceError):
                acme.query(GOAL, snapshot="no-such-dataset")
        with client_for(service, tenant="rival") as rival:
            rival.query("tram")
            table = rival.stats()["server"]["tenants"]
        acme_row = table["acme"]
        # ping is not accounted; the two queries and the failed one are.
        assert acme_row["queries"] == 3
        assert acme_row["errors"] == 1
        assert acme_row["sheds"] == 0
        assert acme_row["wall_milliseconds"] >= 0
        # The second identical query was a result-cache hit; kernel work
        # happened at least on the first.
        assert acme_row["cache_hits"] >= 1
        assert acme_row["kernel_units"] > 0
        # rival's row counts only its own traffic (stats is not a query).
        assert table["rival"]["queries"] == 1
        assert table["rival"]["errors"] == 0
        # The same table is exported as labeled Prometheus series.
        text = service.registry.render_prometheus()
        assert 'service_tenant_queries_total{tenant="acme"} 3' in text
        assert 'service_tenant_errors_total{tenant="acme"} 1' in text
        assert 'service_tenant_queries_total{tenant="rival"} 1' in text


def test_shed_requests_count_against_their_tenant(catalog_root):
    with make_service(catalog_root, queue_depth=1, max_concurrent=32) as service:
        service.batcher.pause()
        blocked = client_for(service, tenant="noisy")
        thread = threading.Thread(target=blocked.query, args=(GOAL,))
        try:
            thread.start()
            for _ in range(1000):
                if service.batcher.depth == 1:
                    break
                threading.Event().wait(0.01)
            with client_for(service, tenant="noisy") as second:
                with pytest.raises(OverloadedError):
                    second.query(GOAL)
        finally:
            service.batcher.resume()
            thread.join()
            blocked.close()
        row = service.tenant_stats()["noisy"]
        assert row["sheds"] == 1
        assert row["errors"] == 1


def test_trace_context_propagates_client_to_server_spans(catalog_root, tmp_path):
    from repro.telemetry import Telemetry, build_trace_tree, read_trace

    server_trace = tmp_path / "server-trace.jsonl"
    client_trace = tmp_path / "client-trace.jsonl"
    with make_service(catalog_root, trace_path=str(server_trace)) as service:
        telemetry = Telemetry(trace_path=client_trace)
        host, port = service.address
        with ServiceClient(host, port, tenant="acme", telemetry=telemetry) as client:
            envelope = client.request("query", {"expr": GOAL})
        telemetry.close()
    assert envelope["ok"] is True
    # The response echoes the trace context so the caller can log the id.
    trace_id = envelope["trace"]["trace_id"]
    client_records = list(read_trace(client_trace))
    server_records = list(read_trace(server_trace))
    (client_span,) = [r for r in client_records if r["name"] == "client.request"]
    assert client_span["trace"] == trace_id
    assert client_span["tenant"] == "acme"
    server_names = {r["name"] for r in server_records if r.get("trace") == trace_id}
    assert "server.request" in server_names
    assert "engine.evaluate" in server_names
    # Joining both files reconstructs one tree rooted at the client span,
    # with the server's request span as its child.
    tree = build_trace_tree(client_records + server_records, trace_id)
    (root,) = tree["roots"]
    assert root["name"] == "client.request"
    child_names = {child["name"] for child in root["children"]}
    assert "server.request" in child_names
    assert tree["tenants"] == ["acme"]


def test_untraced_client_gets_server_minted_trace_and_request_id_stamped(
    catalog_root, tmp_path
):
    from repro.telemetry import read_trace

    server_trace = tmp_path / "server-trace.jsonl"
    with make_service(catalog_root, trace_path=str(server_trace)) as service:
        with client_for(service) as client:
            envelope = client.request("query", {"expr": GOAL})
    # A tracing server mints a root context for untraced requests and
    # echoes it, so even a plain client learns the id to grep the server's
    # trace file by.
    trace_id = envelope["trace"]["trace_id"]
    request_spans = [
        r for r in read_trace(server_trace) if r["name"] == "server.request"
    ]
    assert request_spans
    span = request_spans[-1]
    assert span["trace"] == trace_id
    # The per-request span records the client-supplied wire id, joining
    # request logs to the trace without a side channel.
    assert span["attrs"]["request"] == envelope["id"]


def test_untraced_server_sends_no_trace_echo(service):
    with client_for(service) as client:
        envelope = client.request("query", {"expr": GOAL})
    assert "trace" not in envelope


def test_slow_query_log_records_profile_and_explain(catalog_root, tmp_path):
    from repro.telemetry import read_trace, summarize_slow

    slow_log = tmp_path / "slow.jsonl"
    with make_service(
        catalog_root,
        slow_log_path=str(slow_log),
        slow_query_seconds=1e-9,  # everything is slow: deterministic capture
    ) as service:
        with client_for(service, tenant="acme") as client:
            client.query(GOAL)
    entries = list(read_trace(slow_log))
    assert entries
    entry = entries[0]
    assert entry["expr"] == GOAL
    assert entry["tenant"] == "acme"
    assert entry["snapshot"] == "geo"
    assert entry["elapsed"] >= 0
    assert entry["threshold"] == 1e-9
    assert "total_seconds" in entry["profile"]
    assert "states_expanded" in entry["profile"]
    assert entry["explain"]["type"] == "ExplainResult"
    summary = summarize_slow(entries)
    assert summary["entries"] == len(entries)
    assert summary["tenants"] == {"acme": len(entries)}


def test_a_slow_log_record_carries_the_profile_of_its_own_evaluation(catalog_root, tmp_path):
    """Six clients, two semantics, one tenant-shared engine, a one-entry result
    cache: every record's profile is the one its own query's evaluation left
    (the engine's slot used to be shared, the batch worker's last query won it)."""
    from repro.telemetry import read_trace

    expressions = ["tram", "bus", GOAL, "tram.tram", "bus.cinema", "tram*.cinema"]
    slow_log = tmp_path / "slow.jsonl"
    errors: list[Exception] = []
    with make_service(
        catalog_root,
        slow_log_path=str(slow_log),
        slow_query_seconds=1e-9,
        result_cache_size=1,
        share_caches=False,
    ) as service:

        def worker(i: int) -> None:
            try:
                with client_for(service, tenant=f"tenant-{i}") as client:
                    for j in range(60):
                        client.query(
                            expressions[(i + j) % 6], semantics=("path", "binary")[i % 2]
                        )
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert not errors, errors[0]
    records = list(read_trace(slow_log))
    assert len(records) == 360
    assert [record["request"] for record in records if "profile" not in record] == []
    mismatched = [
        (record["expr"], record["semantics"])
        for record in records
        if record["profile"]["plan"] != record["explain"]["plan"]["fingerprint"]
    ]
    assert mismatched == []


def test_slow_query_log_carries_the_trace_id(catalog_root, tmp_path):
    from repro.telemetry import Telemetry, read_trace

    slow_log = tmp_path / "slow.jsonl"
    server_trace = tmp_path / "server-trace.jsonl"
    client_trace = tmp_path / "client-trace.jsonl"
    with make_service(
        catalog_root,
        trace_path=str(server_trace),
        slow_log_path=str(slow_log),
        slow_query_seconds=1e-9,
    ) as service:
        telemetry = Telemetry(trace_path=client_trace)
        host, port = service.address
        with ServiceClient(host, port, tenant="acme", telemetry=telemetry) as client:
            envelope = client.request("query", {"expr": GOAL})
        telemetry.close()
    trace_id = envelope["trace"]["trace_id"]
    entries = list(read_trace(slow_log))
    assert entries
    assert entries[0]["trace"] == trace_id


def test_slow_threshold_filters_fast_queries(catalog_root, tmp_path):
    slow_log = tmp_path / "slow.jsonl"
    with make_service(
        catalog_root,
        slow_log_path=str(slow_log),
        slow_query_seconds=3600.0,  # nothing on a figure graph is this slow
    ) as service:
        with client_for(service) as client:
            client.query(GOAL)
    assert slow_log.read_text() == ""


# -- shutdown -----------------------------------------------------------------


def test_remote_shutdown_when_enabled(catalog_root):
    service = make_service(catalog_root)
    service.start()
    with client_for(service) as client:
        assert client.shutdown() is True
    for _ in range(500):
        if service._stop.is_set():
            break
        threading.Event().wait(0.01)
    assert service._stop.is_set()
    service.shutdown()  # idempotent


def test_shutdown_wakes_the_acceptor(catalog_root):
    # Closing the listening socket does not wake a thread blocked in
    # accept() on Linux; shutdown used to sit out the acceptor's 5 s join.
    service = make_service(catalog_root)
    service.start()
    with client_for(service) as client:
        assert client.ping() is True
    acceptor = next(t for t in service._threads if t.name == "repro-accept")
    started = time.perf_counter()
    service.shutdown()
    assert time.perf_counter() - started < 1.0
    assert not acceptor.is_alive()


def test_remote_shutdown_forbidden_by_default(catalog_root):
    with make_service(catalog_root, allow_remote_shutdown=False) as service:
        with client_for(service) as client:
            with pytest.raises(ServiceError) as exc_info:
                client.shutdown()
            assert exc_info.value.status == 403
            assert client.ping() is True
