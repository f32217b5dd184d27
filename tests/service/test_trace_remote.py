"""End-to-end distributed tracing: client -> daemon -> engine.

A traced query sent through :class:`~repro.service.ServiceClient` to a
tracing daemon yields ONE trace -- the client-side span, the server-side
request span and the engine span all stamped with the same trace id and
tenant, each parented onto the one before it across the wire --
reconstructable into a single tree from the client's and the server's
trace files (``repro trace --id``).  The daemon runs as a real subprocess,
so the spans genuinely cross a process boundary.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service import ServiceClient
from repro.storage.catalog import DatasetCatalog
from repro.telemetry import Telemetry, build_trace_tree, read_trace

GOAL = "(tram+bus)*.cinema"


@pytest.fixture(scope="module")
def catalog_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("trace-remote-catalog")
    DatasetCatalog(root).ensure("geo")
    return str(root)


def test_one_trace_spans_client_server_and_engine(catalog_root, tmp_path):
    server_trace = tmp_path / "server-trace.jsonl"
    client_trace = tmp_path / "client-trace.jsonl"
    repo_root = str(Path(__file__).resolve().parents[2])
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--catalog",
            catalog_root,
            "--port",
            "0",
            "--snapshots",
            "geo",
            "--trace",
            str(server_trace),
            "--allow-remote-shutdown",
            "--indent",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=repo_root,
    )
    try:
        ready = json.loads(process.stdout.readline())
        assert ready["ok"] is True
        host, port = ready["ready"]["host"], ready["ready"]["port"]

        telemetry = Telemetry(trace_path=client_trace)
        with ServiceClient(host, port, tenant="acme", telemetry=telemetry) as client:
            envelope = client.request("query", {"expr": GOAL})
        telemetry.close()
        assert envelope["ok"] is True
        trace_id = envelope["trace"]["trace_id"]

        # Clean shutdown flushes and closes the server's trace sink.
        with ServiceClient(host, port) as admin:
            assert admin.shutdown() is True
        _stdout, stderr = process.communicate(timeout=30)
        assert process.returncode == 0, stderr
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()

    def in_trace(path):
        return {r["name"]: r for r in read_trace(path) if r.get("trace") == trace_id}

    # One trace id across both files: the client's span in its own file, the
    # daemon's spans in the server's.
    client_spans, server_spans = in_trace(client_trace), in_trace(server_trace)
    assert set(client_spans) == {"client.request"}
    assert {"server.request", "engine.evaluate"} <= set(server_spans)
    assert not any(name.startswith("shard.") for name in server_spans)

    # Parent refs chain across the wire, and every span carries the tenant.
    client_span = client_spans["client.request"]
    request_span = server_spans["server.request"]
    assert "parent" not in client_span
    assert request_span["parent"] == client_span["span"]
    origins = {span["span"].split(":")[0] for span in (client_span, request_span)}
    assert len(origins) == 2  # two tracers, two processes
    for span in (*client_spans.values(), *server_spans.values()):
        assert span["tenant"] == "acme"
    assert server_spans["engine.evaluate"]["attrs"]["selected"] == 4

    # `repro trace --id` reassembles the two files into one tree.
    report = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "--id", trace_id]
        + ["--file", str(client_trace), "--file", str(server_trace), "--indent", "0"],
        capture_output=True,
        text=True,
        cwd=repo_root,
        timeout=60,
    )
    assert report.returncode == 0, report.stderr
    tree = json.loads(report.stdout)["result"]["tree"]
    records = [*read_trace(client_trace), *read_trace(server_trace)]
    assert tree == json.loads(json.dumps(build_trace_tree(records, trace_id)))
    assert tree["spans"] == len(client_spans) + len(server_spans)
    assert tree["tenants"] == ["acme"]
    (root,) = tree["roots"]

    def chain_to(node, name):
        """Span names from ``node`` down to the first span called ``name``."""
        if node["name"] == name:
            return [name]
        for child in node["children"]:
            below = chain_to(child, name)
            if below:
                return [node["name"], *below]
        return []

    chain = chain_to(root, "engine.evaluate")
    assert chain[:2] == ["client.request", "server.request"]
    assert chain[-1] == "engine.evaluate"
