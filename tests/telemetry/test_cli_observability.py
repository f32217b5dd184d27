"""The observability CLI: ``repro stats``, ``repro trace``, ``--trace/--profile``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.cli import main


def run_cli(capsys, *argv: str) -> tuple[int, dict]:
    code = main(list(argv))
    envelope = json.loads(capsys.readouterr().out)
    return code, envelope


class TestStatsCommand:
    def test_stats_envelope_reports_cache_economics(self, capsys):
        code, envelope = run_cli(
            capsys, "stats", "--figure", "geo", "--expr", "tram*", "--repeat", "5"
        )
        assert code == 0
        assert envelope["ok"] is True
        assert envelope["command"] == "stats"
        report = envelope["result"]
        assert report["type"] == "StatsReport"
        stats = report["stats"]
        assert stats["evaluations"] == 1  # 4 warm repeats hit the result cache
        assert stats["result_cache_hits"] == 4
        assert stats["result_cache_hit_rate"] == pytest.approx(0.8)
        assert stats["graph_nodes"] == 10
        metrics = report["metrics"]
        assert metrics["engine_evaluations_total"] == 1
        assert metrics["engine_result_cache_hits"] == 4
        # The workspace envelope carries engine_stats like every other command.
        assert envelope["engine_stats"]["evaluations"] == 1

    def test_stats_prometheus_exposition(self, capsys):
        code, envelope = run_cli(
            capsys, "stats", "--figure", "geo", "--expr", "tram", "--prometheus"
        )
        assert code == 0
        text = envelope["result"]["prometheus"]
        assert "# TYPE engine_evaluations_total counter" in text
        assert "engine_evaluations_total 1" in text

    def test_stats_rejects_bad_repeat(self, capsys):
        code, envelope = run_cli(
            capsys, "stats", "--figure", "geo", "--expr", "tram", "--repeat", "0"
        )
        assert code == 1
        assert envelope["error"]["type"] == "ConfigError"


class TestTraceCommand:
    def write_trace(self, capsys, tmp_path):
        trace_file = tmp_path / "run.jsonl"
        code, envelope = run_cli(
            capsys,
            "query",
            "--figure",
            "geo",
            "--expr",
            "(tram+bus)*.cinema",
            "--trace",
            str(trace_file),
            "--profile",
        )
        assert code == 0
        return trace_file, envelope

    def test_query_trace_profile_flags(self, capsys, tmp_path):
        trace_file, envelope = self.write_trace(capsys, tmp_path)
        assert trace_file.exists()
        profile = envelope["result"]["profile"]
        assert profile["cache"] == "miss"
        assert profile["depth_sizes"]

    def test_trace_summary_envelope(self, capsys, tmp_path):
        trace_file, _ = self.write_trace(capsys, tmp_path)
        code, envelope = run_cli(capsys, "trace", "--file", str(trace_file))
        assert code == 0
        assert envelope["command"] == "trace"
        report = envelope["result"]
        assert report["type"] == "TraceReport"
        summary = report["summary"]
        assert summary["events"] >= 2
        assert "workspace.query" in summary["spans"]
        assert "engine.evaluate" in summary["spans"]
        assert summary["cache"]["miss"] == 1

    def test_trace_tail_envelope(self, capsys, tmp_path):
        trace_file, _ = self.write_trace(capsys, tmp_path)
        code, envelope = run_cli(
            capsys, "trace", "--file", str(trace_file), "--tail", "1"
        )
        assert code == 0
        records = envelope["result"]["records"]
        assert len(records) == 1
        assert records[0]["name"] == "workspace.query"

    def test_trace_missing_file_fails_cleanly(self, capsys, tmp_path):
        code, envelope = run_cli(
            capsys, "trace", "--file", str(tmp_path / "nope.jsonl")
        )
        assert code == 1
        assert envelope["ok"] is False

    def test_trace_id_reconstructs_a_tree_across_files(self, capsys, tmp_path):
        # Two trace files of one trace, as a client/server pair would
        # produce: 'trace --id' joins them into one tree.
        first = tmp_path / "client.jsonl"
        second = tmp_path / "server.jsonl"
        first.write_text(
            json.dumps(
                {"name": "client.request", "span_id": 1, "parent_id": 0,
                 "depth": 0, "start": 0.0, "seconds": 1.0, "attrs": {},
                 "trace": "t-42", "span": "c1:1", "tenant": "acme"}
            )
            + "\n"
        )
        second.write_text(
            json.dumps(
                {"name": "server.request", "span_id": 1, "parent_id": 0,
                 "depth": 0, "start": 0.5, "seconds": 0.4, "attrs": {},
                 "trace": "t-42", "span": "s1:1", "parent": "c1:1"}
            )
            + "\n"
        )
        code, envelope = run_cli(
            capsys,
            "trace",
            "--file",
            str(first),
            "--file",
            str(second),
            "--id",
            "t-42",
        )
        assert code == 0
        tree = envelope["result"]["tree"]
        assert tree["trace_id"] == "t-42"
        assert tree["spans"] == 2
        assert tree["tenants"] == ["acme"]
        (root,) = tree["roots"]
        assert root["name"] == "client.request"
        assert [child["name"] for child in root["children"]] == ["server.request"]

    def test_trace_summary_merges_multiple_files(self, capsys, tmp_path):
        first_file, _ = self.write_trace(capsys, tmp_path)
        second_file = tmp_path / "second.jsonl"
        second_file.write_text(first_file.read_text())
        code, envelope = run_cli(
            capsys, "trace", "--file", str(first_file), "--file", str(second_file)
        )
        assert code == 0
        report = envelope["result"]
        assert report["files"] == [str(first_file), str(second_file)]
        single = run_cli(capsys, "trace", "--file", str(first_file))[1]
        assert (
            report["summary"]["events"]
            == 2 * single["result"]["summary"]["events"]
        )

    def test_trace_tail_rejects_multiple_files(self, capsys, tmp_path):
        trace_file, _ = self.write_trace(capsys, tmp_path)
        code, envelope = run_cli(
            capsys,
            "trace",
            "--file",
            str(trace_file),
            "--file",
            str(trace_file),
            "--tail",
            "1",
        )
        assert code == 1
        assert envelope["error"]["type"] == "ConfigError"

    def test_stats_summarizes_a_trace_file(self, capsys, tmp_path):
        trace_file, _ = self.write_trace(capsys, tmp_path)
        code, envelope = run_cli(
            capsys,
            "stats",
            "--figure",
            "geo",
            "--trace-file",
            str(trace_file),
        )
        assert code == 0
        trace_section = envelope["result"]["trace"]
        assert trace_section["cache"]["miss"] == 1
        assert trace_section["plan_cache"]["miss"] == 1


class TestSlowCommand:
    def write_slow_log(self, tmp_path):
        slow_file = tmp_path / "slow.jsonl"
        entries = [
            {"ts": 1.0, "tenant": "acme", "snapshot": "geo", "expr": "a.b",
             "semantics": "path", "elapsed": 1.5, "threshold": 1.0,
             "trace": "t-1"},
            {"ts": 2.0, "tenant": "rival", "snapshot": "geo", "expr": "a.b",
             "semantics": "path", "elapsed": 2.5, "threshold": 1.0,
             "trace": "t-2"},
            {"ts": 3.0, "tenant": "acme", "snapshot": "g0", "expr": "c*",
             "semantics": "path", "elapsed": 1.1, "threshold": 1.0,
             "trace": None},
        ]
        slow_file.write_text(
            "".join(json.dumps(entry) + "\n" for entry in entries)
        )
        return slow_file

    def test_slow_summary_envelope(self, capsys, tmp_path):
        slow_file = self.write_slow_log(tmp_path)
        code, envelope = run_cli(capsys, "slow", "--file", str(slow_file))
        assert code == 0
        assert envelope["command"] == "slow"
        report = envelope["result"]
        assert report["type"] == "SlowQueryReport"
        summary = report["summary"]
        assert summary["entries"] == 3
        assert summary["max_elapsed"] == pytest.approx(2.5)
        assert summary["slowest"]["tenant"] == "rival"
        assert summary["slowest"]["trace"] == "t-2"
        assert summary["tenants"] == {"acme": 2, "rival": 1}
        assert summary["top_expressions"][0] == {"expr": "a.b", "count": 2}

    def test_slow_tail_envelope(self, capsys, tmp_path):
        slow_file = self.write_slow_log(tmp_path)
        code, envelope = run_cli(
            capsys, "slow", "--file", str(slow_file), "--tail", "2"
        )
        assert code == 0
        entries = envelope["result"]["entries"]
        assert [entry["expr"] for entry in entries] == ["a.b", "c*"]

    def test_slow_missing_file_fails_cleanly(self, capsys, tmp_path):
        code, envelope = run_cli(capsys, "slow", "--file", str(tmp_path / "no.jsonl"))
        assert code == 1
        assert envelope["ok"] is False

    def test_stats_tenants_requires_remote(self, capsys):
        code, envelope = run_cli(capsys, "stats", "--figure", "geo", "--tenants")
        assert code == 1
        assert envelope["error"]["type"] == "ConfigError"


@pytest.mark.slow
class TestLargeInteractiveTrace:
    """Acceptance: a 10k-node interactive run emits a JSONL trace that
    ``repro trace`` summarizes and ``repro stats`` reports economics from."""

    def test_end_to_end(self, capsys, tmp_path):
        from repro.datasets.synthetic import scale_free_graph
        from repro.graphdb.io import save_graph

        graph = scale_free_graph(10_000, alphabet_size=6, seed=11)
        assert graph.node_count() == 10_000
        graph_file = tmp_path / "big.tsv"
        save_graph(graph, graph_file)
        labels = sorted(graph.labels())
        goal = f"{labels[0]}.{labels[1]}*"
        trace_file = tmp_path / "interactive.jsonl"

        code, envelope = run_cli(
            capsys,
            "interactive",
            "--graph",
            str(graph_file),
            "--goal",
            goal,
            "--max-interactions",
            "8",
            "--trace",
            str(trace_file),
        )
        assert code == 0
        assert trace_file.exists()

        code, envelope = run_cli(capsys, "trace", "--file", str(trace_file))
        assert code == 0
        summary = envelope["result"]["summary"]
        assert "interactive.session" in summary["spans"]
        assert "interactive.round" in summary["spans"]
        assert summary["spans"]["interactive.round"]["count"] >= 1

        code, envelope = run_cli(
            capsys,
            "stats",
            "--graph",
            str(graph_file),
            "--trace-file",
            str(trace_file),
        )
        assert code == 0
        trace_section = envelope["result"]["trace"]
        assert trace_section["cache"]["hit"] + trace_section["cache"]["miss"] >= 1
        assert 0.0 <= trace_section["cache"]["hit_rate"] <= 1.0


def test_explain_fingerprint_is_the_same_in_every_process():
    """The plan token is a content digest, not ``hash()``: two interpreters
    with different hash seeds print the same ``fingerprint`` for one plan."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    command = [sys.executable, "-m", "repro", "explain", "--figure", "geo"]
    command += ["--expr", "(tram+bus)*.cinema", "--indent", "0"]
    tokens = []
    for hash_seed in ("0", "1"):
        completed = subprocess.run(
            command,
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout)["result"]
        tokens.append((result["plan"]["fingerprint"], result["planner"]["fingerprint"]))
    assert tokens[0] == tokens[1]
    assert len(tokens[0][0]) == 12 and int(tokens[0][0], 16) >= 0
