"""The ``python -m repro`` CLI: envelopes, subcommands, error paths."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.cli import main
from repro.api.result import result_from_dict
from repro.datasets import geo_graph
from repro.graphdb.io import save_graph


def run_cli(capsys, *argv: str) -> tuple[int, dict]:
    code = main(list(argv))
    envelope = json.loads(capsys.readouterr().out)
    return code, envelope


def test_learn_on_figure_graph(capsys):
    code, envelope = run_cli(
        capsys, "learn", "--figure", "geo", "--positives", "N2,N6", "--negatives", "N5"
    )
    assert code == 0
    assert envelope["ok"] is True
    assert envelope["command"] == "learn"
    assert envelope["elapsed"] > 0
    assert envelope["result"]["type"] == "LearnerResult"
    assert envelope["engine_stats"]["graph_nodes"] == 10
    # The envelope's result payload feeds straight back into the library.
    rebuilt = result_from_dict(envelope["result"])
    assert rebuilt.ok
    assert rebuilt.query is not None


def test_learn_binary_semantics(capsys):
    code, envelope = run_cli(
        capsys,
        "learn",
        "--figure",
        "geo",
        "--semantics",
        "binary",
        "--positives",
        "N2:N5",
        "--negatives",
        "N4:N5",
    )
    assert code == 0
    assert envelope["result"]["type"] == "BinaryLearnerResult"


def test_learn_rejects_malformed_binary_pairs(capsys):
    code, envelope = run_cli(
        capsys, "learn", "--figure", "geo", "--semantics", "binary", "--positives", "N2"
    )
    assert code == 1
    assert envelope["ok"] is False
    assert envelope["error"]["type"] == "ConfigError"


def test_query_subcommand(capsys):
    code, envelope = run_cli(
        capsys, "query", "--figure", "geo", "--expr", "(tram+bus)*.cinema", "--indent", "0"
    )
    assert code == 0
    assert envelope["result"]["selected"] == ["N1", "N2", "N4", "N6"]


def test_explain_subcommand(capsys):
    code, envelope = run_cli(
        capsys, "explain", "--figure", "geo", "--expr", "(tram+bus)*.cinema"
    )
    assert code == 0
    result = envelope["result"]
    assert result["type"] == "ExplainResult"
    assert result["planner"]["mode"] == "auto"
    assert result["chosen"]["strategy"] in ("python", "numpy")
    assert set(result["inputs"]) == {"seeds", "scan_work", "first_layer"}
    assert result["cache"]["disposition"] == "miss"
    # Explaining never evaluates: the engine ran no kernel.
    assert envelope["engine_stats"]["evaluations"] == 0
    rebuilt = result_from_dict(result)
    assert rebuilt.ok


def test_explain_planner_off_and_cache_budget(capsys):
    code, envelope = run_cli(
        capsys,
        "explain",
        "--figure",
        "geo",
        "--expr",
        "bus.cinema",
        "--planner",
        "off",
        "--cache-budget",
        "65536",
    )
    assert code == 0
    result = envelope["result"]
    assert result["planner"]["mode"] == "off"
    assert result["planner"]["rewrites"] == []
    assert result["cache"]["result"]["budget_bytes"] == 65536


def test_query_planner_flag_answers_identically(capsys):
    argv = ["query", "--figure", "geo", "--expr", "(tram+bus)*.cinema"]
    _, on = run_cli(capsys, *argv)
    _, off = run_cli(capsys, *argv, "--planner", "off")
    assert on["result"]["selected"] == off["result"]["selected"]


def test_query_on_graph_file(tmp_path, capsys):
    path = tmp_path / "geo.json"
    save_graph(geo_graph(), path)
    code, envelope = run_cli(
        capsys, "query", "--graph", str(path), "--expr", "(tram+bus)*.cinema"
    )
    assert code == 0
    assert envelope["result"]["count"] == 4


def test_missing_graph_file_is_a_json_error(capsys):
    code, envelope = run_cli(capsys, "query", "--graph", "/no/such/file.tsv", "--expr", "a")
    assert code == 1
    assert envelope["ok"] is False


def test_experiment_static(capsys):
    code, envelope = run_cli(
        capsys,
        "experiment",
        "--figure",
        "geo",
        "--goal",
        "(tram+bus)*.cinema",
        "--fractions",
        "0.3,0.6",
    )
    assert code == 0
    assert envelope["result"]["type"] == "StaticExperimentResult"
    assert len(envelope["result"]["points"]) == 2


def test_experiment_interactive(capsys):
    code, envelope = run_cli(
        capsys,
        "experiment",
        "--figure",
        "geo",
        "--goal",
        "(tram+bus)*.cinema",
        "--scenario",
        "interactive",
        "--max-interactions",
        "30",
    )
    assert code == 0
    assert envelope["result"]["type"] == "InteractiveExperimentResult"
    assert envelope["result"]["final_f1"] == 1.0


def test_bench_reports_warm_speedup(capsys):
    code, envelope = run_cli(
        capsys,
        "bench",
        "--figure",
        "geo",
        "--expr",
        "(tram+bus)*.cinema",
        "--repeat",
        "20",
    )
    assert code == 0
    run = envelope["result"]["runs"][0]
    assert run["selected"] == 4
    assert envelope["engine_stats"]["result_cache_hits"] >= 1


def test_bench_repeat_one_reports_null_warm_timing(capsys):
    code, envelope = run_cli(
        capsys, "bench", "--figure", "geo", "--expr", "tram", "--repeat", "1"
    )
    assert code == 0
    assert envelope["result"]["runs"][0]["warm_seconds_per_eval"] is None


def test_abstention_is_not_a_failure(capsys):
    """A legitimate null answer executes fine: ok envelope, exit 0."""
    code, envelope = run_cli(
        capsys, "learn", "--figure", "geo", "--positives", "C1", "--negatives", "N1",
        "--fixed-k", "--k", "1",
    )
    assert code == 0
    assert envelope["ok"] is True
    assert envelope["result"]["ok"] is False  # the learner abstained
    assert "error" not in envelope


def test_syntax_error_envelope(capsys):
    code, envelope = run_cli(capsys, "query", "--figure", "geo", "--expr", "(((")
    assert code == 1
    assert envelope["error"]["type"] == "RegexSyntaxError"


@pytest.mark.parametrize(
    "expr", ["(" * 300 + "tram" + ")" * 300, "tram" + ".tram" * 1000], ids=["parentheses", "chain"]
)
def test_too_deep_an_expression_is_the_usual_error_envelope(capsys, expr):
    code, envelope = run_cli(capsys, "query", "--figure", "geo", "--expr", expr)
    assert code == 1
    assert envelope["ok"] is False
    assert envelope["error"]["type"] == "RegexSyntaxError"
    assert "nested too deeply" in envelope["error"]["message"]


@pytest.mark.parametrize("module_args", [["-m", "repro"]])
def test_python_dash_m_entry_point(module_args):
    """The acceptance path: python -m repro learn on a figure graph."""
    repo_src = Path(__file__).resolve().parents[2] / "src"
    process = subprocess.run(
        [
            sys.executable,
            *module_args,
            "learn",
            "--figure",
            "geo",
            "--positives",
            "N2,N6",
            "--negatives",
            "N5",
            "--indent",
            "0",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(repo_src)},
    )
    assert process.returncode == 0, process.stderr
    envelope = json.loads(process.stdout)
    assert envelope["ok"] is True
    assert envelope["result"]["type"] == "LearnerResult"


def test_interactive_runs_to_goal(capsys):
    code, envelope = run_cli(
        capsys,
        "interactive",
        "--figure",
        "geo",
        "--goal",
        "(tram+bus)*.cinema",
        "--strategy",
        "kR",
    )
    assert code == 0
    assert envelope["ok"] is True
    assert envelope["command"] == "interactive"
    assert envelope["result"]["type"] == "InteractiveResult"
    assert envelope["result"]["halted_by"] == "goal"
    rebuilt = result_from_dict(envelope["result"])
    assert rebuilt.ok


def test_interactive_checkpoint_resume(capsys, tmp_path):
    checkpoint = tmp_path / "session.json"
    code, first = run_cli(
        capsys,
        "interactive",
        "--figure",
        "geo",
        "--goal",
        "(tram+bus)*.cinema",
        "--max-interactions",
        "2",
        "--checkpoint",
        str(checkpoint),
    )
    assert code == 0
    assert first["result"]["halted_by"] == "max_interactions"
    payload = json.loads(checkpoint.read_text())
    assert payload["type"] == "InteractiveCheckpoint"
    assert len(payload["interactions"]) == 2
    # Second invocation resumes from the file and finishes the session.
    code, second = run_cli(
        capsys,
        "interactive",
        "--figure",
        "geo",
        "--goal",
        "(tram+bus)*.cinema",
        "--checkpoint",
        str(checkpoint),
    )
    assert code == 0
    assert second["result"]["halted_by"] == "goal"
    assert len(second["result"]["interactions"]) >= 2
    # The checkpoint file was updated in place with the finished session.
    updated = json.loads(checkpoint.read_text())
    assert len(updated["interactions"]) >= 2
