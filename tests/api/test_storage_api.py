"""The storage layer through the public API: workspace snapshots and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.api.cli import main
from repro.api.config import StorageConfig
from repro.api.workspace import Workspace
from repro.datasets import geo_graph
from repro.errors import ConfigError, GraphError, StorageError
from repro.graphdb.io import graph_to_edge_list


def run_cli(capsys, *argv: str) -> tuple[int, dict]:
    code = main(list(argv))
    envelope = json.loads(capsys.readouterr().out)
    return code, envelope


@pytest.fixture
def geo():
    return geo_graph()


@pytest.fixture
def geo_snapshot(geo, tmp_path):
    path = tmp_path / "geo.rgz"
    Workspace(geo).save_snapshot(path, meta={"name": "geo"})
    return path


class TestWorkspaceSnapshots:
    def test_save_then_open_round_trip(self, geo, geo_snapshot):
        ws = Workspace.open_snapshot(geo_snapshot)
        assert ws.name == "geo"
        original = Workspace(geo)
        for expr in ("(tram+bus)*.cinema", "restaurant"):
            assert ws.query(expr).selected == original.query(expr).selected

    def test_open_snapshot_does_not_rebuild(self, geo_snapshot):
        ws = Workspace.open_snapshot(geo_snapshot)
        ws.query("(tram+bus)*.cinema")
        stats = ws.stats()
        assert stats["index_builds"] == 0
        assert stats["graph_nodes"] == 10
        assert stats["graph_edges"] == 13

    def test_snapshot_workspace_graph_is_frozen(self, geo_snapshot):
        ws = Workspace.open_snapshot(geo_snapshot)
        with pytest.raises(GraphError, match="frozen"):
            ws.graph.add_edge("a", "l", "b")
        thawed = ws.graph.thaw()
        thawed.add_edge("N1", "bus", "new-stop")
        assert Workspace(thawed).query("bus").count >= 1

    def test_open_snapshot_via_catalog_name(self, geo, tmp_path):
        storage = StorageConfig(catalog_root=str(tmp_path / "cat"))
        storage.catalog().save("geo-city", geo)
        ws = Workspace.open_snapshot("geo-city", storage=storage)
        assert ws.query("(tram+bus)*.cinema").count == 4

    def test_open_snapshot_missing(self, tmp_path):
        with pytest.raises(StorageError):
            Workspace.open_snapshot(
                "never-registered",
                storage=StorageConfig(catalog_root=str(tmp_path / "empty")),
            )

    def test_declared_alphabet_survives_round_trip(self, tmp_path):
        # A fixed alphabet constrains which queries *parse*; it must not be
        # silently narrowed to the labels that happen to have edges.
        from repro.graphdb import GraphDB

        graph = GraphDB(["a", "b", "c"])
        graph.add_edge("x", "a", "y")
        path = tmp_path / "fixed.rgz"
        Workspace(graph).save_snapshot(path)
        ws = Workspace.open_snapshot(path)
        assert sorted(ws.graph.alphabet) == ["a", "b", "c"]
        assert ws.query("b*").count == ws.graph.node_count()  # parses; eps matches all
        thawed = ws.graph.thaw()
        assert thawed.has_fixed_alphabet
        assert sorted(thawed.alphabet) == ["a", "b", "c"]

    def test_missing_file_path_is_not_a_catalog_lookup(self, tmp_path):
        # A typo'd *path* must fail as a missing file, not fall back to the
        # default catalog (and must not create catalog directories).
        import os

        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            with pytest.raises(StorageError, match="does not exist"):
                Workspace.open_snapshot(tmp_path / "typo.rgz")
            with pytest.raises(StorageError, match="does not exist"):
                Workspace.open_snapshot("sub/typo.rgz")
            assert not (tmp_path / ".repro").exists()
        finally:
            os.chdir(cwd)

    def test_save_snapshot_meta_defaults(self, geo, tmp_path):
        from repro.storage import snapshot_info

        ws = Workspace(geo, name="metro")
        info = ws.save_snapshot(tmp_path / "m.rgz")
        assert info["meta"]["workspace"] == "metro"
        assert snapshot_info(tmp_path / "m.rgz")["nodes"] == 10

    def test_learn_on_snapshot_workspace(self, geo, geo_snapshot):
        from repro.learning.sample import Sample

        ws = Workspace.open_snapshot(geo_snapshot)
        result = ws.learn(Sample(positives={"N2", "N6"}, negatives={"N5"}))
        reference = Workspace(geo).learn(Sample(positives={"N2", "N6"}, negatives={"N5"}))
        assert result.ok and reference.ok
        assert result.query.expression == reference.query.expression


class TestStorageConfig:
    def test_round_trip(self):
        config = StorageConfig(verify_checksum=True, use_mmap=False, catalog_root="/tmp/x")
        assert StorageConfig.from_dict(config.to_dict()) == config

    def test_validation(self):
        with pytest.raises(ConfigError):
            StorageConfig(verify_checksum="yes")
        with pytest.raises(ConfigError):
            StorageConfig(use_mmap=1)
        with pytest.raises(ConfigError):
            StorageConfig(catalog_root=7)

    def test_engine_config_refresh_fields(self):
        from repro.api.config import EngineConfig

        # Refresh is unconditional and its ratio a constant of engine/index.py:
        # the two fields are refused, not ignored.
        for name in ("incremental_refresh", "refresh_ratio"):
            with pytest.raises(ConfigError):
                EngineConfig.from_dict({name: 0.5})
        ws = Workspace(geo_graph())
        ws.query("tram")
        ws.graph.add_edge("N1", "tram", "N5")
        ws.query("tram")
        assert (ws.stats()["index_builds"], ws.stats()["index_refreshes"]) == (1, 1)


class TestCli:
    def test_ingest_and_query_snapshot(self, capsys, geo, tmp_path):
        source = tmp_path / "geo.tsv"
        source.write_text(graph_to_edge_list(geo), encoding="utf-8")
        snap = tmp_path / "geo.rgz"
        code, envelope = run_cli(capsys, "ingest", "--input", str(source), "--output", str(snap))
        assert code == 0
        assert envelope["result"]["report"]["edges_added"] == 13
        assert envelope["result"]["snapshot"]["nodes"] == 10

        code, envelope = run_cli(
            capsys, "query", "--snapshot", str(snap), "--expr", "(tram+bus)*.cinema"
        )
        assert code == 0
        assert sorted(envelope["result"]["selected"]) == ["N1", "N2", "N4", "N6"]
        assert envelope["engine_stats"]["index_builds"] == 0

    def test_ingest_into_catalog_and_info(self, capsys, geo, tmp_path):
        source = tmp_path / "geo.tsv"
        source.write_text(graph_to_edge_list(geo), encoding="utf-8")
        catalog_dir = tmp_path / "cat"
        code, envelope = run_cli(
            capsys,
            "ingest",
            "--input",
            str(source),
            "--catalog",
            str(catalog_dir),
            "--name",
            "geo",
        )
        assert code == 0
        assert envelope["result"]["catalog"]["name"] == "geo"

        code, envelope = run_cli(capsys, "info", "--catalog", str(catalog_dir))
        assert code == 0
        assert "geo" in envelope["result"]["catalog"]["snapshots"]

        code, envelope = run_cli(capsys, "info", "--catalog", str(catalog_dir), "--name", "geo")
        assert code == 0
        assert envelope["result"]["snapshot"]["edges"] == 13

    def test_info_on_snapshot_file(self, capsys, geo_snapshot):
        code, envelope = run_cli(capsys, "info", "--snapshot", str(geo_snapshot))
        assert code == 0
        info = envelope["result"]["snapshot"]
        assert info["nodes"] == 10 and info["format_version"] == 1

    def test_ingest_requires_destination(self, capsys, tmp_path):
        source = tmp_path / "x.tsv"
        source.write_text("a\tl\tb\n")
        code, envelope = run_cli(capsys, "ingest", "--input", str(source))
        assert code == 1
        assert "output" in envelope["error"]["message"]

    def test_ingest_skip_policy(self, capsys, tmp_path):
        source = tmp_path / "x.tsv"
        source.write_text("a\tl\tb\nbroken-line\nc\tl\td\n")
        code, envelope = run_cli(
            capsys,
            "ingest",
            "--input",
            str(source),
            "--output",
            str(tmp_path / "x.rgz"),
            "--on-error",
            "skip",
        )
        assert code == 0
        assert envelope["result"]["report"]["malformed_lines"] == 1
        assert envelope["result"]["report"]["edges_added"] == 2

    def test_corrupt_checkpoint_file_yields_error_envelope(self, capsys, tmp_path):
        # Regression: an unparseable --checkpoint file used to escape as a
        # raw JSONDecodeError traceback instead of a JSON error envelope.
        checkpoint = tmp_path / "ck.json"
        checkpoint.write_text('{"broken')
        code, envelope = run_cli(
            capsys,
            "interactive",
            "--figure",
            "geo",
            "--goal",
            "(tram+bus)*.cinema",
            "--checkpoint",
            str(checkpoint),
        )
        assert code == 1
        assert envelope["error"]["type"] == "SerializationError"

    def test_info_on_garbage_file(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.rgz"
        bogus.write_bytes(b"definitely not a snapshot")
        code, envelope = run_cli(capsys, "info", "--snapshot", str(bogus))
        assert code == 1
        assert envelope["error"]["type"] == "StorageError"
