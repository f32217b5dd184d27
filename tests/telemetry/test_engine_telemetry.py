"""Telemetry wired through the engine, workspace, learner and storage layers."""

from __future__ import annotations

import pytest

from repro.api import TelemetryConfig, Workspace
from repro.datasets import geo_graph
from repro.engine.engine import QueryEngine
from repro.errors import ConfigError
from repro.learning import Sample
from repro.queries import PathQuery
from repro.telemetry import Telemetry


def span_names(telemetry: Telemetry) -> list[str]:
    return [record["name"] for record in telemetry.events()]


class TestEngineSpans:
    def test_evaluate_emits_spans_with_cache_attribution(self):
        telemetry = Telemetry(enabled=True)
        engine = QueryEngine(telemetry=telemetry)
        graph = geo_graph()
        query = PathQuery.parse("bus.cinema", graph.alphabet)
        engine.evaluate(graph, query)
        engine.evaluate(graph, query)
        evaluates = [
            r for r in telemetry.events() if r["name"] == "engine.evaluate"
        ]
        assert len(evaluates) == 2
        cold, warm = evaluates
        assert cold["attrs"]["cache"] == "miss"
        assert cold["attrs"]["plan_cache"] == "miss"
        assert warm["attrs"]["cache"] == "hit"
        assert cold["attrs"]["index_version"] == graph.version
        assert "plan" in cold["attrs"]
        # The cold run also built the CSR index, under its own span.
        assert "engine.index_build" in span_names(telemetry)

    def test_evaluate_seconds_histogram_is_observed(self):
        telemetry = Telemetry(enabled=True)
        engine = QueryEngine(telemetry=telemetry)
        graph = geo_graph()
        engine.evaluate(graph, PathQuery.parse("tram", graph.alphabet))
        snap = telemetry.registry.snapshot()
        assert snap["engine_evaluate_seconds"]["count"] == 1

    def test_stats_counters_are_registry_backed(self):
        telemetry = Telemetry()
        engine = QueryEngine(telemetry=telemetry)
        graph = geo_graph()
        engine.evaluate(graph, PathQuery.parse("tram", graph.alphabet))
        snap = telemetry.registry.snapshot()
        assert snap["engine_evaluations_total"] == engine.stats.evaluations == 1
        assert snap["engine_index_builds_total"] == 1
        assert snap["engine_plan_cache_misses"] == 1


class TestDisabledModeIdentity:
    """With telemetry off the engine must behave byte-identically -- and the
    *observed* path must still compute the same answers."""

    EXPRESSIONS = ("tram*", "bus.cinema", "(tram+bus)*.cinema", "restaurant")

    def evaluate_all(self, engine: QueryEngine) -> list[frozenset]:
        graph = geo_graph()
        out = []
        for expr in self.EXPRESSIONS:
            query = PathQuery.parse(expr, graph.alphabet)
            out.append(engine.evaluate(graph, query))
            out.append(engine.evaluate(graph, query))  # warm, cache hit
        return out

    def test_observed_path_matches_fast_path(self):
        plain = self.evaluate_all(QueryEngine())
        traced = self.evaluate_all(
            QueryEngine(telemetry=Telemetry(enabled=True, profile=True))
        )
        assert plain == traced

    def test_disabled_engine_emits_nothing(self):
        engine = QueryEngine()
        self.evaluate_all(engine)
        assert engine.telemetry.active is False
        assert engine.telemetry.events() == []
        assert engine.take_profile() is None

    def test_stats_snapshot_matches_between_modes(self):
        plain = QueryEngine()
        traced = QueryEngine(telemetry=Telemetry(enabled=True, profile=True))
        self.evaluate_all(plain)
        self.evaluate_all(traced)
        assert plain.stats_snapshot() == traced.stats_snapshot()


class TestProfiles:
    def test_profile_splits_and_depths(self):
        engine = QueryEngine(telemetry=Telemetry(profile=True))
        graph = geo_graph()
        engine.evaluate(graph, PathQuery.parse("bus.cinema", graph.alphabet))
        profile = engine.take_profile()
        assert profile is not None
        assert profile["operation"] == "evaluate"
        assert profile["cache"] == "miss"
        assert profile["plan_cache"] == "miss"
        for key in ("compile_seconds", "index_seconds", "walk_seconds", "total_seconds"):
            assert profile[key] >= 0.0
        assert profile["total_seconds"] >= profile["walk_seconds"]
        assert profile["states_expanded"] > 0
        assert profile["edges_scanned"] > 0
        assert profile["depth_sizes"]
        assert all(n > 0 for n in profile["depth_sizes"])
        # take_profile pops: a second take returns nothing.
        assert engine.take_profile() is None

    def test_warm_profile_attributes_the_result_cache_hit(self):
        engine = QueryEngine(telemetry=Telemetry(profile=True))
        graph = geo_graph()
        query = PathQuery.parse("bus.cinema", graph.alphabet)
        engine.evaluate(graph, query)
        engine.take_profile()
        engine.evaluate(graph, query)
        profile = engine.take_profile()
        assert profile["cache"] == "hit"
        assert profile["walk_seconds"] == 0.0

    def test_workspace_query_attaches_profile(self):
        ws = Workspace(geo_graph(), telemetry_config=TelemetryConfig(profile=True))
        result = ws.query("bus.cinema")
        assert result.profile is not None
        assert result.profile["selected"] == result.count
        payload = result.to_dict()
        assert payload["profile"] == result.profile
        # Without profiling the key stays out of the payload entirely.
        plain = Workspace(geo_graph()).query("bus.cinema")
        assert plain.profile is None
        assert "profile" not in plain.to_dict()


class TestWorkspaceWiring:
    def test_conflicting_telemetry_arguments_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            Workspace(
                geo_graph(),
                telemetry=Telemetry(),
                telemetry_config=TelemetryConfig(),
            )
        with pytest.raises(ConfigError, match="already carries"):
            Workspace(geo_graph(), engine=QueryEngine(), telemetry=Telemetry())

    def test_workspace_spans_cover_query_and_learn(self):
        telemetry = Telemetry(enabled=True)
        ws = Workspace(geo_graph(), telemetry=telemetry)
        ws.query("tram*")
        ws.learn(Sample(positives={"N2", "N6"}, negatives={"N5"}))
        names = span_names(telemetry)
        assert "workspace.query" in names
        assert "learner.learn" in names
        assert "learner.generalize" in names
        learn = next(r for r in telemetry.events() if r["name"] == "learner.learn")
        assert learn["attrs"]["outcome"] in ("learned", "null")
        assert learn["attrs"]["pta_states"] >= 1
        # How often the merge guard ran, per attempt; the memo's counters are gone.
        merges = [r["attrs"] for r in telemetry.events() if r["name"] == "learner.generalize"]
        assert merges and all(m["guard_calls"] > 0 for m in merges)
        assert not any({"guard_memo_hits", "guard_walks"} & m.keys() for m in merges)

    def test_interactive_session_emits_round_spans(self):
        telemetry = Telemetry(enabled=True, profile=True)
        ws = Workspace(geo_graph(), telemetry=telemetry)
        result = ws.learn_interactive("(tram+bus)*.cinema")
        names = span_names(telemetry)
        assert "interactive.session" in names
        assert "interactive.round" in names
        session = next(
            r for r in telemetry.events() if r["name"] == "interactive.session"
        )
        assert session["attrs"]["interactions"] == result.interaction_count
        assert session["attrs"]["halted_by"] == result.halted_by
        # Profiling mode attaches a per-round breakdown to each interaction.
        assert result.interactions
        for interaction in result.interactions:
            assert interaction.profile is not None
            assert interaction.profile["oracle_seconds"] >= 0.0
            assert interaction.profile["learn_seconds"] >= 0.0
        # The session's guard gauge counts calls; the memo's gauges are gone.
        text = ws.metrics_text()
        assert "interactive_guard_calls " in text
        assert "interactive_guard_memo_hits" not in text and "interactive_guard_walks" not in text

    def test_metrics_text_renders_engine_counters(self):
        ws = Workspace(geo_graph())
        ws.query("tram")
        text = ws.metrics_text()
        assert "engine_evaluations_total 1" in text
        assert "engine_result_cache_misses 1" in text


class TestStorageSpans:
    def test_snapshot_round_trip_is_traced(self, tmp_path):
        telemetry = Telemetry(enabled=True)
        ws = Workspace(geo_graph(), telemetry=telemetry)
        path = tmp_path / "geo.rgz"
        ws.save_snapshot(path)
        names = span_names(telemetry)
        assert "storage.write_snapshot" in names
        write = next(
            r for r in telemetry.events() if r["name"] == "storage.write_snapshot"
        )
        assert write["attrs"]["nodes"] == 10
        assert write["attrs"]["bytes"] > 0
        snap = telemetry.registry.snapshot()
        assert snap["storage_snapshot_writes_total"] == 1
        assert snap["storage_snapshot_bytes_written_total"] > 0

        reopened = Workspace.open_snapshot(
            path, telemetry_config=TelemetryConfig(enabled=True)
        )
        names = span_names(reopened.telemetry)
        assert "storage.open_snapshot" in names
        assert reopened.telemetry.registry.snapshot()["storage_snapshot_opens_total"] == 1
        # The adopted prebuilt index is counted as an adoption, not a build.
        reopened.query("tram")
        stats = reopened.stats()
        assert stats["index_builds"] == 0
        assert stats["index_adoptions"] == 1

    def test_ingest_is_traced(self, tmp_path):
        from repro.storage.ingest import ingest_edge_list

        source = tmp_path / "edges.tsv"
        source.write_text("a\tl\tb\nb\tl\tc\n")
        telemetry = Telemetry(enabled=True)
        ingest_edge_list(source, telemetry=telemetry)
        record = next(
            r for r in telemetry.events() if r["name"] == "storage.ingest"
        )
        assert record["attrs"]["format"] == "edge-list"
        assert record["attrs"]["edges"] == 2
        snap = telemetry.registry.snapshot()
        assert snap["storage_ingest_runs_total"] == 1
        assert snap["storage_ingest_edges_total"] == 2
