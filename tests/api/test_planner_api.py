"""The planner's public surface: config knobs, legacy shims, Workspace.explain."""

from __future__ import annotations

import pytest

from repro.api import (
    PLANNERS,
    EngineConfig,
    ExplainResult,
    ServiceConfig,
    Workspace,
)
from repro.errors import ConfigError, QueryError


class TestEngineConfigKnobs:
    def test_defaults_and_validation(self):
        config = EngineConfig()
        assert config.planner == "auto"
        assert config.cache_budget_bytes is None
        with pytest.raises(ConfigError):
            EngineConfig(planner="aggressive")
        with pytest.raises(TypeError):  # one round, no bound to set
            EngineConfig(max_rewrite_passes=3)
        with pytest.raises(ConfigError):
            EngineConfig(cache_budget_bytes=0)

    def test_json_roundtrip_carries_planner_fields(self):
        config = EngineConfig(planner="off", cache_budget_bytes=1 << 20)
        rebuilt = EngineConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.planner == "off"
        assert rebuilt.cache_budget_bytes == 1 << 20

    def test_build_threads_knobs_into_the_engine(self):
        engine = EngineConfig(planner="off", cache_budget_bytes=4096).build()
        assert engine.planner == "off"
        assert engine.result_cache.budget_bytes == 4096

    def test_planners_constant(self):
        assert PLANNERS == ("auto", "off")


class TestLegacyFieldShims:
    def test_old_names_are_unknown_fields(self):
        for old in ("planner_mode", "rewrite_passes", "cache_budget"):
            with pytest.raises(ConfigError):
                EngineConfig.from_dict({old: 1})

    def test_old_and_new_name_together_is_an_error(self):
        with pytest.raises(ConfigError):
            EngineConfig.from_dict({"planner_mode": "off", "planner": "auto"})

    def test_unknown_fields_still_rejected(self):
        with pytest.raises(ConfigError):
            EngineConfig.from_dict({"no_such_knob": 1})


class TestServiceConfigKnobs:
    def test_planner_fields_flow_into_engine_config(self):
        service = ServiceConfig(planner="off", cache_budget_bytes=2048)
        engine_config = service.engine_config()
        assert engine_config.planner == "off"
        assert engine_config.cache_budget_bytes == 2048
        assert service.share_caches is True

    def test_validation(self):
        with pytest.raises(ConfigError):
            ServiceConfig(planner="sometimes")
        with pytest.raises(ConfigError):
            ServiceConfig(cache_budget_bytes=-5)
        with pytest.raises(ConfigError):
            ServiceConfig(share_caches="yes")


class TestWorkspaceExplain:
    @pytest.fixture
    def geo(self):
        return Workspace.from_figure("geo")

    def test_explain_reports_a_plan_without_evaluating(self, geo):
        result = geo.explain("(tram+bus)*.cinema")
        assert isinstance(result, ExplainResult)
        assert result.ok
        assert result.semantics == "path"
        assert result.planner["mode"] == "auto"
        assert result.strategy in ("python", "numpy")
        assert result.chosen["pair_strategy"] in ("forward", "bidirectional")
        assert result.graph["nodes"] == 10
        assert geo.stats()["evaluations"] == 0

    def test_explain_prunes_labels_the_graph_lacks(self, geo):
        # The geo alphabet is declared by the graph, so force a wider one
        # through a query whose automaton the planner can only keep or shrink.
        result = geo.explain("bus.cinema")
        assert result.planner["parity"] in ("clean", "verified")
        assert result.plan["states"] >= 1

    def test_explain_binary_semantics(self, geo):
        result = geo.explain("bus.cinema", semantics="binary")
        assert result.semantics == "binary"
        assert set(result.inputs) == {"seeds", "scan_work", "first_layer", "chunks", "mask_bytes"}

    def test_cache_disposition_flips_after_a_query(self, geo):
        assert geo.explain("bus.cinema").cache["disposition"] == "miss"
        geo.query("bus.cinema")
        assert geo.explain("bus.cinema").cache["disposition"] == "hit"

    def test_explain_rejects_bad_inputs(self, geo):
        with pytest.raises(ConfigError):
            geo.explain("a", semantics="ternary")
        with pytest.raises(QueryError):
            geo.explain(42)

    def test_planner_off_workspace(self):
        ws = Workspace.from_figure("geo", engine_config=EngineConfig(planner="off"))
        result = ws.explain("bus.cinema")
        assert result.planner["mode"] == "off"
        assert result.rewrites == ()
        # Answers are identical either way; only the plan pipeline differs.
        on = Workspace.from_figure("geo")
        assert ws.query("bus.cinema").selected == on.query("bus.cinema").selected
