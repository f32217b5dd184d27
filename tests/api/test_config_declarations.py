"""Every knob is declared once, in ``repro.api.config``; the rest is derived.

These tests iterate ``dataclasses.fields`` -- never a hand-kept list -- so a
new field is covered the day it is declared: it must carry a check and a
doc, its CLI flag (if any) must take its default from the declaration, and
the ``to_dict``/``from_dict``, ``build()`` and ``engine_config()`` chains
must carry it without naming it.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.api import config as cfg
from repro.api.cli import COMMANDS, _build_parser, _config_from_args
from repro.engine import QueryEngine
from repro.errors import ConfigError

CONFIGS = (
    cfg.EngineConfig,
    cfg.TelemetryConfig,
    cfg.StorageConfig,
    cfg.ServiceConfig,
    cfg.LearnerConfig,
    cfg.InteractiveConfig,
    cfg.ExperimentConfig,
)


def test_61_fields_each_with_a_check_and_a_doc():
    count = 0
    for config_cls in CONFIGS:
        for spec in fields(config_cls):
            knob = spec.metadata["knob"]
            assert isinstance(knob.check, cfg.Check), (config_cls.__name__, spec.name)
            assert knob.doc and "\n" not in knob.doc, (config_cls.__name__, spec.name)
            assert knob.check.accepts(spec.default), (config_cls.__name__, spec.name)
            count += 1
    assert count == 61


def test_check_lists_are_built_once_per_class():
    for config_cls in CONFIGS:
        assert [name for name, _accepts, _expected in config_cls._checks] == [
            spec.name for spec in fields(config_cls)
        ]
        assert config_cls()._checks is config_cls._checks


@pytest.mark.parametrize("config_cls", CONFIGS, ids=lambda cls: cls.__name__)
def test_to_dict_from_dict_round_trip(config_cls):
    default = config_cls()
    payload = json.loads(json.dumps(default.to_dict()))
    assert sorted(payload) == sorted(spec.name for spec in fields(config_cls))
    assert config_cls.from_dict(payload) == default
    with pytest.raises(ConfigError):
        config_cls.from_dict({**payload, "no_such_field": 1})
    with pytest.raises(ConfigError):
        config_cls.from_dict([payload])


def test_round_trip_of_non_default_values():
    service = cfg.ServiceConfig(
        snapshots=("geo", "g0"), batch_window=0, cache_budget_bytes=4096, share_caches=False
    )
    assert cfg.ServiceConfig.from_dict(json.loads(json.dumps(service.to_dict()))) == service
    experiment = cfg.ExperimentConfig(goal="a.b", labeled_fractions=(0.1, 1), strategy="kS")
    assert cfg.ExperimentConfig.from_dict(experiment.to_dict()) == experiment


def test_engine_config_carries_every_shared_field():
    shared = {spec.name for spec in fields(cfg.EngineConfig)} & {
        spec.name for spec in fields(cfg.ServiceConfig)
    }
    assert len(shared) == 5
    # Give every shared field a non-default value its own check accepts.
    changed = {}
    for spec in fields(cfg.ServiceConfig):
        if spec.name not in shared:
            continue
        check = spec.metadata["knob"].check
        if check.choices:
            changed[spec.name] = next(c for c in check.choices if c != spec.default)
        else:
            changed[spec.name] = (spec.default or 1000) + 1
    engine_config = cfg.ServiceConfig(**changed).engine_config()
    for name, value in changed.items():
        assert getattr(engine_config, name) == value, name
    # ... and the fields ServiceConfig lacks keep EngineConfig's defaults.
    for spec in fields(cfg.EngineConfig):
        if spec.name not in shared:
            assert getattr(engine_config, spec.name) == spec.default


def test_engine_build_hands_every_field_to_the_engine():
    engine = cfg.EngineConfig(
        plan_cache_size=7,
        result_cache_size=9,
        planner="off",
        cache_budget_bytes=2048,
    ).build()
    assert engine.plan_cache.capacity == 7 and engine.result_cache.capacity == 9
    assert engine.planner == "off" and engine.result_cache.budget_bytes == 2048


def test_telemetry_build_enables_tracing_from_a_path_alone(tmp_path):
    telemetry = cfg.TelemetryConfig(trace_path=str(tmp_path / "t.jsonl"), profile=True).build()
    try:
        assert telemetry.enabled and telemetry.profiling
    finally:
        telemetry.close()
    assert not cfg.TelemetryConfig().build().active


def test_shared_declarations_are_one_object():
    def knob_of(config_cls, name):
        return config_cls.__dataclass_fields__[name].metadata["knob"]

    for name in ("backend", "planner", "cache_budget_bytes"):
        assert knob_of(cfg.ServiceConfig, name) == knob_of(cfg.EngineConfig, name)
    for name in ("strategy", "seed", "k_start", "target_f1"):
        assert knob_of(cfg.ExperimentConfig, name) == knob_of(cfg.InteractiveConfig, name)


def test_the_shard_pool_knobs_are_gone_not_ignored():
    for config_cls in (cfg.EngineConfig, cfg.ServiceConfig):
        for name in ("workers", "min_shard_edges"):
            assert name not in config_cls.__dataclass_fields__
            with pytest.raises(ConfigError, match="unknown .* fields"):
                config_cls.from_dict({name: 2})
            with pytest.raises(TypeError, match="unexpected keyword"):
                config_cls(**{name: 2})
    with pytest.raises(SystemExit) as usage:
        _build_parser().parse_args(["query", "--figure", "geo", "--expr", "a", "--workers", "2"])
    assert usage.value.code == 2


def test_the_knobs_with_one_distinguishable_value_are_gone_not_ignored():
    # PR 23: one rewrite round (max_passes 1, 2, 3, 10 gave one table on
    # 3,000 of 3,000 inputs) and an unconditional refresh (2.3x-51x a rebuild).
    for name in ("max_rewrite_passes", "incremental_refresh", "refresh_ratio"):
        assert name not in cfg.EngineConfig.__dataclass_fields__
        with pytest.raises(ConfigError, match="unknown .* fields"):
            cfg.EngineConfig.from_dict({name: 1})
        with pytest.raises(TypeError, match="unexpected keyword"):
            cfg.EngineConfig(**{name: 1})
        with pytest.raises(TypeError, match="unexpected keyword"):
            QueryEngine(**{name: 1})


# -- the CLI is derived from the declarations -----------------------------------


def _subparser(name):
    (subparsers,) = (a for a in _build_parser()._actions if hasattr(a, "choices") and a.choices)
    return subparsers.choices[name]


def _flag_default(spec):
    knob = spec.metadata["knob"]
    if knob.check.kind is bool:
        return False
    if knob.check.many or spec.default is None:
        return None
    return spec.default * knob.per_unit


def test_every_config_backed_flag_takes_its_default_from_the_field():
    seen = 0
    for name, command in COMMANDS.items():
        configs = command.configs
        if command.graph:
            configs = (cfg.EngineConfig, cfg.TelemetryConfig, *configs)
        actions = {a.dest: a for a in _subparser(name)._actions}
        for config_cls in configs:
            for spec in fields(config_cls):
                knob = spec.metadata["knob"]
                if knob.flag is None:
                    continue
                action = actions[spec.name]
                assert action.option_strings == [knob.flag.split()[0]], (name, spec.name)
                assert action.default == _flag_default(spec), (name, spec.name)
                if knob.check.choices:
                    assert tuple(action.choices) == knob.check.choices, (name, spec.name)
                seen += 1
    assert seen == 89  # 7 graph commands x 7 engine/telemetry flags, plus the rest


def test_parsing_no_flags_rebuilds_the_default_configs():
    parser = _build_parser()
    args = parser.parse_args(["serve"])
    assert _config_from_args(cfg.ServiceConfig, args) == cfg.ServiceConfig()
    args = parser.parse_args(["interactive", "--figure", "geo", "--goal", "a"])
    assert _config_from_args(cfg.InteractiveConfig, args) == cfg.InteractiveConfig()
    assert _config_from_args(cfg.EngineConfig, args) == cfg.EngineConfig()
    assert _config_from_args(cfg.TelemetryConfig, args) == cfg.TelemetryConfig()
    args = parser.parse_args(["experiment", "--figure", "geo", "--goal", "a"])
    experiment = _config_from_args(cfg.ExperimentConfig, args, goal=args.goal)
    assert experiment == cfg.ExperimentConfig(goal="a")
    args = parser.parse_args(["learn", "--figure", "geo", "--positives", "N1"])
    assert _config_from_args(cfg.LearnerConfig, args) == cfg.LearnerConfig()


def test_flags_convert_units_switches_and_lists():
    argv = "serve --batch-window-ms 5 --slow-query-ms 250 --no-share-caches --snapshots geo,g0"
    argv += " --allow-remote-shutdown --cache-budget 4096 --catalog CAT --metrics-file m.prom"
    args = _build_parser().parse_args([*argv.split(), "--trace", "t.jsonl"])
    config = _config_from_args(cfg.ServiceConfig, args)
    assert config.batch_window == 0.005 and config.slow_query_seconds == 0.25
    assert config.share_caches is False and config.allow_remote_shutdown is True
    assert config.snapshots == ("geo", "g0") and config.cache_budget_bytes == 4096
    assert config.catalog_root == "CAT" and config.metrics_path == "m.prom"
    assert config.trace_path == "t.jsonl"
    args = _build_parser().parse_args(
        ["learn", "--figure", "geo", "--positives", "N1", "--fixed-k", "--no-generalize"]
    )
    learner = _config_from_args(cfg.LearnerConfig, args)
    assert learner.dynamic_k is False and learner.generalize is False


# -- one wrong-type and one out-of-range rejection per predicate -----------------

PREDICATES = [
    # (check, an accepted value, a wrong-typed value, an out-of-range value or None)
    (cfg.INT, -3, "3", None),
    (cfg.POSITIVE_INT, 1, 1.0, 0),
    (cfg.NON_NEGATIVE_INT, 0, "0", -1),
    (cfg.int_at_least(1024), 1024, None, 1023),
    (cfg.PORT, 65535, "80", 65536),
    (cfg.NON_NEGATIVE_NUMBER, 0, "0.5", -0.1),
    (cfg.POSITIVE_NUMBER, 0.5, None, 0),
    (cfg.FRACTION, 1, "1", 0.0),
    (cfg.BOOL, False, 0, None),
    (cfg.TEXT, "", 7, None),
    (cfg.NAME, "geo", 7, ""),
    (cfg.one_of(("a", "b")), "b", 1, "c"),
    (cfg.optional(cfg.POSITIVE_INT), None, "x", 0),
    (cfg.OPTIONAL_PATH, None, 3, None),
    (cfg.tuple_of(cfg.NAME, "names"), (), ["geo"], ("",)),
    (cfg.tuple_of(cfg.FRACTION, "fractions", non_empty=True), (0.5,), 0.5, ()),
]


@pytest.mark.parametrize(
    "check, good, wrong_type, out_of_range", PREDICATES, ids=lambda v: getattr(v, "expected", None)
)
def test_predicate_accepts_and_rejects(check, good, wrong_type, out_of_range):
    assert check.accepts(good)
    assert not check.accepts(wrong_type)
    if out_of_range is not None:
        assert not check.accepts(out_of_range)
    if check.kind in (int, float):
        # bool is an int to Python, but never a count, a port or a number here.
        assert not check.accepts(True)
        assert not check.accepts(float("nan"))


@pytest.mark.parametrize(
    "build",
    [
        lambda: cfg.InteractiveConfig(max_interactions="x"),
        lambda: cfg.InteractiveConfig(neighborhood_radius=1.5),
        lambda: cfg.InteractiveConfig(pool_size="512"),
        lambda: cfg.InteractiveConfig(target_f1="1.0"),
        lambda: cfg.InteractiveConfig(seed=None),
        lambda: cfg.LearnerConfig(dynamic_k="yes"),
        lambda: cfg.LearnerConfig(generalize=0),
        lambda: cfg.LearnerConfig(k=True),
        lambda: cfg.ExperimentConfig(labeled_fractions=("0.1",)),
        lambda: cfg.ExperimentConfig(use_generalization=None),
        lambda: cfg.EngineConfig(backend=["numpy"]),
        lambda: cfg.ServiceConfig(snapshots="geo"),
    ],
)
def test_wrong_types_raise_config_error_never_type_error(build):
    with pytest.raises(ConfigError, match="must be"):
        build()


def test_cross_field_rules_survive():
    with pytest.raises(ConfigError, match="need k <= k_max"):
        cfg.LearnerConfig(k=5, k_max=2)
    with pytest.raises(ConfigError, match="need k_start <= k_max"):
        cfg.InteractiveConfig(k_start=7)
    with pytest.raises(ConfigError, match="need k_start <= k_max"):
        cfg.ExperimentConfig(k_start=5)
    with pytest.raises(ConfigError, match="only exists for the"):
        cfg.LearnerConfig(semantics="binary", generalize=False)
