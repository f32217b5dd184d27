"""The uniform Result protocol: JSON round-trips for every result type."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ExperimentConfig,
    InteractiveConfig,
    LearnerConfig,
    QueryResult,
    Result,
    Workspace,
    result_from_dict,
    result_from_json,
    result_to_json,
)
from repro.errors import ReproError, SerializationError
from repro.learning import BinarySample, NarySample, Sample
from repro.queries import BinaryPathQuery, PathQuery
from repro.queries.path_query import PARSE_CACHE, parse_cache_stats


@pytest.fixture
def geo_workspace():
    return Workspace.from_figure("geo")


def roundtrip(result):
    """to_dict -> JSON text -> from_dict, through the dispatching loader."""
    payload = json.loads(result_to_json(result))
    rebuilt = result_from_dict(payload)
    assert type(rebuilt) is type(result)
    return rebuilt


def assert_protocol(result):
    assert isinstance(result, Result)
    assert isinstance(result.ok, bool)
    assert isinstance(result.elapsed, float)
    assert isinstance(result.to_dict(), dict)
    assert result.to_dict()["type"] == type(result).__name__


def test_learner_result_roundtrip(geo_workspace):
    result = geo_workspace.learn(Sample(positives={"N2", "N6"}, negatives={"N5"}))
    assert_protocol(result)
    assert result.ok and result.elapsed > 0
    rebuilt = roundtrip(result)
    assert rebuilt == result
    assert rebuilt.query.expression == result.query.expression
    assert rebuilt.scps == result.scps


def test_binary_learner_result_roundtrip(geo_workspace):
    sample = BinarySample(positives={("N2", "N5")}, negatives={("N4", "N5")})
    result = geo_workspace.learn(sample, LearnerConfig(semantics="binary", k=2))
    assert_protocol(result)
    rebuilt = roundtrip(result)
    assert rebuilt == result
    assert rebuilt.scps == result.scps


def test_nary_learner_result_roundtrip(geo_workspace):
    sample = NarySample(positives={("N2", "N5", "N3")}, negatives={("N4", "N5", "R1")})
    result = geo_workspace.learn(sample, LearnerConfig(semantics="nary", k=2))
    assert_protocol(result)
    rebuilt = roundtrip(result)
    assert rebuilt == result
    assert rebuilt.is_null == result.is_null


def test_interactive_result_roundtrip(geo_workspace):
    result = geo_workspace.learn_interactive(
        "(tram+bus)*.cinema", InteractiveConfig(max_interactions=30)
    )
    assert_protocol(result)
    assert result.halted_by == "goal"
    rebuilt = roundtrip(result)
    assert rebuilt == result
    assert rebuilt.interaction_count == result.interaction_count
    assert rebuilt.sample == result.sample


def test_static_experiment_result_roundtrip(geo_workspace):
    result = geo_workspace.run_experiment(
        ExperimentConfig(goal="(tram+bus)*.cinema", labeled_fractions=(0.3, 0.6))
    )
    assert_protocol(result)
    assert result.ok and len(result.points) == 2
    rebuilt = roundtrip(result)
    assert rebuilt == result
    assert rebuilt.f1_series() == result.f1_series()


def test_interactive_experiment_result_roundtrip(geo_workspace):
    result = geo_workspace.run_experiment(
        ExperimentConfig(
            goal="(tram+bus)*.cinema", scenario="interactive", max_interactions=30
        )
    )
    assert_protocol(result)
    assert result.final_f1 == 1.0
    rebuilt = roundtrip(result)
    assert rebuilt == result


def test_query_result_roundtrip(geo_workspace):
    result = geo_workspace.query("(tram+bus)*.cinema")
    assert_protocol(result)
    assert result.nodes() == ["N1", "N2", "N4", "N6"]
    rebuilt = roundtrip(result)
    assert rebuilt.selected == result.selected
    binary = geo_workspace.query("tram", semantics="binary")
    rebuilt_binary = roundtrip(binary)
    assert rebuilt_binary.selected == binary.selected


def test_explain_result_roundtrip(geo_workspace):
    result = geo_workspace.explain("(tram+bus)*.cinema")
    assert_protocol(result)
    assert result.strategy in ("python", "numpy")
    rebuilt = roundtrip(result)
    assert rebuilt.to_dict() == result.to_dict()
    assert rebuilt.query.expression == result.query.expression
    assert rebuilt.rewrites == result.rewrites
    binary = geo_workspace.explain("tram", semantics="binary")
    rebuilt_binary = roundtrip(binary)
    assert rebuilt_binary.to_dict() == binary.to_dict()
    assert rebuilt_binary.semantics == "binary"


def test_result_from_json_dispatch(geo_workspace):
    result = geo_workspace.learn(Sample(positives={"N2"}, negatives={"C1"}))
    rebuilt = result_from_json(result_to_json(result))
    assert rebuilt == result


def test_unknown_type_tag_rejected():
    with pytest.raises(SerializationError):
        result_from_dict({"type": "NoSuchResult"})
    with pytest.raises(SerializationError):
        result_from_dict({"ok": True})
    with pytest.raises(SerializationError):
        result_from_json("not json at all {")


def test_malformed_payload_rejected():
    from repro.learning.learner import LearnerResult

    with pytest.raises(SerializationError):
        LearnerResult.from_dict({"type": "LearnerResult"})  # missing fields


# -- decoding a QueryResult compiles nothing ------------------------------------


def eager_decode(payload):
    """What ``QueryResult.from_dict`` did before it deferred: compile the
    query and build the node set at once."""
    binary = payload.get("semantics") == "binary"
    query = (BinaryPathQuery if binary else PathQuery).from_dict(payload["query"])
    listed = payload.get("selected", [])
    return QueryResult(
        query=query,
        semantics=payload.get("semantics", "path"),
        selected=frozenset((o, e) for o, e in listed) if binary else frozenset(listed),
        elapsed=payload.get("elapsed", 0.0),
        profile=payload.get("profile"),
    )


@pytest.mark.parametrize("semantics", ["path", "binary"])
def test_decoding_compiles_nothing_and_changes_nothing(geo_workspace, compilations, semantics):
    expression = "(tram+bus)*.cinema" if semantics == "path" else "tram.bus*"
    payload = json.loads(result_to_json(geo_workspace.query(expression, semantics=semantics)))
    PARSE_CACHE.clear()
    compilations.clear()
    misses = parse_cache_stats()["misses"]
    decoded = result_from_dict(payload)
    assert decoded.count == len(payload["selected"]) > 0
    assert decoded.nodes() and decoded.selected and repr(decoded)
    assert not compilations  # reading the answer compiles nothing either
    assert decoded.to_dict() == payload  # re-encoding reads the query ...
    assert len(compilations) == 1 and parse_cache_stats()["misses"] == misses + 1
    assert decoded.query.expression == expression  # ... which stays compiled
    eager = eager_decode(payload)
    assert len(compilations) == 1  # the eager decode hits the parse cache
    assert decoded.selected == eager.selected and decoded.count == eager.count
    assert decoded.nodes() == eager.nodes()
    assert decoded.to_dict() == eager.to_dict() == payload
    assert decoded == eager and hash(decoded) == hash(eager)
    assert result_from_dict(payload) == eager  # == compiles the query on its own


def test_a_decoded_result_does_not_alias_its_payload(geo_workspace):
    payload = geo_workspace.query("(tram+bus)*.cinema").to_dict()
    decoded = result_from_dict(payload)
    before = decoded.to_dict()
    payload["query"]["expression"] = "tram"
    payload["selected"].clear()
    assert decoded.to_dict() == before


@pytest.mark.parametrize(
    "semantics, key, value",
    [
        ("path", "query", 5),
        ("path", "query", ["(tram+bus)*.cinema"]),
        ("path", "query", {"alphabet": ["tram"]}),
        ("path", "query", {"expression": 5}),
        ("path", "query", None),
        ("path", "query", KeyError),  # no query entry at all
        ("path", "selected", 5),
        ("path", "selected", "N1"),
        ("path", "selected", [["N1"]]),  # a name that cannot be hashed
        ("binary", "selected", [5]),  # not a pair
        ("binary", "selected", [["N1"]]),
    ],
)
def test_a_malformed_query_result_is_rejected_at_decode(geo_workspace, semantics, key, value):
    payload = geo_workspace.query("tram", semantics=semantics).to_dict()
    if value is KeyError:
        del payload[key]
    else:
        payload[key] = value
    with pytest.raises(SerializationError):
        result_from_dict(payload)


@pytest.mark.parametrize("semantics", ["path", "binary"])
def test_a_bad_expression_fails_on_the_first_query_read(geo_workspace, semantics):
    payload = geo_workspace.query("tram", semantics=semantics).to_dict()
    payload["query"] = {"expression": "tram.(bus", "alphabet": payload["query"]["alphabet"]}
    kind = BinaryPathQuery if semantics == "binary" else PathQuery
    with pytest.raises(ReproError) as eager:
        kind.from_dict(payload["query"])
    decoded = result_from_dict(payload)
    assert "tram.(bus" in repr(decoded)
    with pytest.raises(type(eager.value)):
        decoded.query
