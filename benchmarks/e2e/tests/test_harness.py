"""Fast tests of the end-to-end benchmark harness (smoke profile only).

The long runs live in the non-``test_`` modules next door; what is pinned
here is the harness itself: its statistics and ladder arithmetic, that the
engine proxy changes nothing but the clock, ``agree.py``'s verdicts, and
that one command emits exactly the metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(E2E))

import agree  # noqa: E402 - needs the path line above
import e2e_common  # noqa: E402

SPEC = json.loads((e2e_common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- statistics and ladder arithmetic -------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert e2e_common.percentile(values, 0) == 1.0
    assert e2e_common.percentile(values, 100) == 4.0
    assert e2e_common.percentile(values, 50) == 2.5
    assert e2e_common.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        e2e_common.percentile([], 50)


def test_quartiles_and_spread_match_the_driver_rule():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.2]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert e2e_common.quartiles(values) == (q1, median, q3)
    assert e2e_common.spread_share(values) == pytest.approx((q3 - q1) / median)
    assert e2e_common.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_ladder_self_time_and_unattributed_share():
    # handle = parse + evaluate + to_dict + its own admission/batching time
    handle_self = e2e_common.self_time(4.0, (1.0, 0.5, 0.25))
    assert handle_self == 2.25
    # client = everything below + 0.5 that no rung covers
    selfs = (1.0, 0.5, 0.25, handle_self, 0.5)
    assert e2e_common.unattributed_share(5.0, selfs) == pytest.approx(0.1)
    assert e2e_common.unattributed_share(0.0, ()) == 0.0


def test_geometric_mean_and_slow_downs():
    assert e2e_common.geometric_mean([1.0, 100.0]) == pytest.approx(10.0)
    quiet = e2e_common.PROBE_REFERENCE_S
    # each interval's slow-down is the mean of the readings at its two ends
    assert e2e_common.slow_downs([quiet, quiet, 2 * quiet]) == pytest.approx([1.0, 1.5])
    assert e2e_common.slow_downs([quiet]) == []
    pace = e2e_common.Pace()
    assert pace.factor() > 0.0 and e2e_common.speed_probe() > 0.0


def test_serving_times_at_the_quiet_pace_leave_the_batch_window_unscaled():
    import e2e_serve

    quiet = e2e_common.PROBE_REFERENCE_S
    window = 0.002
    # two clients, two slices; the second slice ran on a box twice as slow
    out = [
        ([[0.005, 0.005], [0.008]], [(0.0, 1.0), (1.0, 2.0)], [], 0),
        ([[0.005], [0.008, 0.008]], [(0.0, 1.0), (1.0, 2.1)], [], 0),
    ]
    latencies, seconds = e2e_serve.at_quiet_pace(out, [quiet, quiet, 3 * quiet], window)
    assert latencies[:3] == pytest.approx([0.005] * 3)
    assert latencies[3:] == pytest.approx([0.002 + 0.006 / 2] * 3)
    asleep = window * 3 / 2
    assert seconds == pytest.approx(1.0 + asleep + (1.1 - asleep) / 2)


def test_tracer_records_parent_and_request():
    tracer = e2e_common.Tracer()
    with tracer.span("outer", request=7):
        with tracer.span("inner", request=7):
            pass
    with tracer.span("inner"):
        pass
    outer, inner, lone = tracer.spans
    assert (outer[0], outer[3], outer[4]) == ("outer", None, 7)
    assert (inner[0], inner[3], inner[4]) == ("inner", 0, 7)
    assert lone[3] is None
    assert len(tracer.durations("inner")) == 2
    assert outer[2] - outer[1] >= inner[2] - inner[1] >= 0.0


# -- the engine proxy -----------------------------------------------------------


def test_engine_proxy_changes_results_and_counters_by_nothing():
    from repro.api.workspace import Workspace
    from repro.datasets.synthetic import scale_free_graph
    from repro.evaluation.static import draw_sample
    from repro.learning.learner import learn_with_dynamic_k
    from repro.queries.path_query import PathQuery
    import random

    graph = scale_free_graph(300, alphabet_size=20, zipf_exponent=1.0, seed=29)
    goal = PathQuery.parse("(l00+l02).(l01+l03)*.(l01+l02+l04)", graph.alphabet)

    def learn(engine):
        sample = draw_sample(
            graph, goal, labeled_fraction=0.15, rng=random.Random(5), engine=engine
        )
        result = learn_with_dynamic_k(graph, sample, k_start=2, k_max=4, engine=engine)
        expression = None if result.is_null else result.query.expression
        return expression, result.k, dict(result.scps)

    plain = Workspace(graph).engine
    wrapped = Workspace(graph).engine
    proxy = e2e_common.EngineProxy(wrapped)
    assert learn(proxy) == learn(plain)
    assert wrapped.stats_snapshot() == plain.stats_snapshot()
    assert proxy.calls["any_selects"] > 0 and proxy.seconds["any_selects"] > 0.0
    assert proxy.busy() == pytest.approx(sum(proxy.seconds.values()))
    assert proxy.backend == wrapped.backend  # untimed attributes pass through


# -- agree.py -------------------------------------------------------------------


def _result_set(p50: float, spread: float = 0.01, numpy="2.0", digest="abc") -> dict:
    def entry(median: float) -> dict:
        half = median * spread / 2
        return {"median": median, "q1": median - half, "q3": median + half,
                "spread": spread, "values": [median], "unit": "x"}

    metrics = {metric["name"]: entry(100.0) for metric in SPEC["end_to_end"]}
    metrics["op_p50_ms"] = entry(p50)
    return {
        "fingerprint": {"numpy": numpy}, "profile": "default", "seconds": 15.0, "seed": 0,
        "workloads": {
            "serve-warm": {"correct": True, "exact": {"first_digest": digest},
                           "metrics": metrics}
        },
    }


def _counts(a: dict, b: dict) -> dict:
    return agree.compare(a, b, None, None, SPEC)[1]


def test_agree_accepts_a_difference_inside_the_bound():
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "op_p50_ms")
    counts = _counts(_result_set(100.0), _result_set(100.0 * (1 + bound * 0.9)))
    assert counts["disagree"] == 0 and counts["unresolved"] == 0 and counts["unequal"] == 0


def test_agree_is_symmetric_about_which_side_is_worse():
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "op_p50_ms")
    slow = _result_set(100.0 * (1 + bound * 1.5))
    assert _counts(_result_set(100.0), slow)["disagree"] == 1
    assert _counts(slow, _result_set(100.0))["disagree"] == 1


def test_agree_marks_a_noisy_metric_unresolved_and_exact_rows_unequal():
    noisy = _result_set(100.0, spread=0.9)
    counts = _counts(noisy, _result_set(300.0))
    assert counts["unresolved"] >= 1
    assert _counts(_result_set(100.0), _result_set(100.0, digest="xyz"))["unequal"] == 1


def test_agree_refuses_to_compare_across_numpy_presence():
    assert agree.comparable(_result_set(1.0), _result_set(1.0)) is None
    assert "numpy" in agree.comparable(_result_set(1.0), _result_set(1.0, numpy=None))


def test_agree_higher_is_better_direction():
    a = {"median": 100.0, "spread": 0.0}
    assert agree.verdict(a, {"median": 91.0, "spread": 0.0}, "higher", 0.10) == "agree"
    assert agree.verdict(a, {"median": 80.0, "spread": 0.0}, "higher", 0.10) == "disagree"


# -- the command, on the smoke profile --------------------------------------------


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--profile", "smoke", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=e2e_common.ROOT,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_results() -> dict:
    # Concurrently: the runs are tiny and only their outputs are checked, and
    # each serving run spends five idle seconds in its daemon's teardown.
    jobs = [(w["name"], trace) for w in SPEC["workloads"] for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        return dict(zip(jobs, pool.map(lambda job: _run(*job), jobs)))


def test_workloads_are_the_declared_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(e2e_common.WORKLOADS)
    for profile in ("default", "smoke"):
        assert set(e2e_common.load_profile(profile)) == set(e2e_common.WORKLOADS)


def test_smoke_runs_emit_exactly_the_declared_metrics(smoke_results):
    for (workload, trace), result in smoke_results.items():
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [m["name"] for m in declared], (workload, trace)
        for metric in declared:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["correct"] is True, (workload, trace)
        assert result["failed"] == 0 and result["attempted"] >= 1


def test_smoke_end_to_end_metrics_are_never_zero(smoke_results):
    for (workload, trace), result in smoke_results.items():
        if trace == 0:
            for name, entry in result["metrics"].items():
                assert entry["value"] > 0.0, (workload, name)


def test_smoke_cache_separation_holds(smoke_results):
    warm = smoke_results[("serve-warm", 1)]["metrics"]
    cold = smoke_results[("serve-cold", 1)]["metrics"]
    assert warm["engine.result_cache_hit_rate"]["value"] == 1.0
    assert cold["engine.result_cache_hit_rate"]["value"] == 0.0
    assert cold["engine.plan_compilations"]["value"] > 0.0
    # Layers a workload does not exercise read 0.
    assert smoke_results[("learn-static", 1)]["metrics"]["service.client_ms"]["value"] == 0.0
    assert warm["learning.learn_s"]["value"] == 0.0
