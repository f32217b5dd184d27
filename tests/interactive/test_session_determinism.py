"""Interactive sessions do not depend on the hash seed.

The session's one ``NegativeCoverage`` interns frontiers in the order they
are met, and the sets it is fed (negatives, carried SCP maps) iterate in
hash order; nothing a user can observe -- which node is proposed, what is
learned, how often the guard ran, how much kernel work proposing,
generalising and checking cost -- may follow from that order.

Algorithm 1's final check (``engine.selects`` per positive without an SCP;
one with an SCP is selected by construction) stops at the first unselected
positive, so a failing attempt's cost depends on the order the positives are
walked in: index order, not set order.  The script books ``selects`` work on
the side, and per learner call the walks against the SCP-less positives, so
the pin shows exactly what the check walked and that it was exercised.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_SESSION_SCRIPT = """
import json, sys
sys.path[:0] = {paths!r}
from repro.datasets.synthetic import scale_free_graph
from repro.engine import QueryEngine
from repro.interactive import InteractiveSession, QueryOracle, make_strategy
from repro.interactive import state as state_module
from repro.queries.path_query import PathQuery


class BookedEngine(QueryEngine):
    # Books the kernel work done inside ``selects`` on the side.
    selects_work = (0, 0)
    selects_calls = 0

    def work(self):
        return (self.stats.states_expanded, self.stats.edges_scanned)

    def selects(self, *args, **kwargs):
        self.selects_calls += 1
        before = self.work()
        try:
            return super().selects(*args, **kwargs)
        finally:
            spent = (b - a for a, b in zip(before, self.work()))
            self.selects_work = tuple(map(sum, zip(self.selects_work, spent)))


plain_learn = state_module.learn_path_query
checks = []  # per learner call: (final-check walks, SCP-less positives, passed)


def booked_learn(graph, sample, *, engine, **kwargs):
    calls = engine.selects_calls
    result = plain_learn(graph, sample, engine=engine, **kwargs)
    if result.scps:  # no SCP, no hypothesis: line 6 does not run
        checks.append(
            (engine.selects_calls - calls, len(result.positives_without_scp),
             result.selects_all_positives)
        )
    return result


state_module.learn_path_query = booked_learn
graph = scale_free_graph(400, alphabet_size=6, zipf_exponent=1.0, seed=11)
report = {{}}
for strategy in ("kR", "kS"):
    for goal_text in ("l00.l01*.l02", "(l00+l01).l02*.(l03+l04)"):
        engine = BookedEngine()
        checks = []
        session = InteractiveSession(
            graph,
            QueryOracle(PathQuery.parse(goal_text, graph.alphabet), engine=engine),
            make_strategy(strategy, seed=3, pool_size=48),
            k_start=2,
            k_max=4,
            max_interactions=40,
            engine=engine,
            incremental=True,
        )
        result = session.run()
        report[strategy + " " + goal_text] = {{
            "transcript": [[i.node, i.label, i.k, i.learned_expression] for i in result.interactions],
            "halted_by": result.halted_by,
            "counters": session.state.counters,
            "work": engine.work(),
            "selects_work": engine.selects_work,
            "checks": checks,
        }}
print(json.dumps(report))
"""


def test_sessions_are_deterministic_under_pythonhashseed():
    paths = [str(Path(__file__).resolve().parents[2] / "src")]
    outputs = []
    for hash_seed in ("0", "1"):
        completed = subprocess.run(
            [sys.executable, "-c", _SESSION_SCRIPT.format(paths=paths)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append(json.loads(completed.stdout))
    assert outputs[0] == outputs[1]
    for cell in outputs[0].values():
        # The sessions really exercised the shared structures.
        assert len(cell["transcript"]) > 5 and min(cell["work"]) > 0
        assert {"+", "-"} <= {label for _node, label, _k, _expr in cell["transcript"]}
    # A kS candidate's one uncovered-path count is also its verdict: kS walks
    # no node, and kR, which walks them, counts nothing.
    for name, cell in outputs[0].items():
        counters = cell["counters"]
        if name.startswith("kS"):
            assert counters["node_walks"] == 0 < counters["count_queries"]
        else:
            assert counters["count_queries"] == 0 < counters["node_walks"]
    assert any(cell["counters"]["full_learns"] > 1 for cell in outputs[0].values())
    # The final check walks exactly the positives without an SCP, in index
    # order up to the first one the hypothesis misses: all of them when it
    # passes, at least one when it fails.
    for cell in outputs[0].values():
        assert cell["checks"]
        for walks, scp_less, passed in cell["checks"]:
            assert walks == scp_less if passed else 1 <= walks <= scp_less
    # Some cell's check really walked, with work beyond proposing and the guard.
    assert any(
        sum(walks for walks, _, _ in cell["checks"]) > 0
        and 0 < min(cell["selects_work"])
        and cell["selects_work"][0] < cell["work"][0]
        for cell in outputs[0].values()
    )
