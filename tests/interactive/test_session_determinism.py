"""Interactive sessions do not depend on the hash seed.

The session's one ``NegativeCoverage`` interns frontiers in the order they
are met, and the sets it is fed (negatives, carried SCP maps) iterate in
hash order; nothing a user can observe -- which node is proposed, what is
learned, how often the guard ran, how much kernel work proposing,
generalising and checking cost -- may follow from that order.

Algorithm 1's final check (``engine.selects`` per positive) stops at the
first unselected positive, so a failing attempt's cost depends on the order
the positives are walked in: index order, not set order.  The script books
``selects`` work on the side so the pin shows it was really exercised.
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
from repro.queries.path_query import PathQuery


class BookedEngine(QueryEngine):
    # Books the kernel work done inside ``selects`` on the side.
    selects_work = (0, 0)

    def work(self):
        return (self.stats.states_expanded, self.stats.edges_scanned)

    def selects(self, *args, **kwargs):
        before = self.work()
        try:
            return super().selects(*args, **kwargs)
        finally:
            spent = (b - a for a, b in zip(before, self.work()))
            self.selects_work = tuple(map(sum, zip(self.selects_work, spent)))


graph = scale_free_graph(400, alphabet_size=6, zipf_exponent=1.0, seed=11)
report = {{}}
for strategy in ("kR", "kS"):
    for goal_text in ("l00.l01*.l02", "(l00+l01).l02*.(l03+l04)"):
        engine = BookedEngine()
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
    assert any(cell["counters"]["count_queries"] for cell in outputs[0].values())
    assert any(cell["counters"]["full_learns"] > 1 for cell in outputs[0].values())
    # The final check did real work, beyond what proposing and the guard did.
    for cell in outputs[0].values():
        assert 0 < min(cell["selects_work"]) and cell["selects_work"][0] < cell["work"][0]
