"""Interactive learning from user interactions (Section 4 of the paper).

The interactive scenario (Figure 9) starts from an empty sample, repeatedly
picks a node according to a *strategy*, asks the user (here: a simulated
oracle) to label it, propagates the label, re-runs the learner, and stops
when a halt condition holds.

* :mod:`repro.interactive.informativeness` -- certain and informative
  nodes, exactly (Lemma 4.1);
* :mod:`repro.interactive.strategies` -- the paper's strategies ``kR``
  (random k-informative node) and ``kS`` (k-informative node with the fewest
  non-covered k-paths), plus a naive random baseline;
* :mod:`repro.interactive.oracle` -- simulated users that label nodes
  according to a goal query;
* :mod:`repro.interactive.scenario` -- the interactive loop itself, with the
  halt conditions used by the experiments;
* :mod:`repro.interactive.state` -- what a session carries across rounds:
  one :class:`~repro.learning.scp.NegativeCoverage` (the frontier automaton
  of ``paths_G(S-)``), the monotone verdict caches and the last hypothesis.
"""

from repro.interactive.informativeness import (
    certain_negative_nodes,
    certain_positive_nodes,
    is_certain,
    is_informative,
)
from repro.interactive.state import SessionState, k_informative_set
from repro.interactive.strategies import (
    KInformativeRandomStrategy,
    KInformativeSmallestStrategy,
    RandomStrategy,
    Strategy,
    make_strategy,
    strategy_from_dict,
)
from repro.interactive.oracle import Oracle, QueryOracle
from repro.interactive.scenario import (
    InteractiveCheckpoint,
    InteractiveResult,
    InteractiveSession,
)

__all__ = [
    "is_certain",
    "is_informative",
    "k_informative_set",
    "certain_positive_nodes",
    "certain_negative_nodes",
    "SessionState",
    "Strategy",
    "RandomStrategy",
    "KInformativeRandomStrategy",
    "KInformativeSmallestStrategy",
    "make_strategy",
    "strategy_from_dict",
    "Oracle",
    "QueryOracle",
    "InteractiveSession",
    "InteractiveCheckpoint",
    "InteractiveResult",
]
