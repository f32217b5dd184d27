"""Learning path queries from examples (Section 3 of the paper).

This is the paper's primary contribution:

* :class:`~repro.learning.sample.Sample` -- positive/negative node examples;
* :mod:`repro.learning.consistency` -- the exact (Lemma 3.1) and bounded
  consistency checks;
* :mod:`repro.learning.scp` -- selection of the smallest consistent paths;
* :mod:`repro.learning.learner` -- Algorithm 1 (``learner``), with fixed and
  dynamic path-length bound ``k``;
* :mod:`repro.learning.rpni` -- the classical RPNI algorithm on words, used
  by the characteristic-sample theory and as a reference implementation;
* :mod:`repro.learning.characteristic` -- construction of characteristic
  word samples and characteristic graphs (Theorem 3.5);
* :mod:`repro.learning.binary_learner` / :mod:`repro.learning.nary_learner`
  -- Algorithms 2 and 3 for binary and n-ary semantics;
* :mod:`repro.learning.baselines` -- the no-generalization baseline
  (disjunction of SCPs) used by the ablation benchmarks.
"""

from repro.learning.sample import BinarySample, NarySample, Sample
from repro.learning.consistency import (
    bounded_consistent,
    is_consistent,
    sample_has_consistent_query,
)
from repro.learning.scp import select_smallest_consistent_paths
from repro.learning.learner import LearnerResult, learn_path_query, learn_with_dynamic_k
from repro.learning.rpni import rpni
from repro.learning.characteristic import (
    characteristic_graph,
    characteristic_word_sample,
)
from repro.learning.binary_learner import learn_binary_query
from repro.learning.nary_learner import learn_nary_query
from repro.learning.baselines import learn_scp_disjunction

__all__ = [
    "Sample",
    "BinarySample",
    "NarySample",
    "is_consistent",
    "bounded_consistent",
    "sample_has_consistent_query",
    "select_smallest_consistent_paths",
    "LearnerResult",
    "learn_path_query",
    "learn_with_dynamic_k",
    "rpni",
    "characteristic_word_sample",
    "characteristic_graph",
    "learn_binary_query",
    "learn_nary_query",
    "learn_scp_disjunction",
]
