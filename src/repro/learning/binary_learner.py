"""Algorithm 2: learning path queries under the binary semantics.

The only change with respect to Algorithm 1 is the space of candidate paths
per example: a positive example is now a *pair* of nodes, so the paths to
consider are the words of ``paths2_G(nu, nu')`` (the destination node is
fixed), and negative coverage is checked against the paths between the
negative pairs.  Both run on the engine's CSR index: the SCPs are
:meth:`~repro.learning.scp.NegativeCoverage.smallest_uncovered_pair_path`
searches sharing one frontier memo, and the merge guard and final check are
the engine's pair walks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.automata.alphabet import Word
from repro.automata.kernel import MergeFold, fold_generalize, pta_table
from repro.errors import LearningError, SerializationError
from repro.graphdb.graph import GraphDB, Node
from repro.engine.engine import QueryEngine
from repro.learning.learner import DEFAULT_K
from repro.learning.sample import BinarySample
from repro.learning.scp import NegativeCoverage
from repro.queries.binary import BinaryPathQuery


@dataclass(frozen=True)
class BinaryLearnerResult:
    """Outcome of one run of the binary learner (``query`` is None on abstain).

    Implements the uniform :class:`repro.api.Result` protocol: ``ok``,
    ``query``, ``elapsed`` and a JSON-safe ``to_dict``/``from_dict`` pair.
    """

    query: BinaryPathQuery | None
    k: int
    scps: dict[tuple[Node, Node], Word] = field(default_factory=dict)
    selects_all_positives: bool = False
    elapsed: float = 0.0

    @property
    def is_null(self) -> bool:
        """Whether the learner abstained."""
        return self.query is None

    @property
    def ok(self) -> bool:
        """Result protocol: True iff the learner returned a query."""
        return not self.is_null

    # -- serialization (Result protocol) -------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe snapshot; round-trips through :meth:`from_dict`."""
        return {
            "type": "BinaryLearnerResult",
            "ok": self.ok,
            "elapsed": self.elapsed,
            "k": self.k,
            "query": None if self.query is None else self.query.to_dict(),
            "scps": sorted(
                ([list(pair), list(word)] for pair, word in self.scps.items()),
                key=repr,
            ),
            "selects_all_positives": self.selects_all_positives,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BinaryLearnerResult":
        """Rebuild a result from :meth:`to_dict` output."""
        try:
            return cls(
                query=(
                    None
                    if payload["query"] is None
                    else BinaryPathQuery.from_dict(payload["query"])
                ),
                k=payload["k"],
                scps={
                    tuple(pair): tuple(word) for pair, word in payload.get("scps", [])
                },
                selects_all_positives=payload.get("selects_all_positives", False),
                elapsed=payload.get("elapsed", 0.0),
            )
        except (KeyError, TypeError) as error:
            raise SerializationError(
                f"malformed BinaryLearnerResult payload: {error}"
            ) from error


def learn_binary_query(
    graph: GraphDB,
    sample: BinarySample,
    *,
    k: int = DEFAULT_K,
    engine: QueryEngine,
) -> BinaryLearnerResult:
    """Run Algorithm 2 on the given graph and binary sample.

    ``engine`` is the query engine used by the merge guard and the final
    positives check.
    """
    if k < 0:
        raise LearningError("the path-length bound k must be non-negative")
    started = time.perf_counter()
    sample.check_against(graph)
    if not sample.positives:
        return BinaryLearnerResult(query=None, k=k, elapsed=time.perf_counter() - started)

    # Pairs in index order, not set order: which negative the guard meets
    # first, and where a failing final check stops, decide the kernel work done
    # and must not depend on the hash seed.
    index = engine.index_for(graph)
    node_ids = index.node_ids

    def in_index_order(pairs):
        return sorted(pairs, key=lambda pair: (node_ids[pair[0]], node_ids[pair[1]]))

    negatives = in_index_order(sample.negatives)
    # One frontier memo for every positive's SCP search (its node set is unused).
    coverage, alphabet = NegativeCoverage(index, ()), graph.alphabet
    scps: dict[tuple[Node, Node], Word] = {}
    for origin, end in sample.positives:
        path = coverage.smallest_uncovered_pair_path(origin, end, negatives, k, alphabet)
        if path is not None:
            scps[(origin, end)] = path
    if not scps:
        return BinaryLearnerResult(query=None, k=k, elapsed=time.perf_counter() - started)

    # As in Algorithm 1, the merge loop runs end-to-end on the kernel: one
    # in-place MergeFold, pair-guard walked against the CSR index.
    pta = pta_table(graph.alphabet, scps.values())

    def violates(candidate: MergeFold) -> bool:
        return any(
            engine.pair_selects(graph, candidate, origin, end, ephemeral=True)
            for origin, end in negatives
        )

    fold = fold_generalize(pta, violates)
    canonical = fold.to_table().canonical()
    # As in Algorithm 1, the query selects every pair with an SCP by construction.
    selects_all = all(
        engine.pair_selects(graph, canonical, origin, end)
        for origin, end in in_index_order(sample.positives - scps.keys())
    )
    query = BinaryPathQuery._from_canonical(canonical) if selects_all else None
    return BinaryLearnerResult(
        query=query,
        k=k,
        scps=scps,
        selects_all_positives=selects_all,
        elapsed=time.perf_counter() - started,
    )
