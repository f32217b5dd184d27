"""The shared kernel cost model: CSR statistics in, strategy ranking out.

Every dispatch decision the engine makes -- python vs. numpy for
whole-graph walks, forward vs. bidirectional for pair queries, and the
adaptive per-query choice that keeps the chunked numpy binary kernel off
sparse selective workloads -- reads the same handful of free statistics:
the per-label edge counts and node/edge totals a :class:`GraphIndex`
already holds, paired with the shape of the plan -- which is the kernel
:class:`~repro.automata.kernel.TableDFA` itself: its flat transition array
(which transitions exist), its initial state and its finals mask.

The central quantity is :meth:`CostModel.scan_work`: for each automaton
transition on symbol ``a``, the product BFS can cross each ``a``-edge of
the graph at most once, so the sum of per-label edge counts over the
table's transitions bounds the edges one whole-graph epoch scans.  The
per-strategy estimates weight that bound with per-item and per-call
constants calibrated against the committed speed benchmarks; the absolute
numbers are unitless -- only the ordering between candidate strategies is
consumed.

The estimates deliberately stay O(table entries): the model sits on the
dispatch hot path, so it must cost far less than the cheapest kernel run
it arbitrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.automata.kernel import TableDFA
from repro.engine.index import GraphIndex

#: Cost of one python-kernel product edge scan (the unit everything else
#: is expressed in).
PYTHON_EDGE_WEIGHT = 1.0
#: Cost of one vectorized product edge scan (amortized numpy throughput).
NUMPY_ITEM_WEIGHT = 0.25
#: Fixed cost of entering one numpy kernel (array setup, dtype views).
NUMPY_CALL_WEIGHT = 5_000.0
#: Cost per visited-mask byte the chunked numpy binary kernel zeroes.
NUMPY_MASK_WEIGHT = 0.002
#: Growth factor from first-layer pair fan-out to a full early-exit search.
PAIR_GROWTH = 1.0 / 16.0


@dataclass(frozen=True)
class CostEstimate:
    """One candidate strategy with its unitless cost and its inputs."""

    strategy: str
    cost: float
    detail: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"strategy": self.strategy, "cost": self.cost, **self.detail}


def cheapest(estimates: list[CostEstimate]) -> CostEstimate:
    """The lowest-cost candidate (ties broken by listing order)."""
    return min(estimates, key=lambda estimate: estimate.cost)


class CostModel:
    """Per-index strategy estimates from the CSR degree statistics.

    Instances are cheap value objects snapshotting one index generation
    (``label_edge_counts`` is recomputed on build/refresh); the engine
    memoizes them per ``(graph uid, version)``.
    """

    __slots__ = ("num_nodes", "edge_count", "label_counts", "label_ids")

    def __init__(self, index: GraphIndex) -> None:
        self.num_nodes = index.num_nodes
        self.edge_count = index.edge_count
        self.label_counts = index.label_edge_counts()
        self.label_ids = index.label_ids

    # -- shared quantities ---------------------------------------------------

    def scan_work(self, table: TableDFA) -> int:
        """Edges one whole-graph product-BFS epoch can scan, at most.

        Each transition on a symbol crosses each same-label graph edge at
        most once, so the bound is the transition-weighted sum of the
        per-label edge counts.  Symbols the graph never uses contribute
        nothing -- exactly like the kernels, which skip them at bind time.
        """
        counts, trans, m = self.label_counts, table.trans, table.m
        total = 0
        for position, label_id in enumerate(table.bind_labels(self.label_ids)):
            if label_id >= 0:
                total += counts[label_id] * sum(1 for target in trans[position::m] if target >= 0)
        return total

    def first_layer_costs(self, table: TableDFA) -> tuple[int, int]:
        """``(forward, backward)`` first-layer fan-outs of a pair query.

        Forward sums the edge counts of labels leaving the initial state;
        backward sums, per final state, those of the labels entering it (the
        statistic the bidirectional search alternates on).
        """
        counts, trans, m, finals = self.label_counts, table.trans, table.m, table.finals
        base = table.initial * m
        forward = backward = 0
        for position, label_id in enumerate(table.bind_labels(self.label_ids)):
            if label_id < 0:
                continue
            if trans[base + position] >= 0:
                forward += counts[label_id]
            entered = {t for t in trans[position::m] if t >= 0 and (finals >> t) & 1}
            backward += counts[label_id] * len(entered)
        return forward, backward

    # -- whole-graph monadic evaluation --------------------------------------

    def evaluate_all_estimates(
        self,
        table: TableDFA,
        *,
        numpy_ok: bool = False,
    ) -> list[CostEstimate]:
        """Candidates for one backward whole-graph walk, python listed first.

        The walk seeds every ``(node, final state)`` pair, so the seed term
        scales with ``n * |finals|``; the scan term is :meth:`scan_work`.
        The vectorized kernel trades a fixed call cost for a per-item win:
        the weights say 4x, an ``A.B*.C`` walk measures 2.6x (1k nodes) to 12x (30k).
        """
        seeds = self.num_nodes * max(1, table.finals.bit_count())
        scan = self.scan_work(table)
        python_cost = (seeds + scan) * PYTHON_EDGE_WEIGHT
        estimates = [
            CostEstimate(
                "python",
                python_cost,
                {"seeds": float(seeds), "scan_work": float(scan)},
            )
        ]
        if numpy_ok:
            estimates.append(
                CostEstimate(
                    "numpy",
                    NUMPY_CALL_WEIGHT + (seeds + scan) * NUMPY_ITEM_WEIGHT,
                    {"seeds": float(seeds), "scan_work": float(scan)},
                )
            )
        return estimates

    # -- whole-graph binary evaluation ---------------------------------------

    def binary_estimates(
        self,
        table: TableDFA,
        *,
        numpy_ok: bool = False,
    ) -> list[CostEstimate]:
        """Candidates for one all-pairs evaluation (a BFS per source node).

        The python kernel's cost is dominated by how many sources survive
        their first layer: across all sources the first layer scans exactly
        the forward fan-out ``f``, so the per-source reach is modelled as
        ``scan_work * min(n, f) / n`` -- selective queries (rare labels on
        the initial states) kill most sources immediately, dense ones
        re-walk shared structure once per source.  The chunked numpy kernel
        pays a dense ``sources * n * k`` visited mask regardless of
        selectivity, which is precisely why it loses on sparse selective
        workloads and why this estimate keeps it off them.
        """
        n, k = self.num_nodes, table.n
        scan = self.scan_work(table)
        forward, _ = self.first_layer_costs(table)
        python_cost = (n + scan * min(n, forward)) * PYTHON_EDGE_WEIGHT
        estimates = [
            CostEstimate(
                "python",
                python_cost,
                {"scan_work": float(scan), "first_layer": float(forward)},
            )
        ]
        if numpy_ok:
            chunk = max(1, min(1024, (16 << 20) // max(1, n * k)))
            chunks = -(-n // chunk) if n else 0
            mask_bytes = float(chunks * chunk * n * k)
            estimates.append(
                CostEstimate(
                    "numpy",
                    chunks * NUMPY_CALL_WEIGHT
                    + mask_bytes * NUMPY_MASK_WEIGHT
                    + scan * min(n, forward) * NUMPY_ITEM_WEIGHT,
                    {"chunks": float(chunks), "mask_bytes": mask_bytes},
                )
            )
        return estimates

    # -- pair queries --------------------------------------------------------

    def pair_estimates(self, table: TableDFA) -> list[CostEstimate]:
        """Candidates for one early-exit pair search.

        Forward/backward are the first-layer fan-outs; the bidirectional
        meet-in-the-middle always advances its cheaper side, so its
        estimate is the smaller fan-out plus a bookkeeping share of both.
        """
        forward, backward = self.first_layer_costs(table)
        return [
            CostEstimate("forward", float(forward)),
            CostEstimate("backward", float(backward)),
            CostEstimate(
                "bidirectional",
                float(min(forward, backward)) + (forward + backward) * PAIR_GROWTH,
            ),
        ]

    def choose_pair_strategy(self, table: TableDFA) -> str:
        """``"forward"`` or ``"bidirectional"`` for one pair query.

        Meeting in the middle pays whenever both ends have work to do; when
        the origin side's first-layer fan-out is an order of magnitude below
        the end side's fan-in, the plain forward early-exit search is
        already optimal and skips the bidirectional bookkeeping.
        """
        forward, backward = self.first_layer_costs(table)
        if forward * 8 <= backward:
            return "forward"
        return "bidirectional"

    def __repr__(self) -> str:
        return (
            f"CostModel(nodes={self.num_nodes}, edges={self.edge_count}, "
            f"labels={len(self.label_counts)})"
        )
