"""The experimental workloads: queries and the graphs they run on.

*Biological workload* (Table 1).  The paper uses six real-life queries from
Koschmieder & Leser on the AliBaba graph, with structures ``b.A.A*``,
``C.C*.a.A.A*``, ``C.E``, ``I.I.I*``, ``A.A.A*.I.I.I*`` and ``A.A.A*`` where
capital letters are disjunctions of up to 10 (overlapping) symbols, and
selectivities between 0.03% and 22%.  We reproduce the same six structural
shapes over the AliBaba-like synthetic graph's label classes
(:data:`repro.datasets.alibaba.ALIBABA_LABEL_CLASSES`).

*Synthetic workload* (Section 5.1).  Three queries syn1-syn3 of shape
``A.B*.C`` (disjunctions of up to 10 possibly-overlapping symbols) whose
selectivities are, regardless of graph size, roughly 1%, 15% and 40%; run on
scale-free Zipfian graphs of 10k, 20k and 30k nodes with 3x edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.datasets.alibaba import ALIBABA_LABEL_CLASSES, generate_alibaba_like
from repro.datasets.synthetic import default_alphabet, scale_free_graph
from repro.engine.engine import QueryEngine
from repro.graphdb.graph import GraphDB
from repro.queries.path_query import PathQuery
from repro.regex.ast import Regex, concat, disjunction_of_symbols, star, symbol


@dataclass(frozen=True)
class Workload:
    """A named goal query attached to the graph it is evaluated on."""

    name: str
    query: PathQuery
    graph: GraphDB
    description: str = ""

    def selectivity(self, *, engine: QueryEngine) -> float:
        """The fraction of graph nodes the goal query selects."""
        return self.query.selectivity(self.graph, engine=engine)


# -- biological queries (Table 1) ----------------------------------------------


def _class_expr(class_name: str) -> Regex:
    """The disjunction expression of one of the AliBaba label classes."""
    return disjunction_of_symbols(ALIBABA_LABEL_CLASSES[class_name])


def biological_query_expressions() -> dict[str, Regex]:
    """The six Table 1 query structures over the AliBaba-like label classes."""
    a_class = _class_expr("A")
    c_class = _class_expr("C")
    e_class = _class_expr("E")
    i_class = _class_expr("I")
    single_a = symbol(ALIBABA_LABEL_CLASSES["a"][0])
    single_b = symbol(ALIBABA_LABEL_CLASSES["b"][0])
    return {
        # bio1 = b . A . A*
        "bio1": concat(single_b, a_class, star(a_class)),
        # bio2 = C . C* . a . A . A*
        "bio2": concat(c_class, star(c_class), single_a, a_class, star(a_class)),
        # bio3 = C . E
        "bio3": concat(c_class, e_class),
        # bio4 = I . I . I*
        "bio4": concat(i_class, i_class, star(i_class)),
        # bio5 = A . A . A* . I . I . I*
        "bio5": concat(a_class, a_class, star(a_class), i_class, i_class, star(i_class)),
        # bio6 = A . A . A*
        "bio6": concat(a_class, a_class, star(a_class)),
    }


def biological_queries(graph: GraphDB | None = None) -> dict[str, PathQuery]:
    """The bio1-bio6 queries, compiled over the AliBaba-like alphabet."""
    alphabet = graph.alphabet if graph is not None else None
    queries: dict[str, PathQuery] = {}
    for name, expr in biological_query_expressions().items():
        queries[name] = PathQuery.parse(expr, alphabet) if alphabet else PathQuery.parse(expr)
    return queries


def biological_workloads(
    *,
    node_count: int = 3000,
    edge_count: int = 8000,
    seed: int = 7,
) -> list[Workload]:
    """The biological workload: bio1-bio6 on one AliBaba-like graph."""
    graph = generate_alibaba_like(node_count=node_count, edge_count=edge_count, seed=seed)
    queries = biological_queries(graph)
    structures = {
        "bio1": "b.A.A*",
        "bio2": "C.C*.a.A.A*",
        "bio3": "C.E",
        "bio4": "I.I.I*",
        "bio5": "A.A.A*.I.I.I*",
        "bio6": "A.A.A*",
    }
    return [
        Workload(name=name, query=query, graph=graph, description=structures[name])
        for name, query in queries.items()
    ]


# -- synthetic queries syn1-syn3 -------------------------------------------------


def synthetic_query_expressions(
    alphabet_size: int = 20,
) -> dict[str, Regex]:
    """Three ``A.B*.C`` queries over the default synthetic alphabet.

    The disjunction classes are chosen (with overlaps, as in the paper) so
    that syn1 is the most selective and syn3 the least: because the label
    distribution is Zipfian over the sorted alphabet, classes built from
    rare (high-index) labels select few nodes and classes built from
    frequent (low-index) labels select many.
    """
    labels = default_alphabet(alphabet_size)

    def pick(indices: list[int]) -> list[str]:
        return [labels[i % len(labels)] for i in indices]

    # syn1: rare labels everywhere -> low selectivity (about 1%).
    syn1 = concat(
        disjunction_of_symbols(pick([14, 15, 16])),
        star(disjunction_of_symbols(pick([12, 13, 17]))),
        disjunction_of_symbols(pick([18, 19])),
    )
    # syn2: mid-frequency labels -> medium selectivity (about 15%).
    syn2 = concat(
        disjunction_of_symbols(pick([4, 5, 6, 7])),
        star(disjunction_of_symbols(pick([6, 8, 9]))),
        disjunction_of_symbols(pick([10, 11, 12])),
    )
    # syn3: frequent labels -> high selectivity (about 40%).
    syn3 = concat(
        disjunction_of_symbols(pick([0, 2])),
        star(disjunction_of_symbols(pick([1, 3]))),
        disjunction_of_symbols(pick([1, 2, 4])),
    )
    return {"syn1": syn1, "syn2": syn2, "syn3": syn3}


def synthetic_queries(graph: GraphDB, alphabet_size: int = 20) -> dict[str, PathQuery]:
    """The syn1-syn3 queries compiled over the given synthetic graph's alphabet."""
    return {
        name: PathQuery.parse(expr, graph.alphabet)
        for name, expr in synthetic_query_expressions(alphabet_size).items()
    }


def synthetic_workloads(
    *,
    node_counts: tuple[int, ...] = (10000, 20000, 30000),
    alphabet_size: int = 20,
    zipf_exponent: float = 1.0,
    seed: int = 11,
) -> list[Workload]:
    """The synthetic workload: syn1-syn3 on graphs of the given sizes."""
    workloads: list[Workload] = []
    rng = random.Random(seed)
    for node_count in node_counts:
        graph = scale_free_graph(
            node_count,
            alphabet_size=alphabet_size,
            zipf_exponent=zipf_exponent,
            seed=rng.randint(0, 2**31),
        )
        for name, query in synthetic_queries(graph, alphabet_size).items():
            workloads.append(
                Workload(
                    name=f"{name}@{node_count}",
                    query=query,
                    graph=graph,
                    description="A.B*.C",
                )
            )
    return workloads
