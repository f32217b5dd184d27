"""Query selectivity measurements (Table 1 of the paper).

The paper characterizes each workload query by its *selectivity*: the
percentage of graph nodes it selects (from 0.03% for bio1 up to 22% for
bio6).  The experiment drivers use these helpers both to report the Table 1
reproduction and to pick positive/negative examples proportionally.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.engine.engine import QueryEngine
from repro.errors import QueryError
from repro.graphdb.graph import GraphDB
from repro.queries.path_query import PathQuery


def selectivity(query: PathQuery, graph: GraphDB, *, engine: QueryEngine) -> float:
    """The fraction of graph nodes selected by the query (0.0 - 1.0)."""
    return query.selectivity(graph, engine=engine)


def selectivity_report(
    queries: Mapping[str, PathQuery] | Sequence[tuple[str, PathQuery]],
    graph: GraphDB,
    *,
    engine: QueryEngine,
) -> dict[str, dict[str, float | int | str]]:
    """Selectivity statistics for a named set of queries on one graph.

    Returns, per query name: the expression, the number of selected nodes,
    and the selectivity both as a fraction and as a percentage -- the three
    columns needed to regenerate Table 1.
    """
    if graph.node_count() == 0:
        raise QueryError("selectivity is undefined on an empty graph")
    items = queries.items() if isinstance(queries, Mapping) else list(queries)
    report: dict[str, dict[str, float | int | str]] = {}
    for name, query in items:
        selected = len(engine.answer(graph, query))
        fraction = selected / graph.node_count()
        report[name] = {
            "expression": query.expression,
            "selected_nodes": selected,
            "selectivity": fraction,
            "selectivity_percent": 100.0 * fraction,
        }
    return report
