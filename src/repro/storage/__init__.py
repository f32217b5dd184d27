"""The durable graph-storage subsystem.

Everything the engine computes starts from a graph in memory; this package
makes graphs *durable* and *cheap to reopen*:

* :mod:`repro.storage.format` -- the ``.rgz`` binary snapshot layout:
  checksummed header + flat little-endian int64 sections;
* :mod:`repro.storage.snapshot` -- :func:`write_snapshot` /
  :func:`open_snapshot`: a graph and its prebuilt per-label CSR index in
  one file, mapped back zero-copy as a :class:`MappedGraphIndex`;
* :mod:`repro.storage.view` -- :class:`GraphView`, a frozen graph-shaped
  API over a prebuilt index that the query engine consumes unchanged;
* :mod:`repro.storage.ingest` -- streaming bulk loaders (edge-list, JSON
  Lines, CSV; gzip-transparent) that intern names and build CSR in O(E)
  without materializing Python edge tuples;
* :mod:`repro.storage.catalog` -- :class:`DatasetCatalog`, named snapshots
  on disk (paper figures, synthetic grids, ingested files).

Incremental index maintenance --
:meth:`~repro.engine.index.GraphIndex.refresh`, which reads the tails of a
:class:`~repro.graphdb.graph.GraphDB`'s node and edge registries -- lives with the graph and
engine layers, but it is the same contract: CSR arrays are canonical, so
snapshot loads, refreshes and full rebuilds are byte-interchangeable.
"""

from repro.storage.catalog import BUILTIN_DATASETS, DEFAULT_CATALOG_ROOT, DatasetCatalog
from repro.storage.format import FORMAT_VERSION, MAGIC, SnapshotHeader
from repro.storage.ingest import (
    INGEST_FORMATS,
    Ingestion,
    IngestReport,
    ingest_csv,
    ingest_edge_list,
    ingest_file,
    ingest_jsonl,
)
from repro.storage.snapshot import (
    SNAPSHOT_SUFFIX,
    MappedGraphIndex,
    open_snapshot,
    snapshot_info,
    write_snapshot,
)
from repro.storage.view import GraphView

__all__ = [
    "BUILTIN_DATASETS",
    "DEFAULT_CATALOG_ROOT",
    "DatasetCatalog",
    "FORMAT_VERSION",
    "GraphView",
    "INGEST_FORMATS",
    "IngestReport",
    "Ingestion",
    "MAGIC",
    "MappedGraphIndex",
    "SNAPSHOT_SUFFIX",
    "SnapshotHeader",
    "ingest_csv",
    "ingest_edge_list",
    "ingest_file",
    "ingest_jsonl",
    "open_snapshot",
    "snapshot_info",
    "write_snapshot",
]
