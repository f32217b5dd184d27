"""Streaming bulk ingestion: text edge streams -> interned CSR, in O(E).

The loaders (:func:`ingest_edge_list`, :func:`ingest_jsonl`,
:func:`ingest_csv`) read a line-oriented source once, interning node names
and labels into int tables on the fly and accumulating each label's edges
as packed ``(origin_id << 32) | end_id`` codes in flat ``int64`` arrays --
no per-edge Python tuples, no adjacency dictionaries.  At the end the codes
are sorted per label (the canonical CSR slice order) and written straight
into :class:`~repro.engine.index.GraphIndex` arrays.

All loaders are gzip-transparent (a ``.gz`` suffix is decompressed on the
fly), report progress through an optional callback, and apply a malformed-
line policy: ``"raise"`` (default, fail fast with the line number) or
``"skip"`` (count and continue, optionally bounded by ``max_errors``).

The resulting :class:`Ingestion` bundles the built index, an
:class:`IngestReport` of what happened, and conveniences to wrap the index
as a frozen :class:`~repro.storage.view.GraphView` or save it as a
``.rgz`` snapshot.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.index import GraphIndex, csr_columns, csr_pair
from repro.errors import StorageError
from repro.graphdb.graph import mint_graph_uid
from repro.graphdb.io import unescape_field
from repro.storage.view import GraphView
from repro.telemetry import Telemetry

#: Shared disabled bundle backing the default ``telemetry=None``.
_NOOP_TELEMETRY = Telemetry()

#: Node ids are packed two-per-int64; each must fit 32 bits.
_MAX_NODES = 1 << 31

#: Accepted ``on_error`` policies.
ERROR_POLICIES = ("raise", "skip")


@dataclass
class IngestReport:
    """Counters and provenance of one bulk-ingestion run."""

    source: str = "<stream>"
    format: str = "edge-list"
    lines_read: int = 0
    edges_added: int = 0
    duplicate_edges: int = 0
    nodes_added: int = 0
    labels_added: int = 0
    malformed_lines: int = 0
    error_samples: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        return {
            "source": self.source,
            "format": self.format,
            "lines_read": self.lines_read,
            "edges_added": self.edges_added,
            "duplicate_edges": self.duplicate_edges,
            "nodes_added": self.nodes_added,
            "labels_added": self.labels_added,
            "malformed_lines": self.malformed_lines,
            "error_samples": list(self.error_samples),
            "elapsed": self.elapsed,
        }


class Ingestion:
    """The outcome of a bulk load: a ready index plus its report."""

    def __init__(self, index: GraphIndex, report: IngestReport) -> None:
        self.index = index
        self.report = report

    def view(self) -> GraphView:
        """The ingested graph as a frozen, query-ready :class:`GraphView`."""
        return GraphView(self.index)

    def save(self, path, *, meta: dict | None = None) -> dict:
        """Write the ingested graph as a ``.rgz`` snapshot (plus provenance)."""
        from repro.storage.snapshot import write_snapshot

        payload = dict(meta or {})
        payload.setdefault("ingest", self.report.as_dict())
        return write_snapshot(self.index, path, meta=payload)

    def __repr__(self) -> str:
        return (
            f"Ingestion(nodes={self.index.num_nodes}, edges={self.index.edge_count}, "
            f"malformed={self.report.malformed_lines})"
        )


class _StreamingBuilder:
    """Interning tables plus per-label packed edge-code arrays."""

    def __init__(self, *, dedupe: bool) -> None:
        self.node_ids: dict[str, int] = {}
        self.nodes: list[str] = []
        self.label_ids: dict[str, int] = {}
        self.labels: list[str] = []
        self.codes: list[array] = []  # per label, (origin << 32) | end
        self.seen: list[set[int]] | None = [] if dedupe else None
        self.duplicates = 0

    def node_id(self, name: str) -> int:
        node_id = self.node_ids.get(name)
        if node_id is None:
            node_id = len(self.nodes)
            if node_id >= _MAX_NODES:
                raise StorageError(f"too many nodes for the storage layer ({_MAX_NODES})")
            self.node_ids[name] = node_id
            self.nodes.append(name)
        return node_id

    def add_edge(self, origin: str, label: str, end: str) -> bool:
        label_id = self.label_ids.get(label)
        if label_id is None:
            label_id = len(self.labels)
            self.label_ids[label] = label_id
            self.labels.append(label)
            self.codes.append(array("q"))
            if self.seen is not None:
                self.seen.append(set())
        code = (self.node_id(origin) << 32) | self.node_id(end)
        if self.seen is not None:
            bucket = self.seen[label_id]
            if code in bucket:
                self.duplicates += 1
                return False
            bucket.add(code)
        self.codes[label_id].append(code)
        return True

    def build_index(self) -> GraphIndex:
        rows = (csr_pair(codes, len(self.nodes)) for codes in self.codes)
        fwd_offsets, fwd_targets, bwd_offsets, bwd_targets = csr_columns(rows)
        return GraphIndex(
            graph_uid=mint_graph_uid(),
            graph_version=0,
            nodes_by_id=tuple(self.nodes),
            labels_by_id=tuple(self.labels),
            node_ids=dict(self.node_ids),
            label_ids=dict(self.label_ids),
            fwd_offsets=fwd_offsets,
            fwd_targets=fwd_targets,
            bwd_offsets=bwd_offsets,
            bwd_targets=bwd_targets,
            edge_count=sum(map(len, self.codes)),
        )


class _LineFeed:
    """Uniform line iteration over paths (gzip-transparent), files, iterables."""

    def __init__(self, source) -> None:
        self.name = "<stream>"
        self._close = None
        if isinstance(source, (str, Path)):
            path = Path(source)
            self.name = str(path)
            if path.suffix == ".gz":
                handle = gzip.open(path, "rt", encoding="utf-8")
            else:
                handle = path.open("r", encoding="utf-8")
            self._close = handle.close
            self.lines = handle
        elif hasattr(source, "read"):
            if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
                source = io.TextIOWrapper(source, encoding="utf-8")
            self.name = getattr(source, "name", "<stream>")
            self.lines = source
        else:
            self.lines = iter(source)

    def close(self) -> None:
        if self._close is not None:
            self._close()


class _ErrorPolicy:
    """Shared malformed-line handling for all loaders."""

    def __init__(self, on_error: str, max_errors: int | None, report: IngestReport) -> None:
        if on_error not in ERROR_POLICIES:
            raise StorageError(
                f"on_error must be one of {ERROR_POLICIES}, got {on_error!r}"
            )
        if max_errors is not None and max_errors < 0:
            raise StorageError(f"max_errors must be None or >= 0, got {max_errors!r}")
        self.on_error = on_error
        self.max_errors = max_errors
        self.report = report

    def malformed(self, line_number: int, message: str) -> None:
        detail = f"line {line_number}: {message}"
        if self.on_error == "raise":
            raise StorageError(f"malformed input ({detail})")
        self.report.malformed_lines += 1
        if len(self.report.error_samples) < 5:
            self.report.error_samples.append(detail)
        if self.max_errors is not None and self.report.malformed_lines > self.max_errors:
            raise StorageError(
                f"aborting ingestion: more than {self.max_errors} malformed line(s); "
                f"last was {detail}"
            )


def _run(
    source,
    fmt_name: str,
    parse_line,
    *,
    on_error,
    max_errors,
    progress,
    progress_every,
    dedupe,
    telemetry: Telemetry | None = None,
) -> Ingestion:
    """The shared streaming loop: feed lines to ``parse_line``, build, report.

    ``parse_line(line, line_number, builder, policy)`` returns True when it
    added an edge (False for directives/comments/skips).  ``telemetry``,
    when given, records one ``storage.ingest`` span for the whole run and
    bumps the ``storage_ingest_*`` counters.
    """
    telemetry = telemetry if telemetry is not None else _NOOP_TELEMETRY
    started = time.perf_counter()
    report = IngestReport(format=fmt_name)
    policy = _ErrorPolicy(on_error, max_errors, report)
    builder = _StreamingBuilder(dedupe=dedupe)
    feed = _LineFeed(source)
    report.source = feed.name
    if progress_every < 1:
        raise StorageError(f"progress_every must be >= 1, got {progress_every!r}")
    with telemetry.span(
        "storage.ingest", format=fmt_name, source=report.source
    ) as span:
        try:
            for line_number, line in enumerate(feed.lines, start=1):
                report.lines_read = line_number
                if parse_line(line, line_number, builder, policy):
                    report.edges_added += 1
                if progress is not None and line_number % progress_every == 0:
                    progress(line_number, report.edges_added)
        finally:
            feed.close()
        index = builder.build_index()
        report.duplicate_edges = builder.duplicates
        report.nodes_added = index.num_nodes
        report.labels_added = index.num_labels
        report.elapsed = time.perf_counter() - started
        span.set(
            lines=report.lines_read,
            edges=report.edges_added,
            nodes=report.nodes_added,
            malformed=report.malformed_lines,
        )
    registry = telemetry.registry
    registry.counter("storage_ingest_runs_total", help="Bulk ingestion runs").inc()
    registry.counter(
        "storage_ingest_lines_total", help="Source lines read by bulk ingestion"
    ).inc(report.lines_read)
    registry.counter(
        "storage_ingest_edges_total", help="Edges added by bulk ingestion"
    ).inc(report.edges_added)
    if progress is not None:
        progress(report.lines_read, report.edges_added)
    return Ingestion(index, report)


# -- the three text formats ---------------------------------------------------


def ingest_edge_list(
    source,
    *,
    on_error: str = "raise",
    max_errors: int | None = None,
    progress=None,
    progress_every: int = 100_000,
    dedupe: bool = True,
    telemetry: Telemetry | None = None,
) -> Ingestion:
    """Stream a tab-separated edge list (the :mod:`repro.graphdb.io` dialect:
    ``#`` comments, ``%node`` directives, backslash-escaped fields)."""

    def parse(line: str, line_number: int, builder: _StreamingBuilder, policy) -> bool:
        line = line.strip()
        if not line or line.startswith("#"):
            return False
        parts = line.split("\t")
        try:
            if parts[0] == "%node":
                if len(parts) != 2:
                    raise StorageError("malformed %node directive")
                builder.node_id(unescape_field(parts[1], line_number))
                return False
            if len(parts) != 3:
                raise StorageError(f"expected 3 tab-separated fields, got {len(parts)}")
            origin, label, end = (unescape_field(part, line_number) for part in parts)
            if not label:
                raise StorageError("empty edge label")
        except Exception as error:
            policy.malformed(line_number, str(error))
            return False
        return builder.add_edge(origin, label, end)

    return _run(
        source,
        "edge-list",
        parse,
        on_error=on_error,
        max_errors=max_errors,
        progress=progress,
        progress_every=progress_every,
        dedupe=dedupe,
        telemetry=telemetry,
    )


def ingest_jsonl(
    source,
    *,
    on_error: str = "raise",
    max_errors: int | None = None,
    progress=None,
    progress_every: int = 100_000,
    dedupe: bool = True,
    telemetry: Telemetry | None = None,
) -> Ingestion:
    """Stream JSON Lines: ``["origin", "label", "end"]`` triples or objects
    with ``origin``/``label``/``end`` keys (``{"node": name}`` declares an
    isolated node)."""

    def parse(line: str, line_number: int, builder: _StreamingBuilder, policy) -> bool:
        line = line.strip()
        if not line:
            return False
        try:
            record = json.loads(line)
            if isinstance(record, dict):
                if set(record) == {"node"}:
                    builder.node_id(_text(record["node"]))
                    return False
                missing = {"origin", "label", "end"} - set(record)
                if missing:
                    raise StorageError(f"missing keys: {sorted(missing)}")
                origin, label, end = record["origin"], record["label"], record["end"]
            elif isinstance(record, list) and len(record) == 3:
                origin, label, end = record
            else:
                raise StorageError(
                    "expected a 3-element array or an origin/label/end object"
                )
            label = _text(label)
            if not label:
                raise StorageError("empty edge label")
            origin, end = _text(origin), _text(end)
        except Exception as error:
            policy.malformed(line_number, str(error))
            return False
        return builder.add_edge(origin, label, end)

    return _run(
        source,
        "jsonl",
        parse,
        on_error=on_error,
        max_errors=max_errors,
        progress=progress,
        progress_every=progress_every,
        dedupe=dedupe,
        telemetry=telemetry,
    )


def ingest_csv(
    source,
    *,
    delimiter: str = ",",
    header: str = "auto",
    on_error: str = "raise",
    max_errors: int | None = None,
    progress=None,
    progress_every: int = 100_000,
    dedupe: bool = True,
    telemetry: Telemetry | None = None,
) -> Ingestion:
    """Stream a 3-column CSV of ``origin,label,end`` rows.

    ``header`` is ``"auto"`` (skip a first row that names the columns),
    ``"skip"`` (always drop the first row) or ``"none"``.
    """
    if header not in ("auto", "skip", "none"):
        raise StorageError(f"header must be 'auto', 'skip' or 'none', got {header!r}")
    header_names = {"origin", "label", "end", "source", "target", "src", "dst"}
    state = {"first": True}

    def parse(line: str, line_number: int, builder: _StreamingBuilder, policy) -> bool:
        if not line.strip():
            return False
        try:
            try:
                row = next(csv.reader([line], delimiter=delimiter))
            except (csv.Error, StopIteration) as error:
                raise StorageError(f"bad CSV row: {error}") from error
            if state["first"]:
                state["first"] = False
                if header == "skip":
                    return False
                if header == "auto" and {cell.strip().lower() for cell in row} <= header_names:
                    return False
            if len(row) != 3:
                raise StorageError(f"expected 3 columns, got {len(row)}")
            origin, label, end = (cell.strip() for cell in row)
            if not label:
                raise StorageError("empty edge label")
        except Exception as error:
            policy.malformed(line_number, str(error))
            return False
        return builder.add_edge(origin, label, end)

    return _run(
        source,
        "csv",
        parse,
        on_error=on_error,
        max_errors=max_errors,
        progress=progress,
        progress_every=progress_every,
        dedupe=dedupe,
        telemetry=telemetry,
    )


#: Loader registry for the CLI and catalog (format name -> function).
INGEST_FORMATS = {
    "edge-list": ingest_edge_list,
    "jsonl": ingest_jsonl,
    "csv": ingest_csv,
}


def ingest_file(path, *, format: str = "auto", **options) -> Ingestion:
    """Dispatch on ``format`` (or guess it from the file suffix)."""
    name = format
    if name == "auto":
        suffixes = [s.lower() for s in Path(path).suffixes]
        if suffixes and suffixes[-1] == ".gz":
            suffixes.pop()
        last = suffixes[-1] if suffixes else ""
        if last in (".jsonl", ".ndjson"):
            name = "jsonl"
        elif last == ".csv":
            name = "csv"
        else:
            name = "edge-list"
    loader = INGEST_FORMATS.get(name)
    if loader is None:
        raise StorageError(
            f"unknown ingest format {format!r}; expected one of "
            f"{sorted(INGEST_FORMATS)} or 'auto'"
        )
    return loader(path, **options)


def _text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    raise StorageError(f"expected a string identifier, got {value!r}")
