"""The ``python -m repro`` command line (also installed as ``repro``).

Drives the :class:`~repro.api.Workspace` facade without writing Python.
Every subcommand prints one JSON *result envelope* to stdout::

    {
      "ok": true,            # did the command execute? (exit code 0 iff true)
      "command": "learn",    # which subcommand ran
      "elapsed": 0.0123,     # wall-clock seconds of the whole command
      "result": { ... },     # the uniform Result.to_dict() payload
      "engine_stats": { ... }  # the workspace engine's counters
    }

``ok`` tracks command execution, not the outcome's quality: a learner that
legitimately abstains still yields ``ok: true`` (with ``result.ok: false``)
and exit code 0, so scripts can tell a valid abstention from a failure.

Subcommands
-----------
``learn``        learn a query from ``--positives``/``--negatives`` labels;
``query``        evaluate a regular path query on the graph;
``explain``      plan a query without running it (rewrites, decision inputs,
                 chosen kernel, cache disposition);
``experiment``   run a Section 5 experiment (static sweep or interactive loop);
``interactive``  run one interactive session against a goal query, with
                 optional ``--checkpoint FILE`` resume/save;
``bench``        repeat query evaluations to exercise the engine's caches;
``ingest``       bulk-load an edge file into a binary ``.rgz`` snapshot
                 (and/or register it in a catalog);
``info``         describe a snapshot's header/sections or list a catalog;
``stats``        report engine/cache/storage economics (optionally after
                 driving ``--expr`` traffic, optionally as Prometheus text);
``trace``        tail or summarize a JSONL span trace file, or reconstruct
                 one distributed trace (``--id``) across several files;
``slow``         tail or summarize a daemon's slow-query log
                 (``serve --slow-log``);
``serve``        run the long-lived query-service daemon over a snapshot
                 catalog (:mod:`repro.service`), optionally with a span
                 trace (``--trace``) and a slow-query log (``--slow-log``).

``query`` and ``stats`` also accept ``--remote HOST:PORT`` instead of a
graph source, sending the request to a running ``repro serve`` daemon
(with ``--tenant`` and ``--dataset`` selecting the tenant id and the
server-side snapshot).  A remote ``query --trace FILE`` records the
client side of a distributed trace whose context propagates to the
daemon's spans; ``stats --remote --tenants``
reports the daemon's per-tenant accounting table.

Graphs come from ``--graph FILE`` (edge-list ``.tsv`` or ``.json``, see
:mod:`repro.graphdb.io`), ``--figure {geo,g0}`` (the paper's figure
graphs) or ``--snapshot FILE`` (a binary ``.rgz`` snapshot opened
zero-copy through the storage layer).  Every graph-backed subcommand
accepts ``--trace FILE`` (write a structured JSONL span trace) and
``--profile`` (attach per-query execution profiles to results).  Failures
print ``{"ok": false, "error": {...}}`` and exit 1.

The subcommands are one table (:data:`COMMANDS`).  Options that set a config
field -- the engine, telemetry and daemon knobs, the learner's ``k`` /
strategy / budget flags -- are generated from that field's declaration in
:mod:`repro.api.config` (type, choices, default, help), and the configs are
built back from the parsed flags the same way; only options no config field
backs (``--expr``, ``--positives``, file arguments ...) are written out here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

from repro.api.config import (
    EngineConfig,
    ExperimentConfig,
    InteractiveConfig,
    LearnerConfig,
    ServiceConfig,
    TelemetryConfig,
)
from repro.api.result import Result
from repro.api.workspace import FIGURE_GRAPHS, QUERY_SEMANTICS, Workspace
from repro.errors import ConfigError, ReproError
from repro.learning.sample import BinarySample, Sample

# -- options derived from the config declarations ---------------------------


def _flagged(config_cls: type):
    """``(field, knob, option string, metavar)`` of every field that has a CLI flag."""
    for spec in fields(config_cls):
        knob = spec.metadata["knob"]
        if knob.flag is not None:
            option, _, metavar = knob.flag.partition(" ")
            yield spec, knob, option, metavar or None


def _add_config_flags(sub: argparse.ArgumentParser, config_cls: type) -> None:
    """One option per flagged field: type, choices, default and help all come
    from the field's declaration in :mod:`repro.api.config`."""
    for spec, knob, option, metavar in _flagged(config_cls):
        check, doc = knob.check, knob.doc.replace("%", "%%")
        if check.kind is bool:
            # A switch flips the field away from its default (--fixed-k, --profile).
            help_text = f"turn off: {doc}" if spec.default else doc
            sub.add_argument(option, dest=spec.name, action="store_true", help=help_text)
            continue
        default = None if check.many or spec.default is None else spec.default * knob.per_unit
        if default is not None:
            doc += " (default %(default)s)"
        kwargs: dict = {"choices": check.choices} if check.choices else {}
        if check.kind is not str and not check.many:
            kwargs["type"] = check.kind
        sub.add_argument(
            option, dest=spec.name, default=default, metavar=metavar, help=doc, **kwargs
        )


def _config_from_args(config_cls: type, args: argparse.Namespace, **overrides):
    """Build ``config_cls`` from its parsed flags (``overrides`` win)."""
    values = {}
    for spec, knob, option, _metavar in _flagged(config_cls):
        raw, check = getattr(args, spec.name), knob.check
        if check.kind is bool:
            values[spec.name] = spec.default != raw
        elif check.many:
            if raw is not None:  # comma-separated; absent keeps the field's default
                try:
                    values[spec.name] = tuple(check.kind(item) for item in _split_csv(raw))
                except ValueError as error:
                    raise ConfigError(f"malformed {option} value: {error}") from error
        else:
            values[spec.name] = raw if raw is None or knob.per_unit == 1 else raw / knob.per_unit
    return config_cls(**{**values, **overrides})


def _make_workspace(args: argparse.Namespace) -> Workspace:
    kwargs = {
        "engine_config": _config_from_args(EngineConfig, args),
        "telemetry_config": _config_from_args(TelemetryConfig, args),
    }
    if args.snapshot is not None:
        return Workspace.open_snapshot(args.snapshot, **kwargs)
    if args.graph is not None:
        return Workspace.from_file(args.graph, **kwargs)
    return Workspace.from_figure(args.figure, **kwargs)


def _split_csv(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _parse_examples(text: str, semantics: str) -> list:
    items = _split_csv(text)
    if semantics != "binary":
        return items
    pairs = []
    for item in items:
        origin, separator, end = item.partition(":")
        if not separator or not origin or not end:
            raise ConfigError(
                f"binary examples must be origin:end pairs, got {item!r}"
            )
        pairs.append((origin, end))
    return pairs


def _cmd_learn(args: argparse.Namespace, workspace: Workspace) -> Result:
    positives = _parse_examples(args.positives, args.semantics)
    negatives = _parse_examples(args.negatives, args.semantics)
    if args.semantics == "binary":
        sample: Sample | BinarySample = BinarySample(positives, negatives)
    else:
        sample = Sample(positives, negatives)
    config = _config_from_args(
        LearnerConfig, args, semantics=args.semantics, k_max=max(args.k, args.k_max)
    )
    return workspace.learn(sample, config)


def _cmd_query(args: argparse.Namespace, workspace: Workspace) -> Result:
    return workspace.query(args.expr, semantics=args.semantics)


def _cmd_explain(args: argparse.Namespace, workspace: Workspace) -> Result:
    return workspace.explain(args.expr, semantics=args.semantics)


def _cmd_experiment(args: argparse.Namespace, workspace: Workspace) -> Result:
    return workspace.run_experiment(_config_from_args(ExperimentConfig, args, goal=args.goal))


def _cmd_interactive(args: argparse.Namespace, workspace: Workspace) -> Result:
    config = _config_from_args(
        InteractiveConfig,
        args,
        k_max=max(args.k_start, args.k_max),
        pool_size=args.pool_size if args.pool_size > 0 else None,
    )
    resume_from = (
        args.checkpoint
        if args.checkpoint is not None and os.path.exists(args.checkpoint)
        else None
    )
    return workspace.learn_interactive(
        args.goal,
        config,
        resume_from=resume_from,
        checkpoint_to=args.checkpoint,
    )


def _cmd_bench(args: argparse.Namespace, workspace: Workspace) -> dict:
    if args.repeat < 1:
        raise ConfigError("--repeat must be at least 1")
    runs = []
    for expression in args.expr:
        first = workspace.query(expression)
        # Reuse the compiled query object so the warm loop measures the
        # engine's plan/result caches, not regex re-compilation.
        compiled = first.query
        warm_runs = args.repeat - 1
        started = time.perf_counter()
        for _ in range(warm_runs):
            workspace.query(compiled)
        warm_elapsed = time.perf_counter() - started
        runs.append(
            {
                "expression": expression,
                "selected": first.count,
                "repeat": args.repeat,
                "cold_seconds": first.elapsed,
                # null when no warm evaluation happened (--repeat 1).
                "warm_seconds_per_eval": (
                    warm_elapsed / warm_runs if warm_runs else None
                ),
            }
        )
    return {"type": "BenchReport", "ok": True, "runs": runs}


def _cmd_ingest(args: argparse.Namespace) -> dict:
    from repro.storage.catalog import DatasetCatalog
    from repro.storage.ingest import ingest_file

    if args.output is None and args.catalog is None:
        raise ConfigError("ingest needs --output FILE and/or --catalog DIR")
    ingestion = ingest_file(
        args.input,
        format=args.format,
        on_error=args.on_error,
        max_errors=args.max_errors,
    )
    payload: dict = {
        "type": "IngestReport",
        "ok": True,
        "report": ingestion.report.as_dict(),
    }
    meta = {"source_file": str(args.input)}
    if args.output is not None:
        payload["snapshot"] = ingestion.save(args.output, meta=meta)
    if args.catalog is not None:
        catalog = DatasetCatalog(args.catalog)
        name = args.name or Path(args.input).name.split(".")[0]
        if args.output is not None:
            catalog.register(name, args.output)
        else:
            catalog.save(name, ingestion.index, meta=meta)
        payload["catalog"] = {"root": str(catalog.root), "name": name}
    return payload


def _cmd_stats(args: argparse.Namespace, workspace: Workspace) -> dict:
    from repro.telemetry.export import read_trace, summarize_trace

    if args.tenants:
        raise ConfigError(
            "--tenants reports a daemon's accounting table; it needs --remote"
        )
    if args.repeat < 1:
        raise ConfigError("--repeat must be at least 1")
    for expression in args.expr or ():
        # Reuse the compiled query object so repeats exercise the engine's
        # plan/result caches rather than regex re-compilation.
        compiled = workspace.query(expression).query
        for _ in range(args.repeat - 1):
            workspace.query(compiled)
    # Flush before reading --trace-file: it may be this very run's --trace.
    workspace.telemetry.flush()
    payload: dict = {
        "type": "StatsReport",
        "ok": True,
        "stats": workspace.stats(),
        "metrics": workspace.telemetry.registry.snapshot(),
    }
    if args.prometheus:
        payload["prometheus"] = workspace.metrics_text()
    if args.trace_file is not None:
        payload["trace"] = summarize_trace(read_trace(args.trace_file))
    return payload


def _cmd_trace(args: argparse.Namespace) -> dict:
    from repro.telemetry.export import (
        build_trace_tree,
        read_trace,
        summarize_trace,
        tail_trace,
    )

    files = [str(name) for name in args.file]
    if args.trace_id is not None:
        # One distributed trace may span several files (the client's, the
        # server's); chain them all before reconstructing the span tree.
        records: list[dict] = []
        for name in files:
            records.extend(read_trace(name))
        return {
            "type": "TraceReport",
            "ok": True,
            "files": files,
            "tree": build_trace_tree(records, args.trace_id),
        }
    if args.tail is not None:
        if args.tail < 1:
            raise ConfigError("--tail must be at least 1")
        if len(files) > 1:
            raise ConfigError("--tail reads a single --file")
        return {
            "type": "TraceReport",
            "ok": True,
            "file": files[0],
            "records": tail_trace(files[0], args.tail),
        }
    records = []
    for name in files:
        records.extend(read_trace(name))
    payload: dict = {"type": "TraceReport", "ok": True}
    if len(files) == 1:
        payload["file"] = files[0]
    else:
        payload["files"] = files
    payload["summary"] = summarize_trace(records)
    return payload


def _cmd_slow(args: argparse.Namespace) -> dict:
    from repro.telemetry import summarize_slow
    from repro.telemetry.export import read_trace, tail_trace

    if args.tail is not None:
        if args.tail < 1:
            raise ConfigError("--tail must be at least 1")
        return {
            "type": "SlowQueryReport",
            "ok": True,
            "file": str(args.file),
            "entries": tail_trace(args.file, args.tail),
        }
    return {
        "type": "SlowQueryReport",
        "ok": True,
        "file": str(args.file),
        "summary": summarize_slow(read_trace(args.file)),
    }


def _remote_client(args: argparse.Namespace, telemetry=None):
    from repro.service.client import ServiceClient, parse_address

    host, port = parse_address(args.remote)
    return ServiceClient(host, port, tenant=args.tenant, telemetry=telemetry)


def _cmd_query_remote(args: argparse.Namespace) -> dict:
    # --trace on a remote query records the *client side* of the distributed
    # trace: the minted context travels on the wire, the daemon's spans
    # parent onto it, and 'repro trace --id' joins the two files back up.
    telemetry = (
        TelemetryConfig(trace_path=args.trace_path).build()
        if args.trace_path is not None
        else None
    )
    try:
        with _remote_client(args, telemetry=telemetry) as client:
            envelope = client.request(
                "query",
                {
                    "expr": args.expr,
                    "semantics": args.semantics,
                    **({"snapshot": args.dataset} if args.dataset else {}),
                },
            )
    finally:
        if telemetry is not None:
            telemetry.close()
    payload = envelope["result"]
    payload["served_by"] = args.remote
    if envelope.get("trace") is not None:
        payload["trace"] = envelope["trace"]
    return payload


def _cmd_stats_remote(args: argparse.Namespace) -> dict:
    with _remote_client(args) as client:
        if args.repeat < 1:
            raise ConfigError("--repeat must be at least 1")
        for expression in args.expr or ():
            for _ in range(args.repeat):
                client.query(expression, snapshot=args.dataset)
        payload: dict = dict(client.stats())
        if args.tenants:
            # Surface the accounting table on its own key so scripts can
            # read it without digging through the server block.
            payload["tenants"] = payload.get("server", {}).get("tenants", {})
        if args.prometheus:
            payload["prometheus"] = client.metrics_text()
    payload["served_by"] = args.remote
    return payload


def _cmd_serve(args: argparse.Namespace) -> dict:
    from repro.service.server import QueryService

    service = QueryService(_config_from_args(ServiceConfig, args))
    host, port = service.start()
    # One machine-readable ready line, flushed immediately, so wrappers
    # (tests, CI smoke, process supervisors) can discover the bound port.
    ready = {
        "ok": True,
        "command": "serve",
        "ready": {
            "host": host,
            "port": port,
            "metrics": service.metrics_address,
            "snapshots": service.dataset_names(),
            "default": service.default_snapshot,
        },
    }
    print(json.dumps(ready), flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
    return {
        "type": "ServeReport",
        "ok": True,
        "address": [host, port],
        "server": service.server_stats(),
    }


def _cmd_info(args: argparse.Namespace) -> dict:
    from repro.storage.catalog import DatasetCatalog
    from repro.storage.snapshot import snapshot_info

    if args.snapshot is not None:
        return {"type": "SnapshotInfo", "ok": True, "snapshot": snapshot_info(args.snapshot)}
    catalog = DatasetCatalog(args.catalog)
    if args.name is not None:
        return {"type": "SnapshotInfo", "ok": True, "snapshot": catalog.info(args.name)}
    return {
        "type": "CatalogInfo",
        "ok": True,
        "catalog": {"root": str(catalog.root), "snapshots": catalog.entries()},
    }


# -- the command table ---------------------------------------------------------


def _opt(*flags: str, **kwargs) -> tuple:
    """A hand-written option (one no config field backs), as ``add_argument`` input."""
    return flags, kwargs


class Command(NamedTuple):
    """One subcommand: help, handler, and where its options come from."""

    help: str
    run: Callable  # run(args, workspace) with ``graph``, else run(args)
    options: tuple = ()  # hand-written options
    configs: tuple = ()  # config classes whose flagged fields become options
    exclusive: tuple = ()  # options forming one required either/or group
    graph: bool = False  # runs on a local workspace: graph source + engine/telemetry flags
    remote: Callable | None = None  # run(args) instead when --remote HOST:PORT is given


_GRAPH_SOURCES = (
    _opt("--graph", metavar="FILE", help="graph file (.tsv edge list or .json)"),
    _opt("--figure", choices=FIGURE_GRAPHS, help="one of the paper's figure graphs"),
    _opt(
        "--snapshot",
        metavar="FILE",
        help="binary .rgz snapshot (opened zero-copy, no graph rebuild)",
    ),
)
_REMOTE = _opt(
    "--remote", metavar="HOST:PORT", help="send the request to a running 'repro serve' daemon"
)
_REMOTE_OPTIONS = (
    _opt("--tenant", default="cli", help="tenant id for --remote requests (default 'cli')"),
    _opt("--dataset", default=None, help="with --remote: the server-side snapshot name to query"),
)
_INDENT = _opt(
    "--indent", type=int, default=2, help="JSON indentation of the envelope (0 for compact)"
)
_EXPR = _opt("--expr", required=True, help="the regular path query expression")
_GOAL = _opt("--goal", required=True, help="the goal query expression")
_SEMANTICS = _opt(
    "--semantics",
    choices=QUERY_SEMANTICS,
    default="path",
    help="monadic node selection (path) or classical pair selection (binary)",
)
_TAIL = _opt("--tail", type=int, default=None, help="show the last N records, not the summary")

COMMANDS = {
    "learn": Command(
        "learn a query from labeled nodes (Algorithm 1/2)",
        _cmd_learn,
        options=(
            _opt(
                "--positives",
                required=True,
                help="comma-separated positive nodes (binary semantics: origin:end pairs)",
            ),
            _opt(
                "--negatives",
                default="",
                help="comma-separated negative nodes (binary semantics: origin:end pairs)",
            ),
            _SEMANTICS,
        ),
        configs=(LearnerConfig,),
        graph=True,
    ),
    "query": Command(
        "evaluate a regular path query",
        _cmd_query,
        options=(_EXPR, _SEMANTICS),
        graph=True,
        remote=_cmd_query_remote,
    ),
    "explain": Command(
        "plan a query without running it (rewrites, inputs, chosen kernel)",
        _cmd_explain,
        options=(_EXPR, _SEMANTICS),
        graph=True,
    ),
    "experiment": Command(
        "run a Section 5 experiment on the graph",
        _cmd_experiment,
        options=(_GOAL,),
        configs=(ExperimentConfig,),
        graph=True,
    ),
    "interactive": Command(
        "run the Figure 9 interactive loop against a goal query",
        _cmd_interactive,
        options=(
            _GOAL,
            _opt(
                "--checkpoint",
                metavar="FILE",
                default=None,
                help="session checkpoint JSON: resumed from if the file exists, "
                "written (updated) when the run stops",
            ),
        ),
        configs=(InteractiveConfig,),
        graph=True,
    ),
    "bench": Command(
        "repeat query evaluations to exercise the engine caches",
        _cmd_bench,
        options=(
            _opt(
                "--expr",
                action="append",
                required=True,
                help="query expression to evaluate (repeatable)",
            ),
            _opt("--repeat", type=int, default=100, help="evaluations per expression"),
        ),
        graph=True,
    ),
    "ingest": Command(
        "bulk-load an edge file into a binary .rgz snapshot (storage layer)",
        _cmd_ingest,
        options=(
            _opt(
                "--input",
                required=True,
                metavar="FILE",
                help="edge file (.tsv/.jsonl/.csv, '.gz' decompressed on the fly)",
            ),
            _opt(
                "--format",
                choices=("auto", "edge-list", "jsonl", "csv"),
                default="auto",
                help="input format (default: guessed from the suffix)",
            ),
            _opt("--output", metavar="FILE", default=None, help="snapshot file to write (.rgz)"),
            _opt("--catalog", metavar="DIR", default=None, help="register the snapshot here"),
            _opt("--name", default=None, help="catalog name (default: the input file's stem)"),
            _opt(
                "--on-error",
                choices=("raise", "skip"),
                default="raise",
                help="malformed-line policy (default raise)",
            ),
            _opt(
                "--max-errors",
                type=int,
                default=None,
                help="with --on-error skip: abort after this many malformed lines",
            ),
        ),
    ),
    "info": Command(
        "inspect a .rgz snapshot header or list a snapshot catalog",
        _cmd_info,
        options=(_opt("--name", default=None, help="with --catalog: describe one named snapshot"),),
        exclusive=(
            _opt("--snapshot", metavar="FILE", help="snapshot file to describe"),
            _opt("--catalog", metavar="DIR", help="catalog directory to describe"),
        ),
    ),
    "stats": Command(
        "report engine/cache/storage economics for a graph workspace",
        _cmd_stats,
        options=(
            _opt(
                "--expr",
                action="append",
                default=None,
                help="query traffic to drive before reporting (repeatable)",
            ),
            _opt("--repeat", type=int, default=1, help="evaluations per --expr expression"),
            _opt(
                "--prometheus",
                action="store_true",
                help="include the Prometheus text exposition in the envelope",
            ),
            _opt(
                "--trace-file",
                metavar="FILE",
                default=None,
                help="also summarize span timings and cache economics from this JSONL trace",
            ),
            _opt(
                "--tenants",
                action="store_true",
                help="with --remote: report the daemon's per-tenant accounting table",
            ),
        ),
        graph=True,
        remote=_cmd_stats_remote,
    ),
    "trace": Command(
        "tail, summarize or reconstruct a structured JSONL span trace",
        _cmd_trace,
        options=(
            _opt(
                "--file",
                required=True,
                action="append",
                metavar="FILE",
                help="a JSONL trace file (repeatable: e.g. the client's and the "
                "server's files of one distributed trace)",
            ),
            _TAIL,
            _opt(
                "--id",
                dest="trace_id",
                metavar="TRACE_ID",
                default=None,
                help="reconstruct one distributed trace as a span tree (records "
                "tagged with this trace id across every --file)",
            ),
        ),
    ),
    "slow": Command(
        "tail or summarize a daemon's slow-query log (serve --slow-log)",
        _cmd_slow,
        options=(
            _opt("--file", required=True, metavar="FILE", help="the slow-query JSONL log"),
            _TAIL,
        ),
    ),
    "serve": Command(
        "run the query-service daemon over a catalog of snapshots",
        _cmd_serve,
        configs=(ServiceConfig,),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Learning path queries on graph databases (Bonifati-Ciucanu-Lemay, "
            "EDBT 2015): learn, evaluate and benchmark regular path queries "
            "from the command line."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help)
        options = (_INDENT, *command.options)
        exclusive, configs = command.exclusive, command.configs
        if command.graph:
            exclusive = _GRAPH_SOURCES
            configs = (EngineConfig, TelemetryConfig, *configs)
            if command.remote is not None:
                exclusive += (_REMOTE,)
                options += _REMOTE_OPTIONS
        if exclusive:
            group = sub.add_mutually_exclusive_group(required=True)
            for flags, kwargs in exclusive:
                group.add_argument(*flags, **kwargs)
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
        for config_cls in configs:
            _add_config_flags(sub, config_cls)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    indent = args.indent if args.indent and args.indent > 0 else None
    started = time.perf_counter()
    workspace = None
    try:
        if command.remote is not None and args.remote:
            outcome = command.remote(args)
        elif command.graph:
            workspace = _make_workspace(args)
            outcome = command.run(args, workspace)
            # Push any buffered span records out so a --trace file is complete
            # when the envelope prints.
            workspace.telemetry.flush()
        else:
            # The storage/trace/service commands work on files, catalogs or a
            # daemon, not on a local workspace.
            outcome = command.run(args)
        envelope = {
            "ok": True,
            "command": args.command,
            "elapsed": time.perf_counter() - started,
            "result": outcome if isinstance(outcome, dict) else outcome.to_dict(),
        }
        if workspace is not None:
            envelope["engine_stats"] = workspace.stats()
    except (ReproError, OSError) as error:
        envelope = {
            "ok": False,
            "command": args.command,
            "elapsed": time.perf_counter() - started,
            "error": {"type": type(error).__name__, "message": str(error)},
        }
    print(json.dumps(envelope, indent=indent, sort_keys=False))
    return 0 if envelope["ok"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
