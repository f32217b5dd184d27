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
``explain``      plan a query without running it (rewrites, cost estimates,
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
daemon's (and its shard workers') spans; ``stats --remote --tenants``
reports the daemon's per-tenant accounting table.

Graphs come from ``--graph FILE`` (edge-list ``.tsv`` or ``.json``, see
:mod:`repro.graphdb.io`), ``--figure {geo,g0}`` (the paper's figure
graphs) or ``--snapshot FILE`` (a binary ``.rgz`` snapshot opened
zero-copy through the storage layer).  Every graph-backed subcommand
accepts ``--trace FILE`` (write a structured JSONL span trace) and
``--profile`` (attach per-query execution profiles to results).  Failures
print ``{"ok": false, "error": {...}}`` and exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.api.config import (
    PLANNERS,
    STRATEGIES,
    EngineConfig,
    ExperimentConfig,
    InteractiveConfig,
    LearnerConfig,
    TelemetryConfig,
)
from repro.api.result import Result
from repro.api.workspace import FIGURE_GRAPHS, Workspace
from repro.errors import ConfigError, ReproError
from repro.learning.sample import BinarySample, Sample


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

    def add_graph_source(sub: argparse.ArgumentParser, *, remote: bool = False) -> None:
        sub.add_argument(
            "--indent",
            type=int,
            default=2,
            help="JSON indentation of the envelope (default 2; 0 for compact)",
        )
        source = sub.add_mutually_exclusive_group(required=True)
        source.add_argument(
            "--graph", metavar="FILE", help="graph file (.tsv edge list or .json)"
        )
        source.add_argument(
            "--figure",
            choices=FIGURE_GRAPHS,
            help="one of the paper's figure graphs instead of a file",
        )
        source.add_argument(
            "--snapshot",
            metavar="FILE",
            help="binary .rgz snapshot (opened zero-copy, no graph rebuild)",
        )
        if remote:
            source.add_argument(
                "--remote",
                metavar="HOST:PORT",
                help="send the request to a running 'repro serve' daemon",
            )
            sub.add_argument(
                "--tenant",
                default="cli",
                help="tenant id for --remote requests (default 'cli')",
            )
            sub.add_argument(
                "--dataset",
                default=None,
                help="with --remote: the server-side snapshot name to query",
            )
        sub.add_argument(
            "--plan-cache-size", type=int, default=256, help="engine plan cache capacity"
        )
        sub.add_argument(
            "--result-cache-size",
            type=int,
            default=1024,
            help="engine result cache capacity",
        )
        sub.add_argument(
            "--backend",
            choices=("auto", "python", "numpy"),
            default="auto",
            help="kernel backend (auto: numpy when installed, else python)",
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=1,
            help="shard whole-graph kernels across this many worker processes "
            "(snapshot-backed graphs only; 1 = in-process)",
        )
        sub.add_argument(
            "--min-shard-edges",
            type=int,
            default=50_000,
            metavar="N",
            help="smallest graph (in edges) worth sharding across --workers "
            "(default 50000; 0 = always shard)",
        )
        sub.add_argument(
            "--planner",
            choices=PLANNERS,
            default="auto",
            help="cost-based query planner (auto: rewrite automata and pick "
            "kernels by estimated cost; off: verbatim compilation)",
        )
        sub.add_argument(
            "--cache-budget",
            type=int,
            default=None,
            metavar="BYTES",
            help="byte budget shared by the engine caches (default: entry-count "
            "capacity only)",
        )
        sub.add_argument(
            "--trace",
            metavar="FILE",
            default=None,
            help="write a structured JSONL span trace of the run to FILE",
        )
        sub.add_argument(
            "--profile",
            action="store_true",
            help="attach per-query execution profiles to results",
        )

    learn = subparsers.add_parser(
        "learn", help="learn a query from labeled nodes (Algorithm 1/2)"
    )
    add_graph_source(learn)
    learn.add_argument(
        "--positives",
        required=True,
        help="comma-separated positive nodes (binary semantics: origin:end pairs)",
    )
    learn.add_argument(
        "--negatives",
        default="",
        help="comma-separated negative nodes (binary semantics: origin:end pairs)",
    )
    learn.add_argument(
        "--semantics", choices=("path", "binary"), default="path", help="query semantics"
    )
    learn.add_argument("--k", type=int, default=2, help="path-length bound k")
    learn.add_argument(
        "--k-max", type=int, default=6, help="upper bound for the dynamic-k procedure"
    )
    learn.add_argument(
        "--fixed-k",
        action="store_true",
        help="disable the dynamic-k procedure (use exactly --k)",
    )
    learn.add_argument(
        "--no-generalize",
        action="store_true",
        help="use the disjunction-of-SCPs baseline instead of generalization",
    )

    query = subparsers.add_parser("query", help="evaluate a regular path query")
    add_graph_source(query, remote=True)
    query.add_argument("--expr", required=True, help="the regular path query expression")
    query.add_argument(
        "--semantics",
        choices=("path", "binary"),
        default="path",
        help="monadic node selection (path) or classical pair selection (binary)",
    )

    explain = subparsers.add_parser(
        "explain",
        help="plan a query without running it (rewrites, costs, chosen kernel)",
    )
    add_graph_source(explain)
    explain.add_argument("--expr", required=True, help="the regular path query expression")
    explain.add_argument(
        "--semantics",
        choices=("path", "binary"),
        default="path",
        help="monadic node selection (path) or classical pair selection (binary)",
    )

    experiment = subparsers.add_parser(
        "experiment", help="run a Section 5 experiment on the graph"
    )
    add_graph_source(experiment)
    experiment.add_argument("--goal", required=True, help="the goal query expression")
    experiment.add_argument(
        "--scenario",
        choices=("static", "interactive"),
        default="static",
        help="static sweep (Figures 11/12) or interactive loop (Table 2)",
    )
    experiment.add_argument("--seed", type=int, default=0, help="random seed")
    experiment.add_argument("--k-start", type=int, default=2, help="initial k")
    experiment.add_argument("--k-max", type=int, default=4, help="maximal k")
    experiment.add_argument(
        "--fractions",
        default=None,
        help="static scenario: comma-separated labeled fractions (e.g. 0.05,0.1)",
    )
    experiment.add_argument(
        "--no-generalize",
        action="store_true",
        help="static scenario: use the disjunction-of-SCPs baseline",
    )
    experiment.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="kR",
        help="interactive scenario: node-selection strategy",
    )
    experiment.add_argument(
        "--max-interactions",
        type=int,
        default=None,
        help="interactive scenario: interaction budget (default: 10%% of nodes)",
    )
    experiment.add_argument(
        "--target-f1",
        type=float,
        default=1.0,
        help="interactive scenario: halt threshold (1.0 = paper's strongest)",
    )

    interactive = subparsers.add_parser(
        "interactive",
        help="run the Figure 9 interactive loop against a goal query",
    )
    add_graph_source(interactive)
    interactive.add_argument("--goal", required=True, help="the goal query expression")
    interactive.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="kR",
        help="node-selection strategy (default kR)",
    )
    interactive.add_argument("--seed", type=int, default=0, help="random seed")
    interactive.add_argument("--k-start", type=int, default=2, help="initial k")
    interactive.add_argument("--k-max", type=int, default=6, help="maximal k")
    interactive.add_argument(
        "--max-interactions",
        type=int,
        default=None,
        help="interaction budget (default: unbounded, halt on goal/exhaustion)",
    )
    interactive.add_argument(
        "--pool-size",
        type=int,
        default=512,
        help="candidate pool per round (0 = full scan; default 512)",
    )
    interactive.add_argument(
        "--target-f1",
        type=float,
        default=1.0,
        help="halt threshold (1.0 = paper's strongest condition)",
    )
    interactive.add_argument(
        "--checkpoint",
        metavar="FILE",
        default=None,
        help=(
            "session checkpoint JSON: resumed from if the file exists, "
            "written (updated) when the run stops"
        ),
    )

    bench = subparsers.add_parser(
        "bench", help="repeat query evaluations to exercise the engine caches"
    )
    add_graph_source(bench)
    bench.add_argument(
        "--expr",
        action="append",
        required=True,
        help="query expression to evaluate (repeatable)",
    )
    bench.add_argument(
        "--repeat", type=int, default=100, help="evaluations per expression (default 100)"
    )

    ingest = subparsers.add_parser(
        "ingest",
        help="bulk-load an edge file into a binary .rgz snapshot (storage layer)",
    )
    ingest.add_argument("--indent", type=int, default=2, help="JSON indentation of the envelope")
    ingest.add_argument(
        "--input",
        required=True,
        metavar="FILE",
        help="edge file (.tsv/.jsonl/.csv, '.gz' decompressed on the fly)",
    )
    ingest.add_argument(
        "--format",
        choices=("auto", "edge-list", "jsonl", "csv"),
        default="auto",
        help="input format (default: guessed from the suffix)",
    )
    ingest.add_argument(
        "--output", metavar="FILE", default=None, help="snapshot file to write (.rgz)"
    )
    ingest.add_argument(
        "--catalog", metavar="DIR", default=None, help="register the snapshot here"
    )
    ingest.add_argument(
        "--name", default=None, help="catalog name (default: the input file's stem)"
    )
    ingest.add_argument(
        "--on-error",
        choices=("raise", "skip"),
        default="raise",
        help="malformed-line policy (default raise)",
    )
    ingest.add_argument(
        "--max-errors",
        type=int,
        default=None,
        help="with --on-error skip: abort after this many malformed lines",
    )

    info = subparsers.add_parser(
        "info",
        help="inspect a .rgz snapshot header or list a snapshot catalog",
    )
    info.add_argument("--indent", type=int, default=2, help="JSON indentation of the envelope")
    info_source = info.add_mutually_exclusive_group(required=True)
    info_source.add_argument("--snapshot", metavar="FILE", help="snapshot file to describe")
    info_source.add_argument("--catalog", metavar="DIR", help="catalog directory to describe")
    info.add_argument("--name", default=None, help="with --catalog: describe one named snapshot")

    stats = subparsers.add_parser(
        "stats",
        help="report engine/cache/storage economics for a graph workspace",
    )
    add_graph_source(stats, remote=True)
    stats.add_argument(
        "--expr",
        action="append",
        default=None,
        help="query traffic to drive before reporting (repeatable)",
    )
    stats.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="evaluations per --expr expression (default 1)",
    )
    stats.add_argument(
        "--prometheus",
        action="store_true",
        help="include the Prometheus text exposition in the envelope",
    )
    stats.add_argument(
        "--trace-file",
        metavar="FILE",
        default=None,
        help="also summarize span timings and cache economics from this JSONL trace",
    )
    stats.add_argument(
        "--tenants",
        action="store_true",
        help="with --remote: report the daemon's per-tenant accounting table",
    )

    trace = subparsers.add_parser(
        "trace",
        help="tail, summarize or reconstruct a structured JSONL span trace",
    )
    trace.add_argument("--indent", type=int, default=2, help="JSON indentation of the envelope")
    trace.add_argument(
        "--file",
        required=True,
        action="append",
        metavar="FILE",
        help="a JSONL trace file (repeatable: e.g. the client's and the "
        "server's files of one distributed trace)",
    )
    trace.add_argument(
        "--tail",
        type=int,
        default=None,
        help="show the last N trace records instead of the summary",
    )
    trace.add_argument(
        "--id",
        dest="trace_id",
        metavar="TRACE_ID",
        default=None,
        help="reconstruct one distributed trace as a span tree (records "
        "tagged with this trace id across every --file)",
    )

    slow = subparsers.add_parser(
        "slow",
        help="tail or summarize a daemon's slow-query log (serve --slow-log)",
    )
    slow.add_argument("--indent", type=int, default=2, help="JSON indentation of the envelope")
    slow.add_argument("--file", required=True, metavar="FILE", help="the slow-query JSONL log")
    slow.add_argument(
        "--tail",
        type=int,
        default=None,
        help="show the last N slow-query entries instead of the summary",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the query-service daemon over a catalog of snapshots",
    )
    serve.add_argument("--indent", type=int, default=2, help="JSON indentation of the envelope")
    serve.add_argument(
        "--catalog", metavar="DIR", default=None, help="snapshot catalog directory"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default loopback)")
    serve.add_argument(
        "--port", type=int, default=0, help="bind port (default 0 = ephemeral, printed on start)"
    )
    serve.add_argument(
        "--snapshots",
        default=None,
        help="comma-separated catalog names to preload (default: all registered)",
    )
    serve.add_argument(
        "--default-snapshot",
        default=None,
        help="snapshot answering requests that name none (default: first preloaded)",
    )
    serve.add_argument(
        "--max-concurrent", type=int, default=32, help="global in-flight request cap"
    )
    serve.add_argument(
        "--per-tenant", type=int, default=8, help="per-tenant in-flight request cap"
    )
    serve.add_argument(
        "--queue-depth", type=int, default=64, help="batch queue bound (shed past it)"
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        help="micro-batch coalescing window in milliseconds",
    )
    serve.add_argument(
        "--batch-max", type=int, default=16, help="maximal queries per micro-batch"
    )
    serve.add_argument(
        "--backend",
        choices=("auto", "python", "numpy"),
        default="auto",
        help="kernel backend of every dataset engine",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard worker processes per dataset engine (1 = in-process)",
    )
    serve.add_argument(
        "--min-shard-edges",
        type=int,
        default=50_000,
        metavar="N",
        help="smallest graph (in edges) worth sharding across --workers "
        "(default 50000; 0 = always shard)",
    )
    serve.add_argument(
        "--planner",
        choices=PLANNERS,
        default="auto",
        help="cost-based query planner of every dataset engine",
    )
    serve.add_argument(
        "--cache-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="byte budget of every dataset engine's caches",
    )
    serve.add_argument(
        "--no-share-caches",
        action="store_true",
        help="give each dataset workspace private caches instead of sharing "
        "them by snapshot content identity",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve Prometheus text on this HTTP port (GET /metrics)",
    )
    serve.add_argument(
        "--metrics-file",
        metavar="FILE",
        default=None,
        help="write the final Prometheus text here on shutdown",
    )
    serve.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write the daemon's structured JSONL span trace to FILE "
        "(request spans parent onto client-supplied trace contexts)",
    )
    serve.add_argument(
        "--slow-log",
        metavar="FILE",
        default=None,
        help="append queries slower than --slow-query-ms to FILE as JSONL "
        "(full profile + plan explanation; 'repro slow' reads it)",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=1000.0,
        metavar="MS",
        help="slow-query latency threshold in milliseconds (default 1000)",
    )
    serve.add_argument(
        "--allow-remote-shutdown",
        action="store_true",
        help="let clients stop the server via the shutdown op (tests/CI)",
    )

    return parser


def _make_workspace(args: argparse.Namespace) -> Workspace:
    engine_config = EngineConfig(
        plan_cache_size=args.plan_cache_size,
        result_cache_size=args.result_cache_size,
        backend=getattr(args, "backend", "auto"),
        workers=getattr(args, "workers", 1),
        min_shard_edges=getattr(args, "min_shard_edges", 50_000),
        planner=getattr(args, "planner", "auto"),
        cache_budget_bytes=getattr(args, "cache_budget", None),
    )
    kwargs: dict = {"engine_config": engine_config}
    if args.trace is not None or args.profile:
        kwargs["telemetry_config"] = TelemetryConfig(
            enabled=args.trace is not None,
            trace_path=args.trace,
            profile=args.profile,
        )
    if getattr(args, "snapshot", None) is not None:
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
    config = LearnerConfig(
        k=args.k,
        k_max=max(args.k, args.k_max),
        dynamic_k=not args.fixed_k,
        semantics=args.semantics,
        generalize=not args.no_generalize,
    )
    return workspace.learn(sample, config)


def _cmd_query(args: argparse.Namespace, workspace: Workspace) -> Result:
    return workspace.query(args.expr, semantics=args.semantics)


def _cmd_explain(args: argparse.Namespace, workspace: Workspace) -> Result:
    return workspace.explain(args.expr, semantics=args.semantics)


def _cmd_experiment(args: argparse.Namespace, workspace: Workspace) -> Result:
    kwargs = dict(
        goal=args.goal,
        scenario=args.scenario,
        seed=args.seed,
        k_start=args.k_start,
        k_max=args.k_max,
        use_generalization=not args.no_generalize,
        strategy=args.strategy,
        max_interactions=args.max_interactions,
        target_f1=args.target_f1,
    )
    if args.fractions is not None:
        try:
            kwargs["labeled_fractions"] = tuple(
                float(fraction) for fraction in _split_csv(args.fractions)
            )
        except ValueError as error:
            raise ConfigError(f"malformed --fractions value: {error}") from error
    return workspace.run_experiment(ExperimentConfig(**kwargs))


def _cmd_interactive(args: argparse.Namespace, workspace: Workspace) -> Result:
    import os

    config = InteractiveConfig(
        strategy=args.strategy,
        seed=args.seed,
        k_start=args.k_start,
        k_max=max(args.k_start, args.k_max),
        max_interactions=args.max_interactions,
        pool_size=args.pool_size if args.pool_size > 0 else None,
        target_f1=args.target_f1,
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
        TelemetryConfig(trace_path=args.trace).build()
        if getattr(args, "trace", None) is not None
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
    from repro.api.config import ServiceConfig
    from repro.service.server import QueryService

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        catalog_root=args.catalog,
        snapshots=tuple(_split_csv(args.snapshots)) if args.snapshots else (),
        default_snapshot=args.default_snapshot,
        max_concurrent=args.max_concurrent,
        per_tenant=args.per_tenant,
        queue_depth=args.queue_depth,
        batch_window=args.batch_window_ms / 1000.0,
        batch_max=args.batch_max,
        backend=args.backend,
        workers=args.workers,
        min_shard_edges=args.min_shard_edges,
        planner=args.planner,
        cache_budget_bytes=args.cache_budget,
        share_caches=not args.no_share_caches,
        metrics_port=args.metrics_port,
        metrics_path=args.metrics_file,
        allow_remote_shutdown=args.allow_remote_shutdown,
        trace_path=args.trace,
        slow_log_path=args.slow_log,
        slow_query_seconds=args.slow_query_ms / 1000.0,
    )
    service = QueryService(config)
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


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    indent = args.indent if args.indent and args.indent > 0 else None
    started = time.perf_counter()
    try:
        # The storage/trace/service commands work on files, catalogs or a
        # remote daemon, not on a local workspace.
        if args.command == "ingest":
            outcome = _cmd_ingest(args)
        elif args.command == "info":
            outcome = _cmd_info(args)
        elif args.command == "trace":
            outcome = _cmd_trace(args)
        elif args.command == "slow":
            outcome = _cmd_slow(args)
        elif args.command == "serve":
            outcome = _cmd_serve(args)
        elif args.command == "query" and getattr(args, "remote", None):
            outcome = _cmd_query_remote(args)
        elif args.command == "stats" and getattr(args, "remote", None):
            outcome = _cmd_stats_remote(args)
        else:
            workspace = _make_workspace(args)
            handler = {
                "learn": _cmd_learn,
                "query": _cmd_query,
                "explain": _cmd_explain,
                "experiment": _cmd_experiment,
                "interactive": _cmd_interactive,
                "bench": _cmd_bench,
                "stats": _cmd_stats,
            }[args.command]
            outcome = handler(args, workspace)
            # Push any buffered span records out so a --trace file is complete
            # when the envelope prints.
            workspace.telemetry.flush()
        payload = outcome if isinstance(outcome, dict) else outcome.to_dict()
        envelope = {
            "ok": True,
            "command": args.command,
            "elapsed": time.perf_counter() - started,
            "result": payload,
        }
        if args.command not in ("ingest", "info", "trace", "slow", "serve") and not getattr(
            args, "remote", None
        ):
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
