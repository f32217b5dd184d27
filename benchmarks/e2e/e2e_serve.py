"""The two serving workloads: ``serve-warm`` and ``serve-cold``.

Both drive a real ``repro serve`` subprocess over a catalog snapshot with
closed-loop :class:`~repro.service.ServiceClient` threads (a client sends
its next query only after the previous reply), two threads because the
reference box has two cores.  They differ in one input property -- how much
work the requests share:

* ``serve-warm`` draws from a small seeded pool, so after one warm-up pass
  every reply is a result-cache hit and the wire, admission, batch window,
  parse and result encoding do all the work;
* ``serve-cold`` sends only distinct expressions, so every reply compiles a
  plan and walks the whole graph.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import shutil
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

from e2e_common import (
    ROOT,
    SRC,
    WORK,
    Pace,
    Tracer,
    build_graph,
    mean,
    peak_rss_mb_of,
    percentile,
    quiesce,
    self_time,
    slow_downs,
    speed_probe,
    unattributed_share,
)

READY_TIMEOUT = 30.0
#: Two closed-loop connections, one tenant each: the reference box has 2 cores.
TENANTS = ("tenant-a", "tenant-b")
#: More requests per client and second than any build will complete.
MAX_QPS = 1500
#: The daemon's batch window, set by the benchmark (the program's default):
#: the one part of a query's latency that is sleep and not computing.
BATCH_WINDOW_MS = 2.0
#: A client gives up waiting for the other at the gate after this long.
GATE_TIMEOUT = 60.0
#: Replies checked against the oracle: a seeded one in CHECK_EVERY, capped.
CHECK_EVERY = 20
CHECK_MAX = 100
#: Warm-up of the traced rungs without a pool: enough to load the code paths.
TRACE_WARM_UP = 20


# -- inputs -------------------------------------------------------------------


def expression_stream(rng: random.Random, labels: list[str]):
    """Endless distinct ``A.B*.C`` expressions with 1-3-label classes.

    The syn1-syn3 shape of Section 5.1, over the synthetic alphabet; distinct
    label-class triples are distinct languages, so no two share a plan.
    """

    def label_class() -> str:
        picked = sorted(rng.sample(labels, rng.randint(1, 3)))
        return picked[0] if len(picked) == 1 else "(" + "+".join(picked) + ")"

    seen: set[str] = set()
    while True:
        expression = f"{label_class()}.{label_class()}*.{label_class()}"
        if expression not in seen:
            seen.add(expression)
            yield expression


def make_requests(spec: dict, labels: list[str], seed: int, count: int):
    """``(warm_up, requests)``: the expressions to send, from the seed alone.

    With a ``pool`` the requests are seeded draws from that many distinct
    expressions and the warm-up is the pool itself (so the timed replies are
    all cache hits); without one every request is distinct and the warm-up
    is a further set of distinct expressions (so none is).
    """
    rng = random.Random(seed)
    stream = expression_stream(rng, labels)
    pool_size = spec.get("pool")
    if pool_size:
        pool = [next(stream) for _ in range(pool_size)]
        return pool, rng.choices(pool, k=count)
    warm_up = [next(stream) for _ in range(spec["warm_up"])]
    return warm_up, [next(stream) for _ in range(count)]


# -- set-up: graph -> snapshot -> daemon ---------------------------------------


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, catalog_root: str, spec: dict) -> None:
        extra_args = ["--batch-window-ms", str(BATCH_WINDOW_MS)]
        if spec["cache_budget"] is not None:
            extra_args += ["--cache-budget", str(spec["cache_budget"])]
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self._stderr = tempfile.TemporaryFile(dir=catalog_root)
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--catalog", catalog_root, "--snapshots", spec["snapshot"],
                "--port", "0", "--allow-remote-shutdown", "--indent", "0",
                *extra_args,
            ],
            stdout=subprocess.PIPE, stderr=self._stderr, env=env, cwd=ROOT,
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], READY_TIMEOUT)
            line = self.process.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError(f"daemon gave no ready line: {self._errors()}")
            info = json.loads(line)["ready"]
        except BaseException:
            self.kill()
            raise
        self.host, self.port = info["host"], info["port"]
        self.pid = self.process.pid

    def _errors(self) -> str:
        self._stderr.seek(0)
        return self._stderr.read().decode("utf-8", "replace")[-2000:]

    def client(self, tenant: str = TENANTS[0]):
        from repro.service import ServiceClient

        return ServiceClient(self.host, self.port, tenant=tenant)

    def begin_shutdown(self) -> None:
        """Send the remote shutdown op; the daemon starts to exit by itself."""
        try:
            with self.client() as client:
                client.shutdown()
        except BaseException:
            self.kill()
            raise

    def finish_shutdown(self) -> None:
        """Wait for the exit begun by :meth:`begin_shutdown`; it must be 0.

        The daemon idles about five seconds in its own teardown (its acceptor
        thread's join times out), so callers overlap that wait with other
        work rather than pay it once per daemon.
        """
        try:
            self.process.communicate(timeout=READY_TIMEOUT)
        except BaseException:
            self.kill()
            raise
        finally:
            self._stderr.close()
        if self.process.returncode != 0:
            raise RuntimeError(f"daemon exited with code {self.process.returncode}")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()


class ServeFixture:
    """A graph, its catalog snapshot and a daemon over it; timed set-up.

    ``setup_seconds`` is at the quiet pace: the probe is read between the
    three stages (generate, save, daemon ready), each a second or less, and
    each stage's time is divided by its own slow-down.
    """

    def __init__(self, spec: dict, pace: Pace) -> None:
        from repro.storage.catalog import DatasetCatalog

        def lap() -> float:
            nonlocal started
            elapsed = perf_counter() - started
            paced = elapsed / pace.factor()
            started = perf_counter()
            return paced

        WORK.mkdir(parents=True, exist_ok=True)
        pace.factor()  # a fresh reading to start from
        started = perf_counter()
        self.snapshot = spec["snapshot"]
        self.catalog_root = tempfile.mkdtemp(prefix="catalog-", dir=WORK)
        try:
            graph = build_graph(spec)
            self.labels = sorted(graph.alphabet)
            self.setup_seconds = lap()
            DatasetCatalog(self.catalog_root).save(self.snapshot, graph)
            # The graph is not kept: a 30k-node object graph alive in the load
            # generator would bill its garbage-collector passes to the clients.
            del graph
            self.setup_seconds += lap()
            self.daemon = Daemon(self.catalog_root, spec)
        except BaseException:
            shutil.rmtree(self.catalog_root, ignore_errors=True)
            raise
        self.setup_seconds += lap()

    def close(self) -> None:
        try:
            self.daemon.finish_shutdown()
        finally:
            shutil.rmtree(self.catalog_root, ignore_errors=True)


def timed_setups(spec: dict, repeats: int) -> tuple[list[ServeFixture], list[float]]:
    """Set up ``repeats`` times; the last fixture serves the measurement.

    Seconds at the quiet pace (:class:`e2e_common.Pace`).

    Earlier daemons are told to shut down at once and are waited for by the
    caller at the end (``close``), while they idle through their teardown.
    """
    fixtures: list[ServeFixture] = []
    seconds: list[float] = []
    pace = Pace()
    try:
        for _ in range(repeats):
            if fixtures:
                fixtures[-1].daemon.begin_shutdown()
            fixtures.append(ServeFixture(spec, pace))
            seconds.append(fixtures[-1].setup_seconds)
    except BaseException:
        for fixture in fixtures:
            fixture.daemon.kill()
            shutil.rmtree(fixture.catalog_root, ignore_errors=True)
        raise
    return fixtures, seconds


def close_all(fixtures: list[ServeFixture]) -> None:
    """Wait for every daemon's clean exit and remove every temp catalog."""
    errors = []
    for fixture in fixtures:
        try:
            fixture.close()
        except (RuntimeError, subprocess.SubprocessError, OSError) as error:
            errors.append(error)
    if errors:
        raise errors[0]


# -- counters read through the client ------------------------------------------

_SERIES = re.compile(r"^(service_\w+?)(?:\{[^}]*\})? ([0-9.eE+-]+)$", re.MULTILINE)


def read_counters(client, snapshot: str) -> dict:
    """Engine and service counters, through ``stats()``/``metrics_text()``."""
    stats = client.stats()
    counters = dict(stats["datasets"][snapshot])
    counters["service_errors"] = stats["server"]["errors"]
    for name, value in _SERIES.findall(client.metrics_text()):
        if name in ("service_batches_total", "service_batched_queries_total"):
            counters[name] = float(value)
        elif name in ("service_shed_total", "service_batch_shed_total"):
            counters["service_shed"] = counters.get("service_shed", 0.0) + float(value)
    return counters


def counter_deltas(before: dict, after: dict) -> dict:
    """The layer counts of one measured section."""

    def delta(key: str) -> float:
        return float(after.get(key, 0)) - float(before.get(key, 0))

    def rate(hits: str, misses: str) -> float:
        looked_up = delta(hits) + delta(misses)
        return delta(hits) / looked_up if looked_up else 0.0

    batches = delta("service_batches_total")
    return {
        "engine.result_cache_hit_rate": rate("result_cache_hits", "result_cache_misses"),
        "engine.plan_cache_hit_rate": rate("plan_cache_hits", "plan_cache_misses"),
        "engine.plan_compilations": delta("plan_compilations"),
        "engine.states_expanded": delta("states_expanded"),
        "engine.edges_scanned": delta("edges_scanned"),
        "service.batch_mean_size": (
            delta("service_batched_queries_total") / batches if batches else 0.0
        ),
        "service.shed_total": delta("service_shed"),
        "service.errors": delta("service_errors"),
    }


# -- output check -------------------------------------------------------------


def check_replies(spec: dict, sampled: list[tuple[str, frozenset]]) -> int:
    """How many sampled replies differ from an independent evaluation.

    The oracle shares nothing with the daemon but the generator's seed: a
    regenerated in-memory graph and a fresh in-process engine on the
    pure-python backend with the planner off.
    """
    from repro.api.config import EngineConfig
    from repro.queries.path_query import PathQuery

    graph = build_graph(spec)
    oracle = EngineConfig(backend="python", planner="off").build()
    wrong = 0
    for expression, selected in sampled:
        expected = PathQuery.parse(expression, graph.alphabet).evaluate(graph, engine=oracle)
        wrong += selected != expected
    return wrong


# -- the untraced run ----------------------------------------------------------


def _client_loop(daemon, tenant, requests, slices, slice_seconds, rng, gate, out):
    """One closed-loop client: ``slices`` timed slices, the gate between them.

    The gate is a barrier of all clients whose action reads the box's pace
    (``speed_probe``) while every client waits and the daemon is idle.
    """
    from repro.errors import ReproError

    latencies: list[list[float]] = []
    spans: list[tuple[float, float]] = []
    sampled, failed = [], 0
    requests = iter(requests)
    try:
        with daemon.client(tenant) as client:
            client.ping()
            for _ in range(slices):
                gate.wait(GATE_TIMEOUT)
                begun = perf_counter()
                deadline = begun + slice_seconds
                timed: list[float] = []
                while (started := perf_counter()) < deadline:
                    expression = next(requests)
                    try:
                        result = client.query(expression)
                    except ReproError:
                        failed += 1
                        continue
                    timed.append(perf_counter() - started)
                    if rng.random() * CHECK_EVERY < 1.0:
                        sampled.append((expression, result.selected))
                latencies.append(timed)
                spans.append((begun, perf_counter()))
            gate.wait(GATE_TIMEOUT)
    except BaseException:
        gate.abort()  # do not leave the other client waiting at the gate
        raise
    out.append((latencies, spans, sampled, failed))


def at_quiet_pace(out: list, probes: list[float], window: float) -> tuple[list[float], float]:
    """``(latencies, seconds)`` of all slices, each at the quiet pace.

    Slice ``i`` ran between probe ``i`` and probe ``i + 1``, which read its
    slow-down.  A query sleeps through the batch ``window`` the benchmark set
    and computes for the rest, and the box slows only the computing: that
    part of each latency is divided by the slow-down, and so is that part of
    the slice's duration (first client's start to last client's end), in
    which each client slept one window per query.
    """
    latencies: list[float] = []
    seconds = 0.0
    clients = len(out)
    for index, slow in enumerate(slow_downs(probes)):
        timed = [value for entry in out for value in entry[0][index]]
        latencies += [window + max(value - window, 0.0) / slow for value in timed]
        begun = min(entry[1][index][0] for entry in out)
        ended = max(entry[1][index][1] for entry in out)
        asleep = window * len(timed) / clients
        seconds += asleep + max(ended - begun - asleep, 0.0) / slow
    return latencies, seconds


def run(spec: dict, seed: int, seconds: float) -> dict:
    """End-to-end numbers of one serving workload (tracing off)."""
    fixtures, setups = timed_setups(spec, spec["setup_repeats"])
    fixture = fixtures[-1]
    shutting_down = False
    try:
        clients = len(TENANTS)
        per_client = int(MAX_QPS * seconds) + 1
        warm_up, requests = make_requests(spec, fixture.labels, seed, per_client * clients)
        daemon = fixture.daemon
        with daemon.client() as control:
            for expression in warm_up:
                control.query(expression)
            before = read_counters(control, fixture.snapshot)
            quiesce()
            probes: list[float] = []
            gate = threading.Barrier(clients, action=lambda: probes.append(speed_probe()))
            slices = max(1, round(seconds / spec["slice_seconds"]))
            out: list = []
            threads = [
                threading.Thread(
                    target=_client_loop,
                    args=(
                        daemon, TENANTS[i], requests[i::clients], slices,
                        spec["slice_seconds"], random.Random(seed * 1000 + i), gate, out,
                    ),
                )
                for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            after = read_counters(control, fixture.snapshot)
        peak_rss = peak_rss_mb_of(daemon.pid)
        daemon.begin_shutdown()
        shutting_down = True
        # The output check runs while the daemon idles through its teardown.
        if len(out) != clients:
            raise RuntimeError("a client thread died")
        sampled = [pair for entry in out for pair in entry[2]][:CHECK_MAX]
        wrong = check_replies(spec, sampled)
    finally:
        if not shutting_down:
            fixture.daemon.kill()
        close_all(fixtures)

    refused = sum(entry[3] for entry in out)
    latencies, paced_seconds = at_quiet_pace(out, probes, BATCH_WINDOW_MS / 1e3)
    counts = counter_deltas(before, after)
    problems = []
    if counts["engine.result_cache_hit_rate"] != spec["expect_hit_rate"]:
        problems.append(
            f"result-cache hit rate {counts['engine.result_cache_hit_rate']} "
            f"!= {spec['expect_hit_rate']}"
        )
    if counts["service.errors"] or counts["service.shed_total"]:
        problems.append("the daemon reported errors or sheds")
    millis = [value * 1e3 for value in latencies]
    return {
        "attempted": len(latencies) + refused,
        "failed": refused + wrong,
        "problems": problems,
        "metrics": {
            "setup_s": percentile(setups, 50),
            "op_p50_ms": percentile(millis, 50),
            "op_tail_ms": percentile(millis, spec["tail_percentile"]),
            "ops_per_s": len(latencies) / paced_seconds,
            "peak_rss_mb": peak_rss,
        },
        "detail": {
            "checked_replies": len(sampled),
            "slices": slices,
            "slow_down": percentile(slow_downs(probes), 50),
            "setups": setups,
            "counts": counts,
        },
    }


# -- the traced run: the serve ladder -------------------------------------------


def run_traced(spec: dict, seed: int, seconds: float, tracer: Tracer) -> dict:
    """Per-layer numbers: the same request list at successive depths.

    Each rung replays the first requests of the seeded stream one level
    further out -- parse, engine, workspace, result encoding, the in-process
    service, the frame codec, the loopback client -- on one thread, each
    call inside a benchmark-owned span.  A rung's self time is its mean
    minus the rungs it contains.
    """
    from repro.api.config import ServiceConfig
    from repro.api.result import result_from_dict
    from repro.api.workspace import Workspace
    from repro.engine.index import GraphIndex
    from repro.queries.path_query import PathQuery
    from repro.service import QueryService, protocol
    from repro.storage.catalog import DatasetCatalog
    from repro.storage.snapshot import open_snapshot, write_snapshot
    from repro.storage.view import GraphView

    metrics: dict[str, float] = {}

    # Set-up layers, each public call on its own.
    started = perf_counter()
    with tracer.span("datasets.generate"):
        graph = build_graph(spec)
    metrics["datasets.generate_s"] = perf_counter() - started
    started = perf_counter()
    with tracer.span("engine.index_build"):
        index = GraphIndex.build(graph)
    metrics["engine.index_build_s"] = perf_counter() - started
    WORK.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="ladder-", dir=WORK)
    try:
        path = os.path.join(scratch, "ladder.rgz")
        started = perf_counter()
        with tracer.span("storage.write_snapshot"):
            write_snapshot(index, path, meta={"alphabet": sorted(graph.alphabet)})
        metrics["storage.write_snapshot_s"] = perf_counter() - started
        metrics["storage.snapshot_bytes"] = float(os.path.getsize(path))
        started = perf_counter()
        with tracer.span("storage.open_snapshot"):
            view = GraphView(open_snapshot(path))
        metrics["storage.open_snapshot_s"] = perf_counter() - started

        catalog_root = os.path.join(scratch, "catalog")
        DatasetCatalog(catalog_root).save(spec["snapshot"], graph)
        labels = sorted(graph.alphabet)
        # From here on only the mapped view is alive, as in the daemon.
        del graph, index
        count = max(1, int(spec["trace_qps"] * seconds))
        warm_up, requests = make_requests(spec, labels, seed, count)
        if not spec.get("pool"):
            # The resident-set steady state the longer untraced warm-up
            # reaches is not needed here.
            warm_up = warm_up[:TRACE_WARM_UP]
        # The in-process rungs run with the daemon's engine sizing;
        # share_caches=False so that each starts as cold as the daemon does.
        local = ServiceConfig(
            catalog_root=catalog_root,
            snapshots=(spec["snapshot"],),
            cache_budget_bytes=spec["cache_budget"],
            batch_window=BATCH_WINDOW_MS / 1e3,
            share_caches=False,
        )
        engine_config = local.engine_config()

        def rung(name: str, call, items) -> tuple[float, list]:
            quiesce()
            results = []
            for i, item in enumerate(items):
                with tracer.span(name, i):
                    results.append(call(item))
            return mean(tracer.durations(name)) * 1e3, results

        def parse(expression):
            return PathQuery.parse(expression, view.alphabet)

        parse_ms, queries = rung("queries.parse", parse, requests)

        engine = engine_config.build()
        for expression in warm_up:
            engine.evaluate(view, parse(expression))
        evaluate_ms, _ = rung(
            "engine.evaluate", lambda query: engine.evaluate(view, query), queries
        )

        workspace = Workspace(view, engine_config=engine_config)
        for expression in warm_up:
            workspace.query(expression)
        query_ms, results = rung("api.query", workspace.query, requests)
        to_dict_ms, _ = rung("api.to_dict", lambda result: result.to_dict(), results)

        payloads = [
            {"id": i, "op": "query", "tenant": TENANTS[0],
             "params": {"expr": expression, "semantics": "path"}}
            for i, expression in enumerate(requests)
        ]
        with QueryService(local) as service:
            for expression in warm_up:
                service.handle(dict(payloads[0], params={"expr": expression}))
            handle_ms, envelopes = rung("service.handle", service.handle, payloads)
        bad = [envelope for envelope in envelopes if not envelope.get("ok")]
        if bad:
            raise RuntimeError(f"in-process service failed a request: {bad[0]}")

        def encode_pair(pair):
            return protocol.encode_frame(pair[0]), protocol.encode_frame(pair[1])

        encode_ms, frames = rung("service.encode", encode_pair, list(zip(payloads, envelopes)))
        decode_ms, _ = rung(
            "service.decode",
            lambda pair: (protocol.decode_frame(pair[0]), protocol.decode_frame(pair[1])),
            frames,
        )
        from_dict_ms, _ = rung(
            "api.from_dict", lambda envelope: result_from_dict(envelope["result"]), envelopes
        )

        daemon = Daemon(catalog_root, spec)
        try:
            with daemon.client() as client:
                for expression in warm_up:
                    client.query(expression)
                before = read_counters(client, spec["snapshot"])
                quiesce()
                # Odd requests go untraced: the two interleaved halves see the
                # same daemon state, so their medians differ by the span cost.
                plain = []
                remote = []
                for i, expression in enumerate(requests):
                    if i % 2:
                        started = perf_counter()
                        remote.append(client.query(expression))
                        plain.append(perf_counter() - started)
                    else:
                        with tracer.span("service.client", i):
                            remote.append(client.query(expression))
                after = read_counters(client, spec["snapshot"])
                ping_ms, _ = rung("service.ping", lambda _: client.ping(), requests)
        except BaseException:
            daemon.kill()
            raise
        daemon.begin_shutdown()
        # Checked while the daemon idles through its teardown.
        wrong = sum(
            reply.selected != local_result.selected
            for reply, local_result in zip(remote, results)
        )
        sampled = list(zip(requests, (reply.selected for reply in remote)))
        sampled = sampled[::CHECK_EVERY][:CHECK_MAX]
        wrong += check_replies(spec, sampled)
        daemon.finish_shutdown()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    traced = tracer.durations("service.client")
    client_ms = mean(traced + plain) * 1e3
    handle_self = self_time(handle_ms, (parse_ms, evaluate_ms, to_dict_ms))
    selfs = (
        parse_ms, evaluate_ms, to_dict_ms, handle_self,
        encode_ms, decode_ms, from_dict_ms, ping_ms,
    )
    metrics.update(
        {
            "queries.parse_ms": parse_ms,
            "engine.evaluate_ms": evaluate_ms,
            "api.query_ms": query_ms,
            "api.query_self_ms": self_time(query_ms, (parse_ms, evaluate_ms)),
            "api.to_dict_ms": to_dict_ms,
            "api.from_dict_ms": from_dict_ms,
            "service.handle_ms": handle_ms,
            "service.handle_self_ms": handle_self,
            "service.encode_ms": encode_ms,
            "service.decode_ms": decode_ms,
            "service.response_bytes": mean([len(pair[1]) for pair in frames]),
            "service.client_ms": client_ms,
            "service.wire_self_ms": ping_ms,
            "serve.unattributed_share": unattributed_share(client_ms, selfs),
            "trace.overhead_share": percentile(traced, 50) / percentile(plain, 50) - 1.0,
        }
    )
    counts = counter_deltas(before, after)
    for name in ("engine.plan_compilations", "engine.states_expanded", "engine.edges_scanned"):
        counts[name] /= len(requests)
    metrics.update(counts)
    problems = []
    if counts["engine.result_cache_hit_rate"] != spec["expect_hit_rate"]:
        problems.append(
            f"result-cache hit rate {counts['engine.result_cache_hit_rate']} "
            f"!= {spec['expect_hit_rate']}"
        )

    return {
        "attempted": len(requests),
        "failed": wrong,
        "problems": problems,
        "metrics": metrics,
        "detail": {"requests": len(requests), "checked_replies": len(sampled)},
    }
