"""The micro-batcher: coalescing, bounded queue, per-item error isolation."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.api import Workspace
from repro.errors import OverloadedError, ServiceError
from repro.queries.path_query import PathQuery
from repro.service.batching import MicroBatcher
from repro.telemetry.metrics import MetricsRegistry


@pytest.fixture
def dataset():
    """What the batcher is handed: the hot snapshot's workspace."""
    return Workspace.from_figure("geo")


@pytest.fixture
def batcher(request):
    registry = MetricsRegistry()
    batcher = MicroBatcher(
        batch_window=0.0, batch_max=16, queue_depth=8, registry=registry
    )
    batcher.registry = registry
    batcher.start()
    request.addfinalizer(batcher.stop)
    return batcher


def _submit_concurrently(batcher, dataset, queries, timeout=30.0):
    results: dict[int, object] = {}
    errors: dict[int, Exception] = {}

    def worker(i, query):
        try:
            results[i] = batcher.submit(dataset, query, timeout=timeout)
        except Exception as error:  # noqa: BLE001 - asserted by callers
            errors[i] = error

    threads = [
        threading.Thread(target=worker, args=(i, query))
        for i, query in enumerate(queries)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, errors


def test_paused_batcher_coalesces_one_batch(batcher, dataset):
    expressions = ["tram", "bus", "(tram+bus)*.cinema", "tram.tram"]
    queries = [PathQuery.parse(expr, dataset.graph.alphabet) for expr in expressions]
    expected = [dataset.engine.evaluate(dataset.graph, query) for query in queries]

    batcher.pause()
    done = threading.Event()
    results: list = [None] * len(queries)

    def worker(i):
        results[i] = batcher.submit(dataset, queries[i], timeout=30.0)
        if all(r is not None for r in results):
            done.set()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(queries))]
    for thread in threads:
        thread.start()
    # All four must be queued (not executing) while paused.
    for _ in range(500):
        if batcher.depth == len(queries):
            break
        threading.Event().wait(0.01)
    assert batcher.depth == len(queries)
    batcher.resume()
    assert done.wait(30.0)
    for thread in threads:
        thread.join()

    assert [answer.node_set() for answer in results] == expected
    # Exactly one evaluate_many call served all four requests.
    assert batcher.registry.counter("service_batches_total").value == 1
    assert batcher.registry.counter("service_batched_queries_total").value == 4
    snapshot = batcher.registry.snapshot()["service_batch_size"]
    assert snapshot["count"] == 1 and snapshot["sum"] == 4.0


def test_queue_depth_sheds_structured_429(batcher, dataset):
    query = PathQuery.parse("tram", dataset.graph.alphabet)
    batcher.pause()
    filler_done = threading.Event()
    admitted = []

    def filler(i):
        admitted.append(i)
        batcher.submit(dataset, query, timeout=30.0)
        if len(admitted) == batcher.queue_depth:
            filler_done.set()

    threads = [
        threading.Thread(target=filler, args=(i,)) for i in range(batcher.queue_depth)
    ]
    for thread in threads:
        thread.start()
    for _ in range(500):
        if batcher.depth == batcher.queue_depth:
            break
        threading.Event().wait(0.01)
    assert batcher.depth == batcher.queue_depth
    # The queue is full: the next submission sheds instead of hanging.
    with pytest.raises(OverloadedError) as exc_info:
        batcher.submit(dataset, query, timeout=30.0)
    assert exc_info.value.status == 429
    assert batcher.registry.counter("service_batch_shed_total").value == 1
    batcher.resume()
    for thread in threads:
        thread.join()


def test_batch_max_splits_large_bursts(dataset):
    registry = MetricsRegistry()
    batcher = MicroBatcher(batch_window=0.0, batch_max=3, queue_depth=64, registry=registry)
    batcher.start()
    try:
        batcher.pause()
        queries = [PathQuery.parse("tram", dataset.graph.alphabet) for _ in range(7)]
        holder: dict = {}

        def worker(i):
            holder[i] = batcher.submit(dataset, queries[i], timeout=30.0)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(7)]
        for thread in threads:
            thread.start()
        for _ in range(500):
            if batcher.depth == 7:
                break
            threading.Event().wait(0.01)
        batcher.resume()
        for thread in threads:
            thread.join()
        assert len(holder) == 7
        assert registry.counter("service_batched_queries_total").value == 7
        # 7 requests at batch_max=3 need at least ceil(7/3)=3 batches.
        assert registry.counter("service_batches_total").value >= 3
    finally:
        batcher.stop()


def test_error_isolated_to_its_request(batcher, dataset):
    good = PathQuery.parse("tram", dataset.graph.alphabet)
    bad = PathQuery.parse("bus", dataset.graph.alphabet)
    # Sabotage one query object so only its evaluation fails.
    bad.table = None
    batcher.pause()
    results, errors = {}, {}
    lock = threading.Lock()

    def worker(i, query):
        try:
            value = batcher.submit(dataset, query, timeout=30.0)
            with lock:
                results[i] = value
        except Exception as error:  # noqa: BLE001
            with lock:
                errors[i] = error

    threads = [
        threading.Thread(target=worker, args=(i, query))
        for i, query in enumerate([good, bad, good])
    ]
    for thread in threads:
        thread.start()
    for _ in range(500):
        if batcher.depth == 3:
            break
        threading.Event().wait(0.01)
    batcher.resume()
    for thread in threads:
        thread.join()
    # The good requests got their node sets; only the bad one failed.
    assert set(results) == {0, 2} and results[0].node_set() == results[2].node_set()
    assert set(errors) == {1}


def test_stop_fails_pending_requests_cleanly(dataset):
    batcher = MicroBatcher(batch_window=0.0, queue_depth=8)
    batcher.start()
    batcher.pause()
    query = PathQuery.parse("tram", dataset.graph.alphabet)
    outcome: dict = {}

    def worker():
        try:
            outcome["result"] = batcher.submit(dataset, query, timeout=30.0)
        except Exception as error:  # noqa: BLE001
            outcome["error"] = error

    thread = threading.Thread(target=worker)
    thread.start()
    for _ in range(500):
        if batcher.depth == 1:
            break
        threading.Event().wait(0.01)
    batcher.stop()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert "error" in outcome and outcome["error"].status == 503
    # And a post-stop submission is refused, not queued forever.
    with pytest.raises(ServiceError) as exc_info:
        batcher.submit(dataset, query, timeout=1.0)
    assert exc_info.value.status == 503


def test_duplicate_queries_deduplicate_within_batch(batcher, dataset):
    """A burst of identical expressions costs one evaluation, fanned back."""
    expressions = ["tram", "tram", "bus", "tram", "bus"]
    queries = [PathQuery.parse(expr, dataset.graph.alphabet) for expr in expressions]
    expected = [dataset.engine.evaluate(dataset.graph, query) for query in queries]

    batcher.pause()
    results, errors = {}, {}
    threads = []

    def worker(i):
        try:
            results[i] = batcher.submit(dataset, queries[i], timeout=30.0)
        except Exception as error:  # noqa: BLE001
            errors[i] = error

    for i in range(len(queries)):
        thread = threading.Thread(target=worker, args=(i,))
        threads.append(thread)
        thread.start()
    for _ in range(500):
        if batcher.depth == len(queries):
            break
        threading.Event().wait(0.01)
    batcher.resume()
    for thread in threads:
        thread.join()

    assert not errors
    assert [results[i].node_set() for i in range(len(queries))] == expected
    # 5 submissions, 2 distinct expressions -> 3 piggybacked on a batch-mate.
    deduped = batcher.registry.counter("service_batch_deduped_total").value
    assert deduped == 3


def test_queries_without_expression_never_deduplicate(batcher, dataset):
    """Dedupe keys fall back to identity for expression-less queries."""
    tram = PathQuery.parse("tram", dataset.graph.alphabet)
    bare = [q.dfa for q in (tram, tram)]  # raw DFAs carry no .expression
    expected = dataset.engine.evaluate(dataset.graph, tram)

    batcher.pause()
    results, errors = {}, {}
    threads = []

    def worker(i):
        try:
            results[i] = batcher.submit(dataset, bare[i], timeout=30.0)
        except Exception as error:  # noqa: BLE001
            errors[i] = error

    for i in range(len(bare)):
        thread = threading.Thread(target=worker, args=(i,))
        threads.append(thread)
        thread.start()
    for _ in range(500):
        if batcher.depth == len(bare):
            break
        threading.Event().wait(0.01)
    batcher.resume()
    for thread in threads:
        thread.join()

    assert not errors
    assert results[0].node_set() == results[1].node_set() == expected
    assert batcher.registry.counter("service_batch_deduped_total").value == 0


def test_a_timed_out_request_leaves_the_queue(dataset):
    """A 504 frees its slot: the dead entry is neither drained nor counted."""
    registry = MetricsRegistry()
    batcher = MicroBatcher(batch_window=0.0, queue_depth=2, registry=registry)
    batcher.start()
    try:
        batcher.pause()
        query = PathQuery.parse("tram", dataset.graph.alphabet)
        for _ in range(2):
            with pytest.raises(ServiceError) as exc_info:
                batcher.submit(dataset, query, timeout=0.05)
            assert exc_info.value.status == 504
        assert batcher.depth == 0
        batcher.resume()
        # Not shed with "batch queue full (2 pending)": nobody is waiting.
        answer = batcher.submit(dataset, query, timeout=30.0)
        assert answer.node_set() == dataset.engine.evaluate(dataset.graph, query)
        assert registry.counter("service_batched_queries_total").value == 1
    finally:
        batcher.stop()


def test_the_wait_histogram_observes_every_batched_request(batcher, dataset):
    queries = [PathQuery.parse(e, dataset.graph.alphabet) for e in ("tram", "bus", "tram")]
    for query in queries:
        batcher.submit(dataset, query, timeout=30.0)
    _submit_concurrently(batcher, dataset, queries)
    waits = batcher.registry.snapshot()["service_batch_wait_seconds"]
    batched = batcher.registry.counter("service_batched_queries_total").value
    assert waits["count"] == batched == 6
    assert waits["sum"] >= 0.0


# -- the window: batches start at least one window apart -------------------------


@pytest.fixture
def windowed(request):
    """Start a batcher with the given ``batch_window``; stopped after the test."""

    def make(seconds: float, **overrides) -> MicroBatcher:
        registry = MetricsRegistry()
        batcher = MicroBatcher(batch_window=seconds, registry=registry, **overrides)
        batcher.registry = registry
        batcher.start()
        request.addfinalizer(batcher.stop)
        return batcher

    return make


def _in_thread(call, *args, **kwargs):
    """Run ``call`` on a thread; return the thread and its outcome dict."""
    outcome: dict = {}

    def run():
        try:
            outcome["result"] = call(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 - asserted by callers
            outcome["error"] = error

    thread = threading.Thread(target=run)
    thread.start()
    return thread, outcome


def _wait_for_depth(batcher, depth: int) -> None:
    for _ in range(500):
        if batcher.depth == depth:
            return
        threading.Event().wait(0.01)
    assert batcher.depth == depth


def test_a_lone_submit_does_not_wait_for_the_window(windowed, dataset):
    batcher = windowed(10.0)
    query = PathQuery.parse("tram", dataset.graph.alphabet)
    started = time.perf_counter()
    answer = batcher.submit(dataset, query, timeout=30.0)
    assert answer.node_set() == dataset.engine.evaluate(dataset.graph, query)
    assert time.perf_counter() - started < 1.0


def test_requests_inside_the_window_collect_until_batch_max(windowed, dataset):
    """Within a 10 s window the next request waits for a batch-mate, and the
    one that fills ``batch_max`` starts the batch at once."""
    batcher = windowed(10.0, batch_max=2)
    tram, bus = (PathQuery.parse(e, dataset.graph.alphabet) for e in ("tram", "bus"))
    started = time.perf_counter()
    batcher.submit(dataset, tram, timeout=30.0)  # the window opens here
    second, outcome = _in_thread(batcher.submit, dataset, bus, timeout=30.0)
    _wait_for_depth(batcher, 1)
    second.join(0.05)
    assert second.is_alive() and not outcome and batcher.depth == 1
    third = batcher.submit(dataset, tram, timeout=30.0)
    second.join(10.0)
    assert time.perf_counter() - started < 5.0
    assert outcome["result"].node_set() == dataset.engine.evaluate(dataset.graph, bus)
    assert third.node_set() == dataset.engine.evaluate(dataset.graph, tram)
    assert batcher.registry.counter("service_batches_total").value == 2
    size = batcher.registry.snapshot()["service_batch_size"]
    assert size["count"] == 2 and size["sum"] == 3.0


def test_the_window_bounds_the_wait_and_a_quiet_spell_ends_it(windowed, dataset):
    window = 0.3
    batcher = windowed(window)
    query = PathQuery.parse("tram", dataset.graph.alphabet)
    started = time.perf_counter()
    batcher.submit(dataset, query, timeout=30.0)
    batcher.submit(dataset, query, timeout=30.0)  # alone: drains when the window ends
    assert window * 0.9 <= time.perf_counter() - started < 5.0
    waits = batcher.registry.snapshot()["service_batch_wait_seconds"]
    assert waits["count"] == 2 and waits["sum"] >= window / 2
    threading.Event().wait(window)
    started = time.perf_counter()
    batcher.submit(dataset, query, timeout=30.0)
    assert time.perf_counter() - started < window / 2
    assert batcher.registry.counter("service_batches_total").value == 3


def test_stop_ends_the_collection_with_a_503(windowed, dataset):
    batcher = windowed(10.0)
    query = PathQuery.parse("tram", dataset.graph.alphabet)
    batcher.submit(dataset, query, timeout=30.0)
    waiting, outcome = _in_thread(batcher.submit, dataset, query, timeout=30.0)
    _wait_for_depth(batcher, 1)
    batcher.stop()
    waiting.join(5.0)
    assert not waiting.is_alive() and outcome["error"].status == 503


def test_concurrent_clients_coalesce_and_each_request_is_observed_once(windowed, dataset):
    """Rounds of eight concurrent submitters under a short switch interval:
    every request is answered and observed once, in fewer batches than
    requests."""
    batcher = windowed(0.05, queue_depth=64)
    tram = PathQuery.parse("tram", dataset.graph.alphabet)
    expected = dataset.engine.evaluate(dataset.graph, tram)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(4):
            results, errors = _submit_concurrently(batcher, dataset, [tram] * 8)
            assert not errors
            assert [answer.node_set() for answer in results.values()] == [expected] * 8
    finally:
        sys.setswitchinterval(interval)
    batched = batcher.registry.counter("service_batched_queries_total").value
    waits = batcher.registry.snapshot()["service_batch_wait_seconds"]
    assert waits["count"] == batched == 32 and batcher.depth == 0
    assert batcher.registry.counter("service_batches_total").value < 32
