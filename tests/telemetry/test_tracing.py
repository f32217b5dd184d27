"""Structured tracing: span nesting/ordering, the JSONL sink, rotation,
thread isolation, and distributed trace contexts."""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import TelemetryError
from repro.telemetry import NOOP_SPAN, Telemetry, build_trace_tree, summarize_slow
from repro.telemetry.export import read_trace, summarize_trace, tail_trace
from repro.telemetry.tracing import TraceContext, TraceSink, Tracer


class TestSpanNesting:
    def test_nested_spans_record_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner"):
                    pass
        records = list(tracer.events)
        assert [r["name"] for r in records] == ["inner", "middle", "outer"]
        by_name = {r["name"]: r for r in records}
        assert by_name["outer"]["parent_id"] == 0
        assert by_name["outer"]["depth"] == 0
        assert by_name["middle"]["parent_id"] == outer.span_id
        assert by_name["middle"]["depth"] == 1
        assert by_name["inner"]["parent_id"] == middle.span_id
        assert by_name["inner"]["depth"] == 2

    def test_span_ids_are_unique_and_increasing(self):
        tracer = Tracer()
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [r["span_id"] for r in tracer.events]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_children_finish_before_parents_and_nest_in_time(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = list(tracer.events)
        assert inner["start"] >= outer["start"]
        assert inner["start"] + inner["seconds"] <= outer["start"] + outer["seconds"]
        assert outer["seconds"] >= inner["seconds"] >= 0

    def test_sibling_spans_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        by_name = {r["name"]: r for r in tracer.events}
        assert by_name["a"]["parent_id"] == parent.span_id
        assert by_name["b"]["parent_id"] == parent.span_id

    def test_attributes_and_exception_stamp(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("work", phase="load") as span:
                span.set(items=3)
                raise ValueError("boom")
        (record,) = list(tracer.events)
        assert record["attrs"] == {"phase": "load", "items": 3, "error": "ValueError"}

    def test_ring_buffer_is_bounded(self):
        tracer = Tracer(buffer=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert [r["name"] for r in tracer.events] == ["s6", "s7", "s8", "s9"]


class TestThreadIsolation:
    def test_concurrent_threads_get_disjoint_parentage(self):
        """Two threads sharing one tracer must never parent onto each other.

        Regression for the shared-stack bug: with one global ``_stack``, a
        span opened on thread B while thread A's span was open recorded
        A's span as its parent.  The stack is thread-local now, so every
        thread's spans form an independent root-plus-child chain.
        """
        tracer = Tracer()
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []

        def work(label: str) -> None:
            try:
                with tracer.span(f"outer.{label}"):
                    barrier.wait(timeout=5)  # both outer spans are open now
                    with tracer.span(f"inner.{label}"):
                        pass
                    barrier.wait(timeout=5)  # hold outer open past B's inner
            except BaseException as error:  # pragma: no cover - debugging aid
                errors.append(error)

        threads = [threading.Thread(target=work, args=(label,)) for label in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        by_name = {r["name"]: r for r in tracer.events}
        assert len(by_name) == 4
        for label in "ab":
            outer, inner = by_name[f"outer.{label}"], by_name[f"inner.{label}"]
            assert outer["parent_id"] == 0 and outer["depth"] == 0
            assert inner["parent_id"] == outer["span_id"] and inner["depth"] == 1

    def test_span_ids_stay_unique_across_threads(self):
        tracer = Tracer()

        def work() -> None:
            for _ in range(50):
                with tracer.span("s"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        ids = [r["span_id"] for r in tracer.events]
        assert len(ids) == 200
        assert len(set(ids)) == 200


class TestTraceContext:
    def test_mint_and_child_and_wire_round_trip(self):
        ctx = TraceContext.mint(tenant="acme")
        assert len(ctx.trace_id) == 32
        assert ctx.parent_span is None
        child = ctx.child("abcd1234:7")
        assert child.trace_id == ctx.trace_id
        assert child.parent_span == "abcd1234:7"
        assert child.tenant == "acme"
        assert TraceContext.from_dict(child.to_dict()) == child

    def test_to_dict_omits_absent_fields(self):
        assert TraceContext("t1").to_dict() == {"trace_id": "t1"}

    def test_from_dict_rejects_malformed_payloads(self):
        with pytest.raises(TelemetryError, match="must be an object"):
            TraceContext.from_dict(["t1"])
        with pytest.raises(TelemetryError, match="trace_id"):
            TraceContext.from_dict({"trace_id": ""})
        with pytest.raises(TelemetryError, match="parent_span"):
            TraceContext.from_dict({"trace_id": "t1", "parent_span": 7})
        with pytest.raises(TelemetryError, match="tenant"):
            TraceContext.from_dict({"trace_id": "t1", "tenant": 42})

    def test_plain_spans_carry_no_distributed_fields(self):
        tracer = Tracer()
        with tracer.span("plain"):
            pass
        (record,) = list(tracer.events)
        assert set(record) == {
            "name", "span_id", "parent_id", "depth", "start", "seconds", "attrs",
        }

    def test_attached_context_stamps_records(self):
        tracer = Tracer()
        ctx = TraceContext("t1", parent_span="remote:3", tenant="acme")
        with tracer.context(ctx):
            with tracer.span("outer") as outer:
                with tracer.span("inner"):
                    pass
        inner, outer_record = list(tracer.events)
        assert outer_record["trace"] == inner["trace"] == "t1"
        assert outer_record["tenant"] == inner["tenant"] == "acme"
        assert outer_record["span"] == f"{tracer.origin}:{outer.span_id}"
        # The root span parents onto the remote caller; the nested span
        # parents onto its local parent's ref.
        assert outer_record["parent"] == "remote:3"
        assert inner["parent"] == outer_record["span"]

    def test_context_detaches_and_restores(self):
        tracer = Tracer()
        outer_ctx = TraceContext("t-outer")
        with tracer.context(outer_ctx):
            with tracer.context(None):
                with tracer.span("untraced"):
                    pass
            assert tracer.current_context() is outer_ctx
        assert tracer.current_context() is None
        (record,) = list(tracer.events)
        assert "trace" not in record

    def test_current_ref_tracks_the_open_span(self):
        tracer = Tracer()
        assert tracer.current_ref() is None
        with tracer.span("open") as span:
            assert tracer.current_ref() == tracer.span_ref(span)
        assert tracer.current_ref() is None


class TestBuildTraceTree:
    def _record(self, name, span, parent=None, trace="t1", start=0.0, **extra):
        record = {
            "name": name, "span_id": 1, "parent_id": 0, "depth": 0,
            "start": start, "seconds": 0.001, "attrs": {},
            "trace": trace, "span": span,
        }
        if parent is not None:
            record["parent"] = parent
        record.update(extra)
        return record

    def test_links_cross_process_spans_into_one_tree(self):
        records = [
            # Arrival order is close-order (innermost first), spread over
            # three origins as the files of three processes would interleave.
            self._record("downstream.work", "w1:1", parent="s1:2", start=0.0),
            self._record("engine.evaluate", "s1:2", parent="s1:1", start=0.3),
            self._record("server.request", "s1:1", parent="c1:1", start=0.2),
            self._record("client.request", "c1:1", start=0.1, tenant="acme"),
            self._record("other", "x1:1", trace="t2"),
        ]
        tree = build_trace_tree(records, "t1")
        assert tree["trace_id"] == "t1"
        assert tree["spans"] == 4
        assert tree["tenants"] == ["acme"]
        (root,) = tree["roots"]
        chain = []
        node = root
        while True:
            chain.append(node["name"])
            if not node["children"]:
                break
            (node,) = node["children"]
        assert chain == [
            "client.request", "server.request", "engine.evaluate", "downstream.work",
        ]

    def test_orphans_become_roots(self):
        records = [self._record("lonely", "s1:5", parent="gone:1")]
        tree = build_trace_tree(records, "t1")
        assert [n["name"] for n in tree["roots"]] == ["lonely"]

    def test_empty_trace_id_rejected(self):
        with pytest.raises(TelemetryError, match="non-empty"):
            build_trace_tree([], "")


class TestSummarizeSlow:
    def test_aggregates_entries(self):
        records = [
            {"expr": "a.b", "tenant": "t1", "snapshot": "g", "elapsed": 0.5},
            {"expr": "a.b", "tenant": "t2", "snapshot": "g", "elapsed": 1.5,
             "trace": "abc"},
            {"expr": "c*", "tenant": "t1", "snapshot": "h", "elapsed": 1.0},
        ]
        summary = summarize_slow(records)
        assert summary["entries"] == 3
        assert summary["mean_elapsed"] == pytest.approx(1.0)
        assert summary["max_elapsed"] == pytest.approx(1.5)
        assert summary["slowest"]["expr"] == "a.b"
        assert summary["slowest"]["trace"] == "abc"
        assert summary["tenants"] == {"t1": 2, "t2": 1}
        assert summary["snapshots"] == {"g": 2, "h": 1}
        assert summary["top_expressions"][0] == {"expr": "a.b", "count": 2}

    def test_empty_log(self):
        summary = summarize_slow([])
        assert summary["entries"] == 0
        assert summary["slowest"] is None


class TestTelemetryFacade:
    def test_disabled_returns_the_shared_noop_span(self):
        telemetry = Telemetry()
        assert telemetry.active is False
        assert telemetry.span("anything", a=1) is NOOP_SPAN
        with telemetry.span("anything") as span:
            span.set(b=2)  # must be a harmless no-op
        assert telemetry.events() == []

    def test_profile_only_mode_is_active_but_does_not_trace(self):
        telemetry = Telemetry(profile=True)
        assert telemetry.active is True
        assert telemetry.span("x") is NOOP_SPAN

    def test_enabled_without_sink_buffers_events(self):
        telemetry = Telemetry(enabled=True)
        with telemetry.span("only.in.memory"):
            pass
        assert [r["name"] for r in telemetry.events()] == ["only.in.memory"]

    def test_context_is_noop_when_disabled_or_none(self):
        telemetry = Telemetry()
        with telemetry.context(TraceContext("t1")) as ctx:
            assert ctx.trace_id == "t1"  # value passes through untouched
        enabled = Telemetry(enabled=True)
        with enabled.context(None):
            with enabled.span("s"):
                pass
        assert "trace" not in enabled.events()[0]

    def test_ensure_context_mints_once(self):
        telemetry = Telemetry(enabled=True)
        with telemetry.ensure_context(tenant="acme") as ctx:
            assert ctx.tenant == "acme"
            with telemetry.ensure_context() as inner:
                # Already attached: the existing context is reused, not replaced.
                assert inner is ctx or inner == ctx
            with telemetry.span("work"):
                pass
        record = telemetry.events()[0]
        assert record["trace"] == ctx.trace_id
        assert record["tenant"] == "acme"
        assert telemetry.current_context() is None

    def test_borrowed_sink_is_shared_and_survives_close(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        owner = Telemetry(trace_path=path)
        borrower = Telemetry(sink=owner.sink)
        with borrower.span("from.borrower"):
            pass
        borrower.close()  # detaches; must not close the owner's file
        with owner.span("from.owner"):
            pass
        owner.close()
        assert [r["name"] for r in read_trace(path)] == [
            "from.borrower",
            "from.owner",
        ]

    def test_sink_and_trace_path_are_mutually_exclusive(self, tmp_path):
        owner = Telemetry(trace_path=tmp_path / "a.jsonl")
        with pytest.raises(ValueError, match="not both"):
            Telemetry(sink=owner.sink, trace_path=tmp_path / "b.jsonl")
        owner.close()


class TestJsonlRoundTrip:
    def test_spans_round_trip_through_the_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = Telemetry(trace_path=path)
        with telemetry.span("outer", kind="test"):
            with telemetry.span("inner"):
                pass
        telemetry.close()
        records = list(read_trace(path))
        assert records == telemetry.events()
        # And the raw file is one JSON object per line.
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(isinstance(json.loads(line), dict) for line in lines)

    def test_tail_returns_the_last_n(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = Telemetry(trace_path=path)
        for i in range(6):
            with telemetry.span(f"s{i}"):
                pass
        telemetry.close()
        assert [r["name"] for r in tail_trace(path, 2)] == ["s4", "s5"]

    def test_blank_lines_skipped_and_garbage_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "ok"}\n\n')
        assert [r["name"] for r in read_trace(path)] == ["ok"]
        path.write_text('{"name": "ok"}\nnot json\n')
        with pytest.raises(TelemetryError, match="trace.jsonl:2"):
            list(read_trace(path))

    def test_summarize_aggregates_spans_and_cache_outcomes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = Telemetry(trace_path=path)
        with telemetry.span("engine.evaluate", cache="miss", plan_cache="miss"):
            pass
        with telemetry.span("engine.evaluate", cache="hit", plan_cache="hit"):
            pass
        with telemetry.span("engine.evaluate", cache="hit", plan_cache="hit"):
            pass
        telemetry.close()
        summary = summarize_trace(read_trace(path))
        assert summary["events"] == 3
        assert summary["spans"]["engine.evaluate"]["count"] == 3
        assert summary["cache"] == {
            "hit": 2,
            "miss": 1,
            "ephemeral": 0,
            "hit_rate": pytest.approx(2 / 3),
        }
        assert summary["plan_cache"]["hit"] == 2


class TestRotation:
    def test_sink_rotates_and_keeps_bounded_history(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = TraceSink(path, max_bytes=2048, keep=2)
        record = {"name": "x", "attrs": {"pad": "y" * 64}}
        for _ in range(200):
            sink.write(record)
        sink.close()
        assert path.exists()
        assert (tmp_path / "trace.jsonl.1").exists()
        assert (tmp_path / "trace.jsonl.2").exists()
        assert not (tmp_path / "trace.jsonl.3").exists()
        # Every surviving file stays within one record of the threshold.
        for file in (path, tmp_path / "trace.jsonl.1", tmp_path / "trace.jsonl.2"):
            assert file.stat().st_size <= 2048 + 256
            for line in file.read_text().splitlines():
                assert json.loads(line)["name"] == "x"

    def test_sink_parameter_validation(self, tmp_path):
        with pytest.raises(TelemetryError, match="positive"):
            TraceSink(tmp_path / "t.jsonl", max_bytes=0)
        with pytest.raises(TelemetryError, match="at least one"):
            TraceSink(tmp_path / "t.jsonl", keep=0)

    def test_close_is_idempotent_and_later_spans_still_buffer(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = Telemetry(trace_path=path)
        with telemetry.span("before"):
            pass
        telemetry.close()
        telemetry.close()
        with telemetry.span("after"):
            pass
        assert [r["name"] for r in telemetry.events()] == ["before", "after"]
        assert [r["name"] for r in read_trace(path)] == ["before"]
