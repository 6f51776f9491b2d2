"""Causal spans: nesting, wire context, ring bound, forest validation."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import Telemetry
from repro.obs.tracing import (NULL_SPAN, Span, Tracer, span_forest_errors)


class TestSpanNesting:
    def test_root_span_mints_a_trace(self):
        tracer = Tracer()
        with tracer.span("root") as handle:
            pass
        (span,) = tracer.finished()
        assert span.parent_id is None
        assert span.trace_id != span.span_id

    def test_stack_nesting_builds_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_context() == inner.context
            assert tracer.current_context() == outer.context
        inner_span = tracer.finished("inner")[0]
        outer_span = tracer.finished("outer")[0]
        assert inner_span.parent_id == outer_span.span_id
        assert inner_span.trace_id == outer_span.trace_id
        assert span_forest_errors(tracer.finished()) == []

    def test_explicit_parent_attaches_across_the_fabric(self):
        tracer = Tracer()
        with tracer.span("call") as call:
            remote_ctx = call.context
        # The "server side": nothing on the stack, parent from the wire.
        tracer.push_wire_context(remote_ctx)
        with tracer.span("serve", parent=tracer.wire_context()):
            pass
        tracer.pop_wire_context()
        serve = tracer.finished("serve")[0]
        assert serve.parent_id == call.span_id
        assert serve.trace_id == call.trace_id

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.finished()
        assert span.status == "error"
        assert span.tags["error"] == "ValueError"

    def test_out_of_order_finish_closes_inner_spans(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        tracer.span("inner")  # never explicitly closed
        tracer.finish(outer)
        assert {s.name for s in tracer.finished()} == {"outer", "inner"}
        assert tracer._stack == []

    def test_preset_end_time_is_preserved(self):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])
        with tracer.span("rpc") as handle:
            # Sim time does not flow during a synchronous handler; the
            # cost model sets the width explicitly.
            handle.end_s = handle.start_s + 0.125
        assert tracer.finished("rpc")[0].duration_s == 0.125

    def test_double_finish_is_idempotent(self):
        tracer = Tracer()
        handle = tracer.span("once")
        tracer.finish(handle)
        tracer.finish(handle)
        assert len(tracer.finished()) == 1


class TestTracerModes:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        handle = tracer.span("ignored")
        assert handle is NULL_SPAN
        with handle:
            handle.set_tag("k", "v")
        tracer.sample("power", 40.0)
        assert tracer.finished() == []
        assert list(tracer.samples) == []
        assert tracer.current_context() is None

    def test_ring_buffer_bounds_finished_spans(self):
        tracer = Tracer(max_spans=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.finished()) == 3
        assert tracer.dropped == 2
        assert [s.name for s in tracer.finished()] == ["s2", "s3", "s4"]

    def test_ring_needs_room_for_one_entry(self):
        for bad in (0, -1):
            with pytest.raises(ConfigurationError):
                Tracer(max_spans=bad)
            with pytest.raises(ConfigurationError):
                Telemetry(max_spans=bad)
        tracer = Tracer(max_spans=1)
        for name in ("a", "b"):
            with tracer.span(name):
                pass
            tracer.sample("power", 1.0)
        assert [s.name for s in tracer.finished()] == ["b"]
        assert (tracer.dropped, tracer.dropped_samples) == (1, 1)

    def test_span_is_its_own_handle(self):
        tracer = Tracer()
        with tracer.span("op", node="h1") as span:
            span.set_tag("k", 1)
            assert tracer.current_context() == span.context
        assert tracer.finished() == [span]
        assert span.tags == {"node": "h1", "k": 1}
        assert span.recorded

    def test_timeline_samples_take_explicit_timestamps(self):
        now = [5.0]
        tracer = Tracer(clock=lambda: now[0])
        tracer.sample("power", 120.0, track="rack", time_s=3600.0)
        tracer.sample("power", 90.0)
        assert [(s.time_s, s.value) for s in tracer.samples] == [
            (3600.0, 120.0), (5.0, 90.0),
        ]

    def test_sample_ring_evicts_oldest_first_and_counts(self):
        tracer = Tracer(max_spans=3)
        for i in range(5):
            tracer.sample("power", float(i), time_s=float(i))
        assert [s.value for s in tracer.samples] == [2.0, 3.0, 4.0]
        assert tracer.dropped_samples == 2
        assert tracer.dropped == 0  # spans only

    def test_trace_and_slowest_queries(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            a.end_s = a.start_s + 3.0
        with tracer.span("b") as b:
            b.end_s = b.start_s + 7.0
        assert [s.name for s in tracer.slowest(2)] == ["b", "a"]
        a_span = tracer.finished("a")[0]
        assert tracer.trace(a_span.trace_id) == [a_span]


class TestForestValidation:
    def test_multiple_roots_in_one_trace_reported(self):
        spans = [
            Span(trace_id=1, span_id=2, parent_id=None, name="r1", start_s=0),
            Span(trace_id=1, span_id=3, parent_id=None, name="r2", start_s=0),
        ]
        (problem,) = span_forest_errors(spans)
        assert "2 roots" in problem

    def test_dangling_parent_reported(self):
        spans = [
            Span(trace_id=1, span_id=2, parent_id=None, name="r", start_s=0),
            Span(trace_id=1, span_id=3, parent_id=99, name="lost", start_s=0),
        ]
        problems = span_forest_errors(spans)
        assert any("dangling parent 99" in p for p in problems)

    def test_clean_forest_is_quiet(self):
        spans = [
            Span(trace_id=1, span_id=2, parent_id=None, name="r", start_s=0),
            Span(trace_id=1, span_id=3, parent_id=2, name="c", start_s=0),
            Span(trace_id=9, span_id=10, parent_id=None, name="other",
                 start_s=0),
        ]
        assert span_forest_errors(spans) == []
