"""Tests for the span layer (repro.telemetry.spans)."""

from __future__ import annotations

import pytest

from repro.telemetry.events import EventStream
from repro.telemetry.spans import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestParentage:
    def test_root_span_starts_a_fresh_trace(self, tracer):
        with tracer.span("negotiate", component="broker") as span:
            assert span.trace_id == "trace-1"
            assert span.parent_id is None

    def test_nested_spans_parent_to_the_context(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_explicit_remote_parent_resumes_the_senders_trace(self, tracer):
        with tracer.span("request:create") as request:
            pass
        # The receiving side of a bus delivery: no local context, but
        # the envelope carried the sender's (trace_id, span_id).
        with tracer.span("handle:create",
                         trace_id=request.trace_id,
                         parent_id=request.span_id) as handled:
            assert handled.trace_id == request.trace_id
            assert handled.parent_id == request.span_id

    def test_siblings_share_the_parent(self, tracer):
        with tracer.span("call") as call:
            with tracer.span("attempt-1") as first:
                pass
            with tracer.span("attempt-2") as second:
                pass
        assert first.parent_id == call.span_id
        assert second.parent_id == call.span_id
        assert first.span_id != second.span_id


class TestLifecycle:
    def test_span_times_come_from_the_sim_clock(self, tracer, clock):
        clock.now = 5.0
        with tracer.span("op") as span:
            clock.now = 8.0
        assert span.start == 5.0
        assert span.end == 8.0
        assert span.duration == pytest.approx(3.0)

    def test_escaping_exception_marks_the_span_and_reraises(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("op") as span:
                raise RuntimeError("boom")
        assert span.status == "error:RuntimeError"
        assert span.end is not None
        assert tracer.current() is None

    def test_exception_unwinds_nested_spans_in_order(self, clock):
        stream = EventStream()
        tracer = Tracer(clock, stream=stream)
        error = KeyError("gone")
        with pytest.raises(KeyError) as raised:
            with tracer.span("outer") as outer:
                with tracer.span("middle") as middle:
                    with tracer.span("inner") as inner:
                        assert tracer.current() is inner
                        raise error
        assert raised.value is error  # re-raised, not wrapped
        assert tracer.current() is None
        assert [span.status for span in (outer, middle, inner)] \
            == ["error:KeyError"] * 3
        # One row per span, innermost first: the order they closed in.
        assert [(event.message, event.details["span_id"])
                for event in stream.events] == [
            ("?: inner (error:KeyError)", inner.span_id),
            ("?: middle (error:KeyError)", middle.span_id),
            ("?: outer (error:KeyError)", outer.span_id)]
        assert [span.name for span in tracer.spans] \
            == ["outer", "middle", "inner"]

    def test_base_exceptions_are_marked_too(self, tracer):
        with pytest.raises(KeyboardInterrupt):
            with tracer.span("op") as span:
                raise KeyboardInterrupt
        assert span.status == "error:KeyboardInterrupt"
        assert tracer.current() is None

    def test_exception_handled_inside_leaves_the_span_ok(self, tracer):
        with tracer.span("outer") as outer:
            try:
                with tracer.span("inner") as inner:
                    raise ValueError
            except ValueError:
                pass
            assert tracer.current() is outer
        assert (outer.status, inner.status) == ("ok", "error:ValueError")

    def test_span_context_opens_the_span_once(self, tracer):
        with tracer.span("op", component="c", attempt=2) as span:
            assert tracer.spans == [span]
            assert span.attributes == {"attempt": 2}
            assert span.end is None
        assert span.end is not None and span.status == "ok"

    def test_finish_is_idempotent(self, tracer, clock):
        span = tracer.start("op")
        tracer.finish(span)
        first_end = span.end
        clock.now = 99.0
        tracer.finish(span, status="error:Late")
        assert span.end == first_end
        assert span.status == "ok"

    def test_finished_spans_are_emitted_to_the_stream(self, clock):
        stream = EventStream()
        tracer = Tracer(clock, stream=stream)
        with tracer.span("op", component="broker", sla_id=7):
            pass
        events = stream.events
        assert len(events) == 1
        event = events[0]
        assert event.category == "span"
        assert "broker: op (ok)" in event.message
        assert event.details["sla_id"] == 7
        assert event.details["trace_id"] == "trace-1"


class TestDeterminismAndRendering:
    def test_two_fresh_tracers_produce_identical_ids(self, clock):
        def run(tracer):
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
            with tracer.span("c"):
                pass
            return [(s.trace_id, s.span_id, s.parent_id)
                    for s in tracer.spans]

        assert run(Tracer(clock)) == run(Tracer(clock))

    def test_render_tree_nests_by_parentage(self, tracer):
        with tracer.span("outer", component="broker"):
            with tracer.span("inner", component="gara", op="create"):
                pass
        tree = tracer.render_tree()
        lines = tree.splitlines()
        assert lines[0] == "trace trace-1"
        assert lines[1].startswith("  [")
        assert "broker: outer (ok)" in lines[1]
        assert lines[2].startswith("    [")
        assert "gara: inner (ok) op=create" in lines[2]

    def test_orphan_parent_renders_as_root(self, tracer):
        # A parent span that never reached this tracer (e.g. the leg
        # was dropped before delivery) must not hide its children.
        with tracer.span("handle", trace_id="trace-x",
                         parent_id="span-elsewhere"):
            pass
        tree = tracer.render_tree("trace-x")
        assert "handle (ok)" in tree

    def test_trace_ids_in_first_seen_order(self, tracer):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert tracer.trace_ids() == ["trace-1", "trace-2"]
