"""Tests for the trace recorder (repro.sim.trace)."""

from __future__ import annotations

from repro.sim.trace import TraceRecorder


class TestTraceRecorder:
    def test_record_and_iterate(self):
        trace = TraceRecorder()
        trace.record(1.0, "gara", "created reservation", handle=1001)
        trace.record(2.0, "broker", "SLA established")
        assert len(trace) == 2
        entries = list(trace)
        assert entries[0].details == {"handle": 1001}
        assert entries[1].category == "broker"

    def test_filter_by_category(self):
        trace = TraceRecorder()
        trace.record(1.0, "gara", "a")
        trace.record(2.0, "broker", "b")
        trace.record(3.0, "gara", "c")
        assert [e.message for e in trace.filter(category="gara")] == ["a", "c"]

    def test_filter_by_substring(self):
        trace = TraceRecorder()
        trace.record(1.0, "x", "reservation created")
        trace.record(2.0, "x", "job launched")
        assert len(trace.filter(contains="reservation")) == 1

    def test_combined_filter(self):
        trace = TraceRecorder()
        trace.record(1.0, "gara", "reservation created")
        trace.record(2.0, "broker", "reservation relayed")
        hits = trace.filter(category="broker", contains="reservation")
        assert len(hits) == 1

    def test_render_contains_rows(self):
        trace = TraceRecorder()
        trace.record(1.5, "broker", "offer sent")
        text = trace.render()
        assert "broker" in text
        assert "offer sent" in text

    def test_clear(self):
        trace = TraceRecorder()
        trace.record(1.0, "x", "y")
        trace.clear()
        assert len(trace) == 0

    def test_entries_returns_copy(self):
        trace = TraceRecorder()
        trace.record(1.0, "x", "y")
        trace.entries.clear()
        assert len(trace) == 1
