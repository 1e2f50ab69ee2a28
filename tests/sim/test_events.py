"""Tests for the event queue (repro.sim.events)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.events import PRIORITY_HIGH, PRIORITY_LOW, Event, EventQueue


def _noop() -> None:
    pass


class TestOrdering:
    def test_time_order(self):
        queue = EventQueue()
        queue.push(5.0, _noop, label="late")
        queue.push(1.0, _noop, label="early")
        queue.push(3.0, _noop, label="middle")
        labels = [queue.pop().label for _ in range(3)]
        assert labels == ["early", "middle", "late"]

    def test_priority_breaks_time_ties(self):
        queue = EventQueue()
        queue.push(1.0, _noop, label="normal")
        queue.push(1.0, _noop, priority=PRIORITY_HIGH, label="high")
        queue.push(1.0, _noop, priority=PRIORITY_LOW, label="low")
        labels = [queue.pop().label for _ in range(3)]
        assert labels == ["high", "normal", "low"]

    def test_insertion_order_breaks_remaining_ties(self):
        queue = EventQueue()
        for index in range(10):
            queue.push(2.0, _noop, label=f"event-{index}")
        labels = [queue.pop().label for _ in range(10)]
        assert labels == [f"event-{index}" for index in range(10)]


class TestCancellation:
    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        first = queue.push(1.0, _noop, label="first")
        queue.push(2.0, _noop, label="second")
        queue.cancel(first)
        assert queue.pop().label == "second"

    def test_len_counts_live_events(self):
        queue = EventQueue()
        event = queue.push(1.0, _noop)
        queue.push(2.0, _noop)
        assert len(queue) == 2
        queue.cancel(event)
        assert len(queue) == 1

    def test_double_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1.0, _noop)
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 0

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, _noop)
        queue.push(5.0, _noop)
        queue.cancel(first)
        assert queue.peek_time() == 5.0


class TestEmptyQueue:
    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek_time() is None


class TestEventValue:
    def test_events_order_by_time_priority_then_sequence(self):
        early = Event(1.0, 0, 5, _noop)
        urgent = Event(2.0, PRIORITY_HIGH, 9, _noop)
        later = Event(2.0, 0, 1, _noop)
        assert sorted([later, urgent, early]) == [early, urgent, later]
        assert early.sort_key == (1.0, 0, 5)

    def test_equality_needs_the_same_action_and_label(self):
        assert Event(1.0, 0, 1, _noop, "a") == Event(1.0, 0, 1, _noop, "a")
        assert Event(1.0, 0, 1, _noop, "a") != Event(1.0, 0, 1, _noop, "b")
        assert Event(1.0, 0, 1, _noop) != Event(1.0, 0, 1, print)
        assert Event(1.0, 0, 1, _noop) != (1.0, 0, 1)

    def test_repr_names_every_field(self):
        text = repr(Event(1.5, 0, 3, _noop, "tick", cancelled=True))
        for fragment in ("time=1.5", "priority=0", "seq=3",
                         "label='tick'", "cancelled=True"):
            assert fragment in text
