"""Tests for the discrete-event simulator (repro.sim.engine)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder


class TestScheduling:
    def test_clock_advances_to_event_times(self, sim):
        fired = []
        sim.schedule(2.5, lambda: fired.append(sim.now))
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0, 2.5]

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(7.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [7.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_the_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_scheduled_during_run_fire(self, sim):
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 3.0:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestRunUntil:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(10.0, lambda: fired.append("b"))
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0

    def test_remaining_events_fire_on_next_run(self, sim):
        fired = []
        sim.schedule(10.0, lambda: fired.append("b"))
        sim.run(until=5.0)
        sim.run()
        assert fired == ["b"]

    def test_clock_lands_on_until_when_idle(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_run_returns_processed_count(self, sim):
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda: None)
        assert sim.run() == 3


class TestMaxEvents:
    def test_runaway_loop_is_caught(self, sim):
        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        sim.cancel(event)
        sim.run()
        assert fired == []


class TestTracing:
    def test_labelled_events_are_traced(self):
        trace = TraceRecorder()
        sim = Simulator(trace=trace)
        sim.schedule(1.0, lambda: None, label="my-event")
        sim.schedule(2.0, lambda: None)  # unlabelled: not traced
        sim.run()
        assert len(trace) == 1
        assert trace.entries[0].message == "my-event"
        assert trace.entries[0].time == 1.0
