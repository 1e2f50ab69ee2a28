"""SLO engine: interval math, burn rates, alert transitions."""

from __future__ import annotations

from repro.obs import DEFAULT_SLOS, SloEngine, SloSpec
from repro.telemetry.events import EventStream


class _Clock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


def _engine(clock, **kwargs) -> SloEngine:
    return SloEngine(now=clock, **kwargs)


class TestSpecs:
    def test_budget_is_the_availability_complement(self):
        spec = SloSpec(service_class="Guaranteed", availability=0.999)
        assert abs(spec.budget - 0.001) < 1e-12

    def test_defaults_cover_both_monitored_classes(self):
        classes = {spec.service_class for spec in DEFAULT_SLOS}
        assert classes == {"Guaranteed", "Controlled-load"}


class TestIntervalMath:
    def test_availability_from_violation_intervals(self):
        clock = _Clock()
        engine = _engine(clock)
        engine.session_started(1, "Guaranteed", 0.0)
        engine.on_violation(1, 10.0)
        engine.on_restoration(1, 20.0)
        clock.now = 30.0
        engine.session_ended(1, 30.0)
        entry = engine.snapshot(30.0)["Guaranteed"]
        assert entry["sessions"] == 1
        assert entry["active_time"] == 30.0
        assert entry["bad_time"] == 10.0
        assert abs(entry["availability"] - 2.0 / 3.0) < 1e-9

    def test_open_violation_accrues_to_now(self):
        clock = _Clock()
        engine = _engine(clock)
        engine.session_started(1, "Guaranteed", 0.0)
        engine.on_violation(1, 5.0)
        clock.now = 15.0
        entry = engine.snapshot()["Guaranteed"]
        assert entry["bad_time"] == 10.0

    def test_session_end_closes_open_violation(self):
        clock = _Clock()
        engine = _engine(clock)
        engine.session_started(1, "Controlled-load", 0.0)
        engine.on_violation(1, 2.0)
        engine.session_ended(1, 8.0)
        clock.now = 100.0
        entry = engine.snapshot()["Controlled-load"]
        assert entry["active_time"] == 8.0
        assert entry["bad_time"] == 6.0

    def test_duplicate_violation_signals_are_idempotent(self):
        clock = _Clock()
        engine = _engine(clock)
        engine.session_started(1, "Guaranteed", 0.0)
        engine.on_violation(1, 5.0)
        engine.on_violation(1, 7.0)  # still in the same bad interval
        engine.on_restoration(1, 10.0)
        engine.on_restoration(1, 12.0)  # no open interval: no-op
        clock.now = 20.0
        assert engine.snapshot()["Guaranteed"]["bad_time"] == 5.0

    def test_snapshot_time_bounds_open_intervals(self):
        # Open intervals run to the snapshot's time, not the clock's.
        clock = _Clock()
        engine = _engine(clock)
        engine.session_started(1, "Guaranteed", 0.0)
        engine.on_violation(1, 50.0)
        clock.now = 100.0
        entry = engine.snapshot(time=60.0)["Guaranteed"]
        assert entry["active_time"] == 60.0
        assert entry["bad_time"] == 10.0
        assert entry["availability"] == round(1.0 - 10.0 / 60.0, 9)

    def test_unknown_sla_signals_are_ignored(self):
        engine = _engine(_Clock())
        engine.on_violation(99, 1.0)
        engine.session_ended(99, 2.0)
        assert engine.snapshot(5.0) == {}


class TestBurnRate:
    SPEC = SloSpec(service_class="Guaranteed", availability=0.9,
                   windows=(10.0,), burn_threshold=2.0)

    def test_burn_rate_is_window_clipped(self):
        clock = _Clock()
        engine = _engine(clock, specs=(self.SPEC,))
        engine.session_started(1, "Guaranteed", 0.0)
        # Violating over [90, 95]; window [90, 100] sees 5 bad of 10
        # active -> bad fraction 0.5, budget 0.1 -> burn 5.0.
        engine.on_violation(1, 90.0)
        engine.on_restoration(1, 95.0)
        clock.now = 100.0
        burn = engine.snapshot()["Guaranteed"]["burn_rate"]["10s"]
        assert abs(burn - 5.0) < 1e-9

    def test_quiet_window_burns_zero(self):
        clock = _Clock()
        engine = _engine(clock, specs=(self.SPEC,))
        engine.session_started(1, "Guaranteed", 0.0)
        engine.on_violation(1, 10.0)
        engine.on_restoration(1, 20.0)
        clock.now = 100.0  # violation long out of the 10s window
        burn = engine.snapshot()["Guaranteed"]["burn_rate"]["10s"]
        assert burn == 0.0


class TestAlerts:
    SPEC = SloSpec(service_class="Guaranteed", availability=0.9,
                   windows=(10.0,), burn_threshold=2.0)

    def _burning_engine(self, clock, stream=None):
        engine = _engine(clock, specs=(self.SPEC,), stream=stream)
        engine.session_started(1, "Guaranteed", 0.0)
        engine.on_violation(1, 90.0)  # open-ended: burn 10x budget
        return engine

    def test_alert_fires_once_per_transition(self):
        clock = _Clock()
        stream = EventStream()
        engine = self._burning_engine(clock, stream)
        clock.now = 100.0
        first = engine.evaluate()
        second = engine.evaluate()  # sustained burn: no re-alert
        assert len(first) == 1 and second == []
        assert engine.alerts == first
        alert = first[0]
        assert alert.service_class == "Guaranteed"
        assert alert.window == 10.0
        assert alert.burn_rate >= alert.threshold
        assert [event.category for event in stream.events] == ["slo"]

    def test_alert_refires_after_recovery(self):
        clock = _Clock()
        engine = self._burning_engine(clock)
        clock.now = 100.0
        assert len(engine.evaluate()) == 1
        engine.on_restoration(1, 100.0)
        clock.now = 150.0  # bad interval left the window: recovered
        assert engine.evaluate() == []
        engine.on_violation(1, 150.0)
        clock.now = 160.0
        assert len(engine.evaluate()) == 1
        assert len(engine.alerts) == 2

    def test_class_without_spec_never_alerts(self):
        clock = _Clock()
        engine = _engine(clock, specs=(self.SPEC,))
        engine.session_started(1, "Best-effort", 0.0)
        engine.on_violation(1, 0.0)
        clock.now = 10.0
        assert engine.evaluate() == []
        entry = engine.snapshot()["Best-effort"]
        assert "burn_rate" not in entry and "objective" not in entry


class TestOccupancy:
    def test_snapshot_folds_in_the_occupancy_context(self):
        engine = _engine(_Clock(),
                         occupancy=lambda: {"utilization_mean": 0.75})
        snapshot = engine.snapshot(0.0)
        assert snapshot["_occupancy"] == {"utilization_mean": 0.75}
