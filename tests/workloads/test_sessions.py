"""Unit coverage for the session/workload descriptions."""

import pytest

from repro.errors import ValidationError
from repro.qos.classes import ServiceClass
from repro.workloads.sessions import SessionSpec, Workload


def spec(session_id=1, service_class=ServiceClass.GUARANTEED,
         arrival=0.0, duration=10.0, cpu_floor=2.0, cpu_best=2.0,
         **kwargs):
    return SessionSpec(session_id=session_id, user=f"u-{session_id}",
                       service_class=service_class, arrival=arrival,
                       duration=duration, cpu_floor=cpu_floor,
                       cpu_best=cpu_best, **kwargs)


class TestSessionSpec:
    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValidationError):
            spec(duration=0.0)
        with pytest.raises(ValidationError):
            spec(duration=-3.0)

    def test_rejects_floor_above_best(self):
        with pytest.raises(ValidationError):
            spec(cpu_floor=5.0, cpu_best=4.0)

    def test_end_is_arrival_plus_duration(self):
        assert spec(arrival=12.5, duration=7.5).end == pytest.approx(20.0)

    def test_mean_cpu_is_range_midpoint(self):
        session = spec(service_class=ServiceClass.CONTROLLED_LOAD,
                       cpu_floor=2.0, cpu_best=6.0)
        assert session.mean_cpu == pytest.approx(4.0)

    def test_exact_session_mean_cpu_is_the_demand(self):
        assert spec(cpu_floor=3.0, cpu_best=3.0).mean_cpu == \
            pytest.approx(3.0)


class TestWorkload:
    def build(self):
        sessions = (
            spec(1, ServiceClass.GUARANTEED, arrival=0.0),
            spec(2, ServiceClass.CONTROLLED_LOAD, arrival=5.0,
                 cpu_floor=1.0, cpu_best=4.0),
            spec(3, ServiceClass.GUARANTEED, arrival=10.0),
            spec(4, ServiceClass.BEST_EFFORT, arrival=20.0,
                 cpu_floor=1.0, cpu_best=1.0),
        )
        return Workload(sessions=sessions, horizon=100.0)

    def test_len(self):
        assert len(self.build()) == 4

    def test_offered_cpu_load(self):
        # One 10-unit session of 2 CPUs over a 100-unit horizon on
        # capacity 4: 2 * 10 / (4 * 100).
        workload = Workload(sessions=(spec(duration=10.0),), horizon=100.0)
        assert workload.offered_cpu_load(4.0) == pytest.approx(0.05)

    def test_offered_cpu_load_clips_at_horizon(self):
        workload = Workload(
            sessions=(spec(arrival=90.0, duration=50.0),), horizon=100.0)
        # Only the 10 in-horizon units count.
        assert workload.offered_cpu_load(2.0) == pytest.approx(
            2.0 * 10.0 / (2.0 * 100.0))

    def test_offered_cpu_load_degenerate_inputs(self):
        workload = self.build()
        assert workload.offered_cpu_load(0.0) == 0.0
        assert Workload(sessions=(), horizon=50.0).offered_cpu_load(10.0) \
            == 0.0

    def test_fingerprint_is_stable_and_sensitive(self):
        first = self.build()
        second = self.build()
        assert first.fingerprint() == second.fingerprint()
        shifted = Workload(
            sessions=first.sessions[:-1] + (
                spec(4, ServiceClass.BEST_EFFORT, arrival=20.5,
                     cpu_floor=1.0, cpu_best=1.0),),
            horizon=first.horizon)
        assert shifted.fingerprint() != first.fingerprint()
