"""Tests for workload generation (repro.workloads)."""

from __future__ import annotations

import pytest

from repro.qos.classes import ServiceClass
from repro.sim.random import RandomSource
from repro.workloads.generators import (
    WorkloadConfig,
    arrival_rate_for_load,
    generate_workload,
)
from repro.workloads.sessions import SessionSpec, Workload


class TestSessionSpec:
    def test_end_and_mean(self):
        session = SessionSpec(session_id=1, user="u",
                              service_class=ServiceClass.GUARANTEED,
                              arrival=10.0, duration=5.0,
                              cpu_floor=2, cpu_best=4)
        assert session.end == 15.0
        assert session.mean_cpu == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionSpec(session_id=1, user="u",
                        service_class=ServiceClass.GUARANTEED,
                        arrival=0.0, duration=0.0, cpu_floor=1,
                        cpu_best=1)
        with pytest.raises(ValueError):
            SessionSpec(session_id=1, user="u",
                        service_class=ServiceClass.GUARANTEED,
                        arrival=0.0, duration=1.0, cpu_floor=5,
                        cpu_best=1)


class TestGeneration:
    def test_deterministic_per_seed(self):
        config = WorkloadConfig(horizon=300.0, arrival_rate=0.2)
        a = generate_workload(config, RandomSource(9))
        b = generate_workload(config, RandomSource(9))
        assert a.sessions == b.sessions

    def test_arrivals_within_horizon_and_ordered(self):
        workload = generate_workload(WorkloadConfig(horizon=200.0),
                                     RandomSource(1))
        arrivals = [s.arrival for s in workload.sessions]
        assert arrivals == sorted(arrivals)
        assert all(0 <= a < 200.0 for a in arrivals)

    def test_class_mix_respected(self):
        config = WorkloadConfig(horizon=5000.0, arrival_rate=0.5,
                                class_mix=(1.0, 0.0, 0.0))
        workload = generate_workload(config, RandomSource(2))
        assert all(s.service_class is ServiceClass.GUARANTEED
                   for s in workload.sessions)

    def test_guaranteed_sessions_are_rigid(self):
        workload = generate_workload(
            WorkloadConfig(horizon=2000.0, arrival_rate=0.3),
            RandomSource(3))
        for session in workload.sessions:
            if session.service_class is not ServiceClass.GUARANTEED:
                continue
            assert session.cpu_floor == session.cpu_best

    def test_controlled_sessions_stretch(self):
        config = WorkloadConfig(horizon=2000.0, arrival_rate=0.3,
                                controlled_stretch=2.0)
        workload = generate_workload(config, RandomSource(4))
        controlled = [s for s in workload.sessions
                      if s.service_class is ServiceClass.CONTROLLED_LOAD]
        assert controlled
        assert all(s.cpu_best >= s.cpu_floor for s in controlled)
        assert any(s.cpu_best > s.cpu_floor for s in controlled)

    def test_adaptation_flags_only_where_meaningful(self):
        workload = generate_workload(
            WorkloadConfig(horizon=2000.0, arrival_rate=0.3),
            RandomSource(5))
        for session in workload.sessions:
            if session.accept_promotion or session.accept_degradation:
                assert session.service_class is ServiceClass.CONTROLLED_LOAD
            if session.accept_termination:
                assert session.service_class is not ServiceClass.BEST_EFFORT


class TestLoadScaling:
    def test_offered_load_close_to_target(self):
        config = WorkloadConfig(horizon=4000.0)
        capacity = 26.0
        for target in (0.5, 1.0):
            rate = arrival_rate_for_load(target, capacity, config)
            workload = generate_workload(
                WorkloadConfig(horizon=config.horizon, arrival_rate=rate),
                RandomSource(6))
            measured = workload.offered_cpu_load(capacity)
            assert measured == pytest.approx(target, rel=0.25)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            arrival_rate_for_load(0.0, 26.0, WorkloadConfig())

    def test_offered_load_monotone_in_rate(self):
        config = WorkloadConfig(horizon=2000.0)
        loads = []
        for rate in (0.05, 0.1, 0.2):
            workload = generate_workload(
                WorkloadConfig(horizon=2000.0, arrival_rate=rate),
                RandomSource(7))
            loads.append(workload.offered_cpu_load(26.0))
        assert loads == sorted(loads)
