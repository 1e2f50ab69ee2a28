"""Tests for the experiment harness (repro.experiments.harness)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines import (
    AdaptivePolicy,
    FcfsPolicy,
    ProportionalSharePolicy,
    StaticPartitionPolicy,
)
from repro.core.testbed import build_testbed
from repro.experiments.harness import (
    run_broker_workload,
    run_policy_workload,
)
from repro.qos.classes import ServiceClass
from repro.sim.random import RandomSource
from repro.workloads.generators import (
    WorkloadConfig,
    arrival_rate_for_load,
    generate_workload,
)
from repro.workloads.replay import request_for_session
from repro.workloads.sessions import SessionSpec, Workload


def workload_for(load: float, horizon: float = 400.0,
                 seed: int = 11) -> Workload:
    config = WorkloadConfig(horizon=horizon)
    rate = arrival_rate_for_load(load, 26.0, config)
    return generate_workload(replace(config, arrival_rate=rate),
                             RandomSource(seed))


class TestPolicyRunner:
    def test_deterministic(self):
        workload = workload_for(0.8)
        a = run_policy_workload(AdaptivePolicy(15, 6, 5), workload)
        b = run_policy_workload(AdaptivePolicy(15, 6, 5), workload)
        assert a == b

    def test_adaptive_never_violates_without_failures(self):
        result = run_policy_workload(AdaptivePolicy(15, 6, 5),
                                     workload_for(1.2))
        assert result.violation_time_fraction == 0.0

    def test_adaptive_survives_failures_static_does_not(self):
        workload = workload_for(1.0, seed=21)
        failures = [(50.0, -4.0), (120.0, 4.0), (200.0, -4.0),
                    (280.0, 4.0)]
        adaptive = run_policy_workload(
            AdaptivePolicy(15, 6, 5, best_effort_min=2), workload,
            failures=failures)
        fcfs = run_policy_workload(
            FcfsPolicy(15, 6, 5), workload, failures=failures)
        # The adaptive reserve absorbs 4-node failures entirely.
        assert adaptive.violation_time_fraction == 0.0
        # FCFS admits everyone, so failures under load hurt someone.
        assert fcfs.guaranteed_acceptance == 1.0

    def test_static_starves_best_effort(self):
        workload = workload_for(1.2, seed=31)
        adaptive = run_policy_workload(AdaptivePolicy(15, 6, 5), workload)
        static = run_policy_workload(StaticPartitionPolicy(15, 6, 5),
                                     workload)
        assert adaptive.best_effort_cpu_time > static.best_effort_cpu_time

    def test_acceptance_rates_bounded(self):
        for policy in (AdaptivePolicy(15, 6, 5),
                       ProportionalSharePolicy(15, 6, 5)):
            result = run_policy_workload(policy, workload_for(1.5))
            for value in (result.guaranteed_acceptance,
                          result.controlled_acceptance,
                          result.mean_utilization,
                          result.violation_time_fraction):
                assert 0.0 <= value <= 1.0

    def test_offered_load_recorded(self):
        # A long horizon keeps Poisson sampling variance manageable.
        result = run_policy_workload(AdaptivePolicy(15, 6, 5),
                                     workload_for(1.0, horizon=4000.0))
        assert result.offered_load == pytest.approx(1.0, rel=0.3)

    def test_counts_add_up(self):
        workload = workload_for(1.0)
        result = run_policy_workload(AdaptivePolicy(15, 6, 5), workload)
        total = (result.guaranteed_requests + result.controlled_requests
                 + result.best_effort_requests)
        assert total == len(workload)
        assert result.guaranteed_accepted <= result.guaranteed_requests


class TestRequestTranslation:
    def test_guaranteed_exact(self):
        session = SessionSpec(session_id=1, user="u",
                              service_class=ServiceClass.GUARANTEED,
                              arrival=5.0, duration=10.0,
                              cpu_floor=4, cpu_best=4, memory_mb=128)
        request = request_for_session(session, session.arrival)
        point = request.specification.best_point()
        from repro.qos.parameters import Dimension
        assert point[Dimension.CPU] == 4.0
        assert point[Dimension.MEMORY_MB] == 128.0
        assert request.start == 5.0
        assert request.end == 15.0

    def test_controlled_range(self):
        session = SessionSpec(session_id=1, user="u",
                              service_class=ServiceClass.CONTROLLED_LOAD,
                              arrival=0.0, duration=10.0,
                              cpu_floor=2, cpu_best=8,
                              accept_degradation=True)
        request = request_for_session(session, session.arrival)
        from repro.qos.parameters import Dimension
        parameter = request.specification.require(Dimension.CPU)
        assert (parameter.low, parameter.high) == (2.0, 8.0)
        assert request.adaptation.accept_degradation


class TestBrokerRunner:
    def test_full_stack_run_produces_metrics(self):
        testbed = build_testbed()
        workload = workload_for(0.8, horizon=200.0, seed=41)
        result = run_broker_workload(testbed, workload)
        assert result.policy_name == "broker"
        assert result.guaranteed_requests + result.controlled_requests \
            + result.best_effort_requests == len(workload)
        assert 0.0 <= result.mean_utilization <= 1.0
        assert result.revenue > 0.0

    def test_full_stack_guarantees_protected(self):
        testbed = build_testbed()
        workload = workload_for(1.0, horizon=200.0, seed=43)
        result = run_broker_workload(testbed, workload)
        assert result.violation_time_fraction == pytest.approx(0.0)


class _RecordingAdaptive(AdaptivePolicy):
    """Algorithm 1 on the fast path, noting whom it admits."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.admitted: list = []

    def admit_guaranteed(self, user: str, committed: float) -> bool:
        admitted = super().admit_guaranteed(user, committed)
        if admitted:
            self.admitted.append(user)
        return admitted


class TestFullStackIsTheFastPath:
    """On a loss system both paths model alike — guaranteed sessions
    of one CPU each, Poisson arrivals, none terminable, no failures —
    the full broker (discovery, negotiation, GARA, the partition) and
    the bare Algorithm 1 policy admit the same sessions, one by one.
    With terminable sessions they part: Scenario 1 terminates some to
    admit others, which the fast path does not model."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_same_sessions_admitted(self, seed, monkeypatch):
        config = WorkloadConfig(
            horizon=2000.0, arrival_rate=0.36, mean_duration=50.0,
            class_mix=(1.0, 0.0, 0.0), guaranteed_cpu=(1, 1),
            terminable_fraction=0.0)
        workload = generate_workload(config, RandomSource(seed))
        policy = _RecordingAdaptive(15, 6, 5, best_effort_min=2)
        fast = run_policy_workload(policy, workload)

        testbed = build_testbed()
        broker = testbed.broker
        admitted = []
        request_service = broker.request_service

        def recorded(request):
            outcome = request_service(request)
            if outcome.accepted:
                admitted.append(request.client)
            return outcome
        monkeypatch.setattr(broker, "request_service", recorded)
        full = run_broker_workload(testbed, workload)

        assert admitted == policy.admitted
        assert full.guaranteed_accepted == fast.guaranteed_accepted \
            == len(admitted)
        # 18 Erlangs offered to 15 guaranteed nodes: the system blocks,
        # so both paths had choices to make.
        assert 0 < len(admitted) < len(workload)
