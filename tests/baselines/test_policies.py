"""Tests for the baseline policies (repro.baselines).

All four policies (the paper's adaptive scheme plus three baselines)
share the interface; the parametrized tests pin the common contract,
and per-policy tests pin the distinguishing behaviours.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    AdaptivePolicy,
    FcfsPolicy,
    ProportionalSharePolicy,
    StaticPartitionPolicy,
)
from repro.baselines.base import AllocatorPolicy

ALL_POLICIES = [AdaptivePolicy, StaticPartitionPolicy, FcfsPolicy,
                ProportionalSharePolicy]


def make(policy_class):
    return policy_class(15, 6, 5, best_effort_min=2)


@pytest.mark.parametrize("policy_class", ALL_POLICIES)
class TestCommonContract:
    def test_total_capacity_is_26(self, policy_class):
        assert make(policy_class).total_capacity() == 26

    def test_served_unknown_user_is_zero(self, policy_class):
        assert make(policy_class).served("ghost") == 0.0

    def test_admit_set_remove_cycle(self, policy_class):
        policy = make(policy_class)
        assert policy.admit_guaranteed("u", 5)
        report = policy.set_guaranteed_demand("u", 5)
        assert report.guarantees_honored
        assert policy.served("u") == pytest.approx(5.0)
        policy.remove_guaranteed("u")
        assert policy.served("u") == 0.0

    def test_best_effort_cycle(self, policy_class):
        policy = make(policy_class)
        policy.set_best_effort_demand("b", 3)
        assert policy.served("b") == pytest.approx(3.0)
        policy.set_best_effort_demand("b", 0)
        assert policy.served("b") == 0.0

    def test_utilization_bounded(self, policy_class):
        policy = make(policy_class)
        policy.set_best_effort_demand("b", 100)
        assert 0.0 <= policy.utilization() <= 1.0

    def test_failure_repair_round_trip(self, policy_class):
        policy = make(policy_class)
        policy.admit_guaranteed("u", 5)
        policy.set_guaranteed_demand("u", 5)
        policy.apply_failure(10)
        report = policy.apply_repair()
        assert report.guarantees_honored

    def test_duplicate_admission_raises(self, policy_class):
        from repro.errors import AdmissionError
        policy = make(policy_class)
        policy.admit_guaranteed("u", 5)
        with pytest.raises(AdmissionError):
            policy.admit_guaranteed("u", 5)


def test_the_interface_itself_allocates_nothing():
    """Every operation of the bare interface refuses, so a policy that
    forgot one fails loudly instead of reporting zero."""
    policy = AllocatorPolicy()
    calls = [lambda: policy.admit_guaranteed("u", 1),
             lambda: policy.set_guaranteed_demand("u", 1),
             lambda: policy.remove_guaranteed("u"),
             lambda: policy.set_best_effort_demand("b", 1),
             lambda: policy.apply_failure(1),
             lambda: policy.apply_repair(),
             lambda: policy.served("u"),
             lambda: policy.utilization(),
             lambda: policy.total_capacity()]
    for call in calls:
        with pytest.raises(NotImplementedError):
            call()


class TestAdaptiveDistinctives:
    def test_guarantees_survive_failure_via_reserve(self):
        policy = make(AdaptivePolicy)
        policy.admit_guaranteed("u", 14)
        policy.set_guaranteed_demand("u", 14)
        report = policy.apply_failure(3)
        assert report.guarantees_honored

    def test_best_effort_borrows_idle(self):
        policy = make(AdaptivePolicy)
        policy.set_best_effort_demand("b", 26)
        assert policy.served("b") == pytest.approx(26.0)


class TestStaticDistinctives:
    def test_no_borrowing_for_best_effort(self):
        policy = make(StaticPartitionPolicy)
        policy.set_best_effort_demand("b", 26)
        assert policy.served("b") == pytest.approx(5.0)  # Cb only

    def test_failure_violates_guarantees_immediately(self):
        policy = make(StaticPartitionPolicy)
        policy.admit_guaranteed("u", 20)  # Cg folded = 21
        policy.set_guaranteed_demand("u", 20)
        report = policy.apply_failure(3)  # eff 18 < 20
        assert not report.guarantees_honored
        assert report.shortfalls["u"] == pytest.approx(2.0)

    def test_admission_against_folded_cg(self):
        policy = make(StaticPartitionPolicy)
        assert policy.admit_guaranteed("u", 21)
        assert not policy.admit_guaranteed("v", 1)

    def test_unfolded_variant_wastes_adaptive(self):
        policy = StaticPartitionPolicy(15, 6, 5, fold_adaptive=False)
        assert not policy.admit_guaranteed("u", 16)
        assert policy.total_capacity() == 26


class TestFcfsDistinctives:
    def test_no_admission_control(self):
        policy = make(FcfsPolicy)
        for index in range(10):
            assert policy.admit_guaranteed(f"u{index}", 10)

    def test_arrival_order_wins(self):
        policy = make(FcfsPolicy)
        policy.set_best_effort_demand("early", 20)
        policy.admit_guaranteed("late", 20)
        report = policy.set_guaranteed_demand("late", 20)
        # The early best-effort user keeps its 20; the late guaranteed
        # user is starved — FCFS has no classes.
        assert policy.served("early") == pytest.approx(20.0)
        assert policy.served("late") == pytest.approx(6.0)
        assert not report.guarantees_honored


class TestProportionalDistinctives:
    def test_overload_scales_everyone(self):
        policy = make(ProportionalSharePolicy)
        policy.admit_guaranteed("g", 20)
        policy.set_guaranteed_demand("g", 20)
        policy.set_best_effort_demand("b", 32)
        # total demand 52 vs capacity 26: everyone at 50%.
        assert policy.served("g") == pytest.approx(10.0)
        assert policy.served("b") == pytest.approx(16.0)

    def test_underload_serves_fully(self):
        policy = make(ProportionalSharePolicy)
        policy.admit_guaranteed("g", 10)
        report = policy.set_guaranteed_demand("g", 10)
        assert report.guarantees_honored
