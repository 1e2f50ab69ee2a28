"""Tests for the pricing model (repro.qos.cost)."""

from __future__ import annotations

import pytest

from repro.qos.classes import ServiceClass
from repro.qos.cost import (
    DEFAULT_CLASS_MULTIPLIERS,
    PricingPolicy,
)
from repro.qos.parameters import Dimension


class TestLinearForm:
    def test_cost_is_q_times_w(self):
        policy = PricingPolicy(weights={Dimension.CPU: 2.0})
        assert policy.parameter_cost(Dimension.CPU, 5.0) == 10.0

    def test_missing_dimension_earns_zero(self):
        policy = PricingPolicy(weights={})
        assert policy.parameter_cost(Dimension.CPU, 5.0) == 0.0

    def test_point_rate_sums_parameters(self):
        policy = PricingPolicy(
            weights={Dimension.CPU: 1.0, Dimension.BANDWIDTH_MBPS: 0.1},
            class_multipliers={ServiceClass.CONTROLLED_LOAD: 1.0})
        rate = policy.point_rate(
            {Dimension.CPU: 4.0, Dimension.BANDWIDTH_MBPS: 10.0},
            ServiceClass.CONTROLLED_LOAD)
        assert rate == pytest.approx(4.0 + 1.0)

    def test_observed_dimensions_free_by_default(self):
        policy = PricingPolicy()
        rate = policy.point_rate({Dimension.PACKET_LOSS: 0.1,
                                  Dimension.DELAY_MS: 10.0},
                                 ServiceClass.GUARANTEED)
        assert rate == 0.0


class TestClassMultipliers:
    def test_guaranteed_costs_more_than_controlled(self):
        policy = PricingPolicy()
        point = {Dimension.CPU: 4.0}
        assert policy.point_rate(point, ServiceClass.GUARANTEED) > \
            policy.point_rate(point, ServiceClass.CONTROLLED_LOAD) > \
            policy.point_rate(point, ServiceClass.BEST_EFFORT)

    def test_default_multipliers_ordered(self):
        assert DEFAULT_CLASS_MULTIPLIERS[ServiceClass.GUARANTEED] > \
            DEFAULT_CLASS_MULTIPLIERS[ServiceClass.CONTROLLED_LOAD] > \
            DEFAULT_CLASS_MULTIPLIERS[ServiceClass.BEST_EFFORT]


class TestMonotonicity:
    def test_more_quality_never_cheaper(self):
        policy = PricingPolicy()
        low = {Dimension.CPU: 2.0, Dimension.BANDWIDTH_MBPS: 10.0}
        high = {Dimension.CPU: 8.0, Dimension.BANDWIDTH_MBPS: 45.0}
        assert policy.point_rate(high, ServiceClass.CONTROLLED_LOAD) > \
            policy.point_rate(low, ServiceClass.CONTROLLED_LOAD)
