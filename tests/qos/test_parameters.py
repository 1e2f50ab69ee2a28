"""Tests for QoS parameters (repro.qos.parameters)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import QoSSpecificationError
from repro.qos.parameters import (
    Dimension,
    Direction,
    Form,
    discrete_parameter,
    exact_parameter,
    range_parameter,
)


class TestDimensions:
    def test_capacity_dimensions(self):
        assert Dimension.CPU.consumes_capacity
        assert Dimension.BANDWIDTH_MBPS.consumes_capacity
        assert not Dimension.PACKET_LOSS.consumes_capacity
        assert not Dimension.DELAY_MS.consumes_capacity

    def test_directions(self):
        assert Dimension.CPU.direction is Direction.HIGHER_IS_BETTER
        assert Dimension.PACKET_LOSS.direction is Direction.LOWER_IS_BETTER
        assert Dimension.DELAY_MS.direction is Direction.LOWER_IS_BETTER


class TestExactParameter:
    def test_admissible_only_at_value(self):
        parameter = exact_parameter(Dimension.CPU, 4)
        assert parameter.admissible(4)
        assert not parameter.admissible(5)

    def test_best_equals_worst(self):
        parameter = exact_parameter(Dimension.CPU, 4)
        assert parameter.best() == parameter.worst() == 4

    def test_single_level(self):
        assert exact_parameter(Dimension.CPU, 4).levels(5) == [4.0]

    def test_fractional_cpu_rejected(self):
        with pytest.raises(QoSSpecificationError):
            exact_parameter(Dimension.CPU, 2.5)


class TestRangeParameter:
    def test_admissibility(self):
        parameter = range_parameter(Dimension.BANDWIDTH_MBPS, 10, 45)
        assert parameter.admissible(10)
        assert parameter.admissible(45)
        assert parameter.admissible(30)
        assert not parameter.admissible(9.9)
        assert not parameter.admissible(45.1)

    def test_best_and_worst_follow_direction(self):
        bandwidth = range_parameter(Dimension.BANDWIDTH_MBPS, 10, 45)
        assert bandwidth.best() == 45
        assert bandwidth.worst() == 10
        loss = range_parameter(Dimension.PACKET_LOSS, 0.01, 0.1)
        assert loss.best() == 0.01
        assert loss.worst() == 0.1

    def test_levels_ordered_worst_to_best(self):
        parameter = range_parameter(Dimension.BANDWIDTH_MBPS, 10, 40)
        levels = parameter.levels(4)
        assert levels == [10.0, 20.0, 30.0, 40.0]

    def test_levels_reversed_for_lower_is_better(self):
        parameter = range_parameter(Dimension.DELAY_MS, 5, 20)
        levels = parameter.levels(4)
        assert levels[0] == 20.0  # worst first
        assert levels[-1] == 5.0

    def test_cpu_levels_are_integral(self):
        parameter = range_parameter(Dimension.CPU, 1, 4)
        for level in parameter.levels(7):
            assert level == int(level)

    def test_inverted_range_rejected(self):
        with pytest.raises(QoSSpecificationError):
            range_parameter(Dimension.CPU, 5, 2)


class TestDiscreteParameter:
    def test_admissible_only_listed(self):
        parameter = discrete_parameter(Dimension.CPU, [2, 4, 8])
        assert parameter.admissible(4)
        assert not parameter.admissible(3)

    def test_values_sorted_and_deduplicated(self):
        parameter = discrete_parameter(Dimension.CPU, [8, 2, 4, 2])
        assert parameter.values == (2.0, 4.0, 8.0)

    def test_levels(self):
        parameter = discrete_parameter(Dimension.CPU, [8, 2, 4])
        assert parameter.levels() == [2.0, 4.0, 8.0]

    def test_empty_list_rejected(self):
        with pytest.raises(QoSSpecificationError):
            discrete_parameter(Dimension.CPU, [])


class TestComparison:
    def test_is_better_higher(self):
        parameter = range_parameter(Dimension.CPU, 1, 10)
        assert parameter.is_better(5, 3)
        assert not parameter.is_better(3, 5)

    def test_is_better_lower(self):
        parameter = range_parameter(Dimension.DELAY_MS, 1, 10)
        assert parameter.is_better(3, 5)


class TestValidation:
    def test_negative_value_rejected(self):
        with pytest.raises(QoSSpecificationError):
            exact_parameter(Dimension.MEMORY_MB, -1)

    def test_loss_above_one_rejected(self):
        with pytest.raises(QoSSpecificationError):
            exact_parameter(Dimension.PACKET_LOSS, 1.5)

    def test_describe_mentions_dimension(self):
        assert "bandwidth" in range_parameter(
            Dimension.BANDWIDTH_MBPS, 10, 45).describe()


class TestLevelProperties:
    @given(st.integers(min_value=0, max_value=500),
           st.integers(min_value=0, max_value=500),
           st.integers(min_value=1, max_value=10))
    def test_levels_always_admissible(self, a, b, count):
        low, high = min(a, b), max(a, b)
        parameter = range_parameter(Dimension.MEMORY_MB, low, high)
        for level in parameter.levels(count):
            assert parameter.admissible(level)

    @given(st.lists(st.integers(min_value=0, max_value=64),
                    min_size=1, max_size=8))
    def test_discrete_best_worst_are_extremes(self, values):
        parameter = discrete_parameter(Dimension.CPU, values)
        assert parameter.best() == max(values)
        assert parameter.worst() == min(values)
