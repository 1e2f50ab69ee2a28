"""Tests for QoS specifications (repro.qos.specification)."""

from __future__ import annotations

import pytest

from repro.errors import QoSSpecificationError
from repro.qos.parameters import (
    Dimension,
    discrete_parameter,
    exact_parameter,
    range_parameter,
)
from repro.qos.specification import QoSSpecification
from repro.qos.vector import ResourceVector


@pytest.fixture
def spec():
    return QoSSpecification.of(
        range_parameter(Dimension.CPU, 2, 8),
        range_parameter(Dimension.BANDWIDTH_MBPS, 10, 45),
        exact_parameter(Dimension.MEMORY_MB, 64),
    )


class TestConstruction:
    def test_duplicate_dimension_rejected(self):
        with pytest.raises(QoSSpecificationError):
            QoSSpecification.of(exact_parameter(Dimension.CPU, 2),
                                exact_parameter(Dimension.CPU, 4))

    def test_lookup(self, spec):
        assert Dimension.CPU in spec
        assert Dimension.DELAY_MS not in spec
        assert spec.get(Dimension.CPU) is not None
        assert spec.get(Dimension.DELAY_MS) is None

    def test_require_raises_for_missing(self, spec):
        with pytest.raises(QoSSpecificationError):
            spec.require(Dimension.DELAY_MS)

    def test_len_and_iter(self, spec):
        assert len(spec) == 3
        assert len(list(spec)) == 3


class TestOperatingPoints:
    def test_best_point(self, spec):
        best = spec.best_point()
        assert best[Dimension.CPU] == 8
        assert best[Dimension.BANDWIDTH_MBPS] == 45
        assert best[Dimension.MEMORY_MB] == 64

    def test_worst_point(self, spec):
        worst = spec.worst_point()
        assert worst[Dimension.CPU] == 2
        assert worst[Dimension.BANDWIDTH_MBPS] == 10

    def test_admits_best_and_worst(self, spec):
        assert spec.admits(spec.best_point())
        assert spec.admits(spec.worst_point())

    def test_rejects_out_of_range(self, spec):
        point = spec.best_point()
        point[Dimension.CPU] = 100
        assert not spec.admits(point)

    def test_rejects_missing_dimension(self, spec):
        point = spec.best_point()
        del point[Dimension.MEMORY_MB]
        assert not spec.admits(point)


class TestQualityLevels:
    def test_levels_worst_to_best(self, spec):
        levels = spec.quality_levels(3)
        assert levels[0] == spec.worst_point()
        assert levels[-1] == spec.best_point()

    def test_all_levels_admissible(self, spec):
        for level in spec.quality_levels(5):
            assert spec.admits(level)

    def test_exact_spec_has_single_level(self):
        spec = QoSSpecification.of(exact_parameter(Dimension.CPU, 4))
        assert len(spec.quality_levels(5)) == 1

    def test_mixed_depth_saturates_shorter_parameters(self):
        spec = QoSSpecification.of(
            discrete_parameter(Dimension.CPU, [2, 4]),
            range_parameter(Dimension.BANDWIDTH_MBPS, 10, 40))
        levels = spec.quality_levels(4)
        # CPU saturates at 4 once its two candidates are exhausted.
        assert levels[-1][Dimension.CPU] == 4
        assert levels[-1][Dimension.BANDWIDTH_MBPS] == 40


class TestDomination:
    def test_capability_dominates_request(self):
        capability = QoSSpecification.of(
            range_parameter(Dimension.CPU, 0, 26),
            range_parameter(Dimension.BANDWIDTH_MBPS, 0, 622))
        request = QoSSpecification.of(
            range_parameter(Dimension.CPU, 2, 8),
            range_parameter(Dimension.BANDWIDTH_MBPS, 10, 45))
        assert capability.dominates(request)

    def test_underpowered_capability_does_not_dominate(self):
        capability = QoSSpecification.of(
            range_parameter(Dimension.CPU, 0, 4),
            range_parameter(Dimension.BANDWIDTH_MBPS, 0, 622))
        request = QoSSpecification.of(
            range_parameter(Dimension.CPU, 8, 16),  # floor above best
            range_parameter(Dimension.BANDWIDTH_MBPS, 10, 45))
        assert not capability.dominates(request)

    def test_missing_dimension_fails_domination(self):
        capability = QoSSpecification.of(
            range_parameter(Dimension.CPU, 0, 26))
        request = QoSSpecification.of(
            range_parameter(Dimension.BANDWIDTH_MBPS, 10, 45))
        assert not capability.dominates(request)

    def test_lower_is_better_domination(self):
        capability = QoSSpecification.of(
            range_parameter(Dimension.DELAY_MS, 1, 100))
        request = QoSSpecification.of(
            range_parameter(Dimension.DELAY_MS, 5, 50))
        # Capability can go as low as 1ms, below the request's 50ms floor.
        assert capability.dominates(request)


class TestDemandMapping:
    def test_point_demand_ignores_observed_dimensions(self):
        demand = QoSSpecification.point_demand({
            Dimension.CPU: 4.0,
            Dimension.PACKET_LOSS: 0.1,
            Dimension.DELAY_MS: 10.0,
        })
        assert demand == ResourceVector(cpu=4.0)

    def test_max_and_min_demand(self, spec):
        most = QoSSpecification.point_demand(spec.best_point())
        least = QoSSpecification.point_demand(spec.worst_point())
        assert most.cpu == 8
        assert least.cpu == 2
        assert least.fits_within(most)
