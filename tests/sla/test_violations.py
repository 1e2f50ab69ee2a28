"""Tests for conformance checking (repro.sla.violations)."""

from __future__ import annotations

import pytest

from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter, range_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.document import NetworkDemand, ServiceSLA
from repro.sla.violations import (
    MeasuredQoS,
    check_conformance,
    violation_penalty,
)
from repro.units import parse_bound


@pytest.fixture
def sla():
    spec = QoSSpecification.of(
        range_parameter(Dimension.CPU, 2, 8),
        range_parameter(Dimension.BANDWIDTH_MBPS, 10, 45))
    return ServiceSLA(
        sla_id=1055, client="c", service_name="s",
        service_class=ServiceClass.CONTROLLED_LOAD,
        specification=spec, agreed_point=spec.best_point(),
        start=0.0, end=100.0, price_rate=10.0,
        network=NetworkDemand("1.1.1.1", "2.2.2.2", 45.0,
                              parse_bound("LessThan 10%"),
                              delay_bound_ms=50.0))


def measure(**values):
    mapping = {
        "cpu": Dimension.CPU,
        "bandwidth": Dimension.BANDWIDTH_MBPS,
        "loss": Dimension.PACKET_LOSS,
        "delay": Dimension.DELAY_MS,
    }
    return MeasuredQoS(sla_id=1055,
                       values={mapping[k]: v for k, v in values.items()},
                       time=5.0)


class TestCapacityConformance:
    def test_full_delivery_is_conformant(self, sla):
        report = check_conformance(sla, measure(cpu=8.0, bandwidth=45.0))
        assert report.conformant

    def test_shortfall_is_a_violation(self, sla):
        report = check_conformance(sla, measure(cpu=4.0, bandwidth=45.0))
        assert not report.conformant
        violation = report.worst()
        assert violation.dimension is Dimension.CPU
        assert violation.severity == pytest.approx(0.5)

    def test_tolerance_absorbs_noise(self, sla):
        # Table 3's 9.5 of 10 Mbps scenario: within 5% tolerance.
        report = check_conformance(sla, measure(bandwidth=43.0),
                                   tolerance=0.05)
        assert report.conformant

    def test_owed_is_delivered_point_not_agreed(self, sla):
        # Adaptation legitimately moved the session down; conformance
        # is against what the provider currently owes.
        sla.set_delivered_point({Dimension.CPU: 4.0,
                                 Dimension.BANDWIDTH_MBPS: 20.0})
        report = check_conformance(sla, measure(cpu=4.0, bandwidth=20.0))
        assert report.conformant

    def test_missing_measurements_are_skipped(self, sla):
        report = check_conformance(sla, measure())
        assert report.conformant


class TestBoundConformance:
    def test_loss_bound_violation(self, sla):
        report = check_conformance(sla, measure(loss=0.25))
        assert not report.conformant
        assert report.worst().dimension is Dimension.PACKET_LOSS

    def test_loss_within_bound(self, sla):
        report = check_conformance(sla, measure(loss=0.05))
        assert report.conformant

    def test_delay_bound_violation(self, sla):
        report = check_conformance(sla, measure(delay=80.0))
        assert not report.conformant
        assert report.worst().dimension is Dimension.DELAY_MS

    def test_one_violation_per_dimension(self, sla):
        report = check_conformance(
            sla, measure(cpu=1.0, loss=0.5, delay=200.0))
        dimensions = [v.dimension for v in report.violations]
        assert len(dimensions) == len(set(dimensions))


def _fresh_sla():
    """Stateless SLA builder for hypothesis tests (fixtures are not
    reset between generated inputs)."""
    spec = QoSSpecification.of(
        range_parameter(Dimension.CPU, 2, 8),
        range_parameter(Dimension.BANDWIDTH_MBPS, 10, 45))
    return ServiceSLA(
        sla_id=1, client="c", service_name="s",
        service_class=ServiceClass.CONTROLLED_LOAD,
        specification=spec, agreed_point=spec.best_point(),
        start=0.0, end=100.0, price_rate=10.0,
        network=NetworkDemand("1.1.1.1", "2.2.2.2", 45.0,
                              parse_bound("LessThan 10%")))


class TestConformanceProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(delivered=st.floats(min_value=0.0, max_value=16.0,
                               allow_nan=False),
           tolerance=st.floats(min_value=0.0, max_value=0.3,
                               allow_nan=False))
    def test_threshold_semantics(self, delivered, tolerance):
        """Measured >= owed*(1-tol) is conformant; below is a violation
        with severity in [0, 1] proportional to the shortfall."""
        sla = _fresh_sla()
        owed = sla.delivered_point[Dimension.CPU]
        report = check_conformance(sla, measure(cpu=delivered),
                                   tolerance=tolerance)
        cpu_violations = [v for v in report.violations
                          if v.dimension is Dimension.CPU]
        if delivered >= owed * (1.0 - tolerance):
            assert not cpu_violations
        else:
            assert len(cpu_violations) == 1
            violation = cpu_violations[0]
            assert 0.0 < violation.severity <= 1.0
            assert violation.severity == pytest.approx(
                min(1.0, (owed - delivered) / owed))

    @settings(max_examples=60, deadline=None)
    @given(loss=st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False))
    def test_loss_bound_dichotomy(self, loss):
        """Every loss value is either within the bound or a violation —
        never silently ignored."""
        sla = _fresh_sla()
        report = check_conformance(sla, measure(loss=loss))
        bound = sla.network.packet_loss_bound
        loss_violations = [v for v in report.violations
                           if v.dimension is Dimension.PACKET_LOSS]
        assert bool(loss_violations) == (not bound.satisfied_by(loss))


class TestPenalties:
    def test_penalty_scales_with_severity_and_duration(self, sla):
        report = check_conformance(sla, measure(cpu=4.0))
        penalty = violation_penalty(sla, report, duration=10.0)
        # price_rate 10, severity 0.5, duration 10 -> 50.
        assert penalty == pytest.approx(50.0)

    def test_no_penalty_when_conformant(self, sla):
        report = check_conformance(sla, measure(cpu=8.0))
        assert violation_penalty(sla, report, duration=10.0) == 0.0

    def test_penalty_rate_multiplies(self, sla):
        report = check_conformance(sla, measure(cpu=4.0))
        assert violation_penalty(sla, report, duration=10.0,
                                 penalty_rate=0.5) == pytest.approx(25.0)


class TestSpecCeilingConformance:
    """Dimensions that do not consume capacity (delay here) are held
    to the agreed point as a ceiling, not to the delivered point."""

    @pytest.fixture
    def delay_sla(self):
        spec = QoSSpecification.of(
            range_parameter(Dimension.CPU, 2, 8),
            range_parameter(Dimension.DELAY_MS, 20, 80))
        return ServiceSLA(
            sla_id=1055, client="c", service_name="s",
            service_class=ServiceClass.CONTROLLED_LOAD,
            specification=spec, agreed_point=spec.best_point(),
            start=0.0, end=100.0, price_rate=10.0)

    def test_delay_above_the_agreed_ceiling_is_a_violation(self, delay_sla):
        report = check_conformance(delay_sla, measure(delay=30.0))
        violation = report.worst()
        assert violation.dimension is Dimension.DELAY_MS
        assert violation.expected == 20.0
        assert violation.severity == pytest.approx(0.5)

    def test_excess_severity_saturates_at_one(self, delay_sla):
        report = check_conformance(delay_sla, measure(delay=500.0))
        assert report.worst().severity == 1.0

    def test_delay_at_the_ceiling_conforms(self, delay_sla):
        assert check_conformance(delay_sla, measure(delay=20.0)).conformant

    def test_a_dimension_owed_nothing_is_never_short(self):
        spec = QoSSpecification.of(range_parameter(Dimension.CPU, 0, 8))
        sla = ServiceSLA(
            sla_id=1055, client="c", service_name="s",
            service_class=ServiceClass.CONTROLLED_LOAD,
            specification=spec, agreed_point=spec.best_point(),
            start=0.0, end=100.0, price_rate=10.0)
        sla.set_delivered_point({Dimension.CPU: 0.0})
        assert check_conformance(sla, measure(cpu=0.0)).conformant
