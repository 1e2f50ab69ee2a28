"""Tests for SLA documents (repro.sla.document)."""

from __future__ import annotations

import pytest

from repro.errors import SLAError
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter, range_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.document import (
    AdaptationOptions,
    NetworkDemand,
    ServiceSLA,
    SlaStatus,
)


def controlled_sla(**overrides):
    spec = QoSSpecification.of(
        range_parameter(Dimension.CPU, 2, 8),
        range_parameter(Dimension.BANDWIDTH_MBPS, 10, 45))
    defaults = dict(sla_id=1, client="c", service_name="s",
                    service_class=ServiceClass.CONTROLLED_LOAD,
                    specification=spec, agreed_point=spec.best_point(),
                    start=0.0, end=100.0, price_rate=10.0)
    defaults.update(overrides)
    return ServiceSLA(**defaults)


def guaranteed_sla(**overrides):
    spec = QoSSpecification.of(exact_parameter(Dimension.CPU, 10))
    defaults = dict(sla_id=2, client="c", service_name="s",
                    service_class=ServiceClass.GUARANTEED,
                    specification=spec, agreed_point=spec.best_point(),
                    start=0.0, end=100.0)
    defaults.update(overrides)
    return ServiceSLA(**defaults)


class TestConstruction:
    def test_best_effort_has_no_sla(self):
        with pytest.raises(SLAError):
            controlled_sla(service_class=ServiceClass.BEST_EFFORT)

    def test_inverted_window_rejected(self):
        with pytest.raises(SLAError):
            controlled_sla(start=10.0, end=5.0)

    def test_agreed_point_must_be_admissible(self):
        with pytest.raises(SLAError):
            controlled_sla(agreed_point={Dimension.CPU: 100.0,
                                         Dimension.BANDWIDTH_MBPS: 45.0})

    def test_delivered_defaults_to_agreed(self):
        sla = controlled_sla()
        assert sla.delivered_point == sla.agreed_point

    def test_network_demand_validation(self):
        with pytest.raises(SLAError):
            NetworkDemand("a", "b", 0.0)


class TestDemand:
    def test_agreed_demand(self):
        sla = controlled_sla()
        assert sla.agreed_demand().cpu == 8
        assert sla.agreed_demand().bandwidth_mbps == 45

    def test_floor_demand(self):
        sla = controlled_sla()
        assert sla.floor_demand().cpu == 2

    def test_duration(self):
        assert controlled_sla().duration == 100.0


class TestDeliveredPointMovement:
    def test_controlled_load_moves_within_range(self):
        sla = controlled_sla()
        sla.set_delivered_point({Dimension.CPU: 4.0,
                                 Dimension.BANDWIDTH_MBPS: 20.0})
        assert sla.delivered_demand().cpu == 4.0
        assert sla.is_degraded()

    def test_guaranteed_is_pinned(self):
        sla = guaranteed_sla()
        with pytest.raises(SLAError):
            sla.set_delivered_point({Dimension.CPU: 5.0})

    def test_guaranteed_allows_identity_move(self):
        sla = guaranteed_sla()
        sla.set_delivered_point(dict(sla.agreed_point))

    def test_out_of_range_rejected(self):
        sla = controlled_sla()
        with pytest.raises(SLAError):
            sla.set_delivered_point({Dimension.CPU: 1.0,
                                     Dimension.BANDWIDTH_MBPS: 20.0})

    def test_is_degraded_false_at_agreed(self):
        assert not controlled_sla().is_degraded()


class TestRenegotiatePoint:
    """A promotion re-negotiates the agreed terms in place; delivery
    follows only when the broker applies the new point."""

    def test_agreed_point_and_price_move_together(self):
        sla = controlled_sla(agreed_point={Dimension.CPU: 4.0,
                                           Dimension.BANDWIDTH_MBPS: 20.0})
        better = {Dimension.CPU: 8.0, Dimension.BANDWIDTH_MBPS: 45.0}
        sla.renegotiate_point(better, 25.0)
        assert sla.agreed_point == better
        assert sla.price_rate == 25.0
        assert sla.delivered_point == {Dimension.CPU: 4.0,
                                       Dimension.BANDWIDTH_MBPS: 20.0}
        better[Dimension.CPU] = 2.0
        assert sla.agreed_point[Dimension.CPU] == 8.0  # a copy is kept

    def test_a_guaranteed_sla_cannot_be_promoted(self):
        sla = guaranteed_sla(price_rate=5.0)
        with pytest.raises(SLAError, match="cannot be promoted"):
            sla.renegotiate_point({Dimension.CPU: 10.0}, 9.0)
        assert sla.price_rate == 5.0

    def test_a_point_outside_the_specification_changes_nothing(self):
        sla = controlled_sla()
        agreed = dict(sla.agreed_point)
        with pytest.raises(SLAError, match="outside SLA 1"):
            sla.renegotiate_point({Dimension.CPU: 16.0,
                                   Dimension.BANDWIDTH_MBPS: 45.0}, 99.0)
        assert sla.agreed_point == agreed
        assert sla.price_rate == 10.0


class TestStatusMachine:
    def test_happy_path(self):
        sla = controlled_sla()
        assert sla.status is SlaStatus.PROPOSED
        sla.establish()
        sla.activate()
        assert sla.status.is_live
        sla.complete()
        assert sla.status is SlaStatus.COMPLETED
        assert not sla.status.is_live

    def test_terminate_from_any_live_state(self):
        sla = controlled_sla()
        sla.establish()
        sla.terminate()
        assert sla.status is SlaStatus.TERMINATED

    def test_expire(self):
        sla = controlled_sla()
        sla.establish()
        sla.activate()
        sla.expire()
        assert sla.status is SlaStatus.EXPIRED

    def test_activate_before_establish_rejected(self):
        with pytest.raises(SLAError):
            controlled_sla().activate()

    def test_complete_before_activate_rejected(self):
        sla = controlled_sla()
        sla.establish()
        with pytest.raises(SLAError):
            sla.complete()

    def test_terminate_completed_rejected(self):
        sla = controlled_sla()
        sla.establish()
        sla.activate()
        sla.complete()
        with pytest.raises(SLAError):
            sla.terminate()


class TestAdaptationOptions:
    def test_is_degradable(self):
        assert AdaptationOptions(accept_degradation=True).is_degradable
        assert AdaptationOptions(accept_termination=True).is_degradable
        assert AdaptationOptions(
            alternative_points=({Dimension.CPU: 2.0},)).is_degradable
        assert not AdaptationOptions().is_degradable
