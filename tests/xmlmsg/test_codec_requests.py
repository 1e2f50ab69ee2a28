"""Tests for the request/offer XML schemas (the Figure 7 messages)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MessageError
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter, range_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.document import AdaptationOptions, NetworkDemand
from repro.sla.negotiation import Offer, ServiceRequest
from repro.units import parse_bound
from repro.xmlmsg import codec
from repro.xmlmsg.document import parse_xml

from .trees import element


def full_request():
    spec = QoSSpecification.of(
        range_parameter(Dimension.CPU, 2, 8),
        exact_parameter(Dimension.MEMORY_MB, 512))
    return ServiceRequest(
        client="alice", service_name="render",
        service_class=ServiceClass.CONTROLLED_LOAD,
        specification=spec, start=5.0, end=50.0, budget_rate=12.5,
        network=NetworkDemand("1.1.1.1", "2.2.2.2", 45.0,
                              parse_bound("LessThan 10%"),
                              delay_bound_ms=20.0),
        adaptation=AdaptationOptions(
            alternative_points=({Dimension.CPU: 2.0,
                                 Dimension.MEMORY_MB: 512.0},),
            accept_promotion=True, accept_degradation=True))


class TestServiceRequestRoundTrip:
    def test_full_round_trip(self):
        original = full_request()
        decoded = codec.decode_service_request(
            parse_xml(codec.encode_service_request(original)))
        assert decoded.client == original.client
        assert decoded.service_name == original.service_name
        assert decoded.service_class is original.service_class
        assert decoded.start == original.start
        assert decoded.end == original.end
        assert decoded.budget_rate == original.budget_rate
        assert decoded.network.bandwidth_mbps == 45.0
        assert decoded.network.delay_bound_ms == 20.0
        assert decoded.adaptation == original.adaptation
        assert decoded.specification.best_point() == \
            original.specification.best_point()

    def test_minimal_request(self):
        spec = QoSSpecification.of(exact_parameter(Dimension.CPU, 1))
        original = ServiceRequest(client="c", service_name="s",
                                  service_class=ServiceClass.GUARANTEED,
                                  specification=spec, start=0.0, end=1.0)
        decoded = codec.decode_service_request(
            parse_xml(codec.encode_service_request(original)))
        assert decoded.budget_rate is None
        assert decoded.network is None
        assert not decoded.adaptation.is_degradable

    def test_wrong_root_rejected(self):
        with pytest.raises(MessageError):
            codec.decode_service_request(element("Wrong"))


class TestOffersRoundTrip:
    def test_offers_round_trip(self):
        offers = [
            Offer(point={Dimension.CPU: 8.0,
                         Dimension.BANDWIDTH_MBPS: 45.0},
                  price_rate=12.5, note="best quality"),
            Offer(point={Dimension.CPU: 2.0}, price_rate=2.0,
                  note="minimum acceptable quality"),
        ]
        negotiation_id, decoded = codec.decode_offers(
            parse_xml(codec.encode_offers(42, offers)))
        assert negotiation_id == 42
        assert len(decoded) == 2
        assert decoded[0].point == offers[0].point
        assert decoded[0].price_rate == 12.5
        assert decoded[1].note == "minimum acceptable quality"

    def test_empty_offer_list(self):
        negotiation_id, decoded = codec.decode_offers(
            parse_xml(codec.encode_offers(7, [])))
        assert negotiation_id == 7
        assert decoded == []

    def test_wrong_root_rejected(self):
        with pytest.raises(MessageError):
            codec.decode_offers(element("Wrong"))


@settings(max_examples=40, deadline=None)
@given(
    cpu_low=st.integers(min_value=1, max_value=8),
    cpu_extra=st.integers(min_value=0, max_value=8),
    memory=st.integers(min_value=1, max_value=4096),
    start=st.floats(min_value=0, max_value=100, allow_nan=False),
    duration=st.floats(min_value=1, max_value=100, allow_nan=False),
    budget=st.one_of(st.none(),
                     st.floats(min_value=0.1, max_value=100,
                               allow_nan=False)),
    promotion=st.booleans(), degradation=st.booleans(),
    termination=st.booleans(),
)
def test_request_round_trip_property(cpu_low, cpu_extra, memory, start,
                                     duration, budget, promotion,
                                     degradation, termination):
    spec = QoSSpecification.of(
        range_parameter(Dimension.CPU, cpu_low, cpu_low + cpu_extra),
        exact_parameter(Dimension.MEMORY_MB, memory))
    original = ServiceRequest(
        client="p", service_name="svc",
        service_class=ServiceClass.CONTROLLED_LOAD,
        specification=spec, start=start, end=start + duration,
        budget_rate=budget,
        adaptation=AdaptationOptions(accept_promotion=promotion,
                                     accept_degradation=degradation,
                                     accept_termination=termination))
    decoded = codec.decode_service_request(
        parse_xml(codec.encode_service_request(original)))
    assert decoded.adaptation == original.adaptation
    assert decoded.start == pytest.approx(original.start, abs=1e-4)
    assert decoded.end == pytest.approx(original.end, abs=1e-4)
    if budget is None:
        assert decoded.budget_rate is None
    else:
        assert decoded.budget_rate == pytest.approx(budget, rel=1e-4)
    assert decoded.specification.worst_point()[Dimension.CPU] == cpu_low
