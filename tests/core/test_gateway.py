"""Unit tests for the broker gateway (repro.core.gateway).

The happy paths are covered by the Figure 5 integration tests; these
pin the protocol edge cases.
"""

from __future__ import annotations

import pytest

from repro.core.gateway import BrokerGateway, ClientStub
from repro.errors import MessageError
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.negotiation import NegotiationState, ServiceRequest
from repro.xmlmsg import codec
from repro.xmlmsg.bus import MessageBus
from repro.xmlmsg.envelope import Envelope

from ..xmlmsg.trees import element, subelement


@pytest.fixture
def world(testbed):
    bus = MessageBus(testbed.sim)
    gateway = BrokerGateway(testbed.broker, bus)
    return testbed, bus, gateway, ClientStub("client1", bus)


def request_for(client="client1", cpu=4):
    spec = QoSSpecification.of(exact_parameter(Dimension.CPU, cpu))
    return ServiceRequest(client=client,
                          service_name="simulation-service",
                          service_class=ServiceClass.GUARANTEED,
                          specification=spec, start=0.0, end=50.0)


class TestProtocolEdgeCases:
    def test_accept_unknown_negotiation(self, world):
        _testbed, bus, _gateway, _client = world
        body = element("Accept_Offer")
        subelement(body, "Negotiation-ID", "424242")
        with pytest.raises(MessageError):
            bus.request(Envelope(sender="client1", recipient="aqos",
                                 action="accept_offer", body=body))

    def test_reject_unknown_negotiation(self, world):
        _testbed, _bus, _gateway, client = world
        with pytest.raises(MessageError,
                           match="unknown or finished negotiation 424242"):
            client.reject_offer(424242)

    def test_double_accept_rejected(self, world):
        _testbed, bus, _gateway, client = world
        negotiation_id, _offers, _ = client.request_service(request_for())
        client.accept_offer(negotiation_id)
        with pytest.raises(MessageError):
            client.accept_offer(negotiation_id)

    def test_reject_then_accept_rejected(self, world):
        _testbed, _bus, _gateway, client = world
        negotiation_id, _offers, _ = client.request_service(request_for())
        client.reject_offer(negotiation_id)
        with pytest.raises(MessageError):
            client.accept_offer(negotiation_id)

    def test_custom_endpoint_name(self, testbed):
        bus = MessageBus(testbed.sim)
        BrokerGateway(testbed.broker, bus, endpoint_name="aqos-2")
        client = ClientStub("c", bus, gateway_name="aqos-2")
        negotiation_id, offers, reason = client.request_service(
            request_for())
        assert reason == ""
        assert offers

    def test_offer_index_selects_offer(self, testbed):
        from repro.qos.parameters import range_parameter
        bus = MessageBus(testbed.sim)
        BrokerGateway(testbed.broker, bus)
        client = ClientStub("c", bus)
        spec = QoSSpecification.of(range_parameter(Dimension.CPU, 2, 8))
        negotiation_id, offers, _ = client.request_service(
            ServiceRequest(client="c",
                           service_name="simulation-service",
                           service_class=ServiceClass.CONTROLLED_LOAD,
                           specification=spec, start=0.0, end=50.0))
        assert len(offers) == 2
        sla, failure = client.accept_offer(negotiation_id, offer_index=1)
        assert failure == ""
        assert sla.agreed_point[Dimension.CPU] == 2.0  # the floor offer

    def test_verify_unknown_sla(self, world):
        _testbed, _bus, _gateway, client = world
        with pytest.raises(Exception):
            client.verify_sla(999_999)

    def test_failure_reason_travels_back(self, world):
        _testbed, _bus, _gateway, client = world
        _id, offers, reason = client.request_service(
            request_for(cpu=25))  # over Cg
        assert offers == []
        assert reason != ""


class TestStaleNegotiations:
    """An offer the client never answers is cleared through a reject,
    so no negotiation stays wedged in ``OFFERED``."""

    def test_sweep_abandons_an_offer_older_than_max_age(self, world):
        testbed, _bus, gateway, client = world
        negotiation_id, _offers, _ = client.request_service(request_for())
        negotiation = gateway._negotiations[negotiation_id]
        testbed.sim.run(until=10.0)
        assert gateway.sweep_stale(5.0) == 1
        assert negotiation.state is NegotiationState.REJECTED
        with pytest.raises(MessageError,
                           match="unknown or finished negotiation"):
            client.accept_offer(negotiation_id)

    def test_sweep_keeps_an_offer_within_max_age(self, world):
        testbed, _bus, gateway, client = world
        negotiation_id, _offers, _ = client.request_service(request_for())
        testbed.sim.run(until=4.0)
        assert gateway.sweep_stale(5.0) == 0
        sla, failure = client.accept_offer(negotiation_id)
        assert failure == ""
        assert sla is not None

    def test_abandon_of_an_unknown_or_accepted_id_is_false(self, world):
        _testbed, _bus, gateway, client = world
        assert gateway.abandon(424242) is False
        negotiation_id, _offers, _ = client.request_service(request_for())
        client.accept_offer(negotiation_id)
        assert gateway.abandon(negotiation_id) is False
        assert gateway.sweep_stale(0.0) == 0


class TestNoRenegotiation:
    def test_a_renegotiate_envelope_has_no_handler(self, world):
        """Terms change only through a promotion: a well-formed
        client ``renegotiate`` of a live SLA finds no handler."""
        _testbed, bus, _gateway, client = world
        negotiation_id, _offers, _ = client.request_service(
            request_for(cpu=10))
        sla, _ = client.accept_offer(negotiation_id)
        smaller = QoSSpecification.of(exact_parameter(Dimension.CPU, 4))
        body = (f"<Renegotiate><SLA-ID>{sla.sla_id}</SLA-ID>"
                f"{codec.SPECIFICATION.write(smaller)}</Renegotiate>")
        with pytest.raises(MessageError,
                           match="no handler for action 'renegotiate'"):
            bus.request(Envelope(sender="client1", recipient="aqos",
                                 action="renegotiate", body=body))
