"""Tests for the negotiation protocol (repro.sla.negotiation)."""

from __future__ import annotations

import pytest

from repro.errors import NegotiationError
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, range_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.negotiation import (
    Negotiation,
    NegotiationState,
    Offer,
    ServiceRequest,
)


def make_request(budget_rate=None):
    spec = QoSSpecification.of(range_parameter(Dimension.CPU, 2, 8))
    return ServiceRequest(client="alice", service_name="render",
                          service_class=ServiceClass.CONTROLLED_LOAD,
                          specification=spec, start=0.0, end=50.0,
                          budget_rate=budget_rate)


def offers():
    return [Offer(point={Dimension.CPU: 8.0}, price_rate=8.0,
                  note="best"),
            Offer(point={Dimension.CPU: 2.0}, price_rate=2.0,
                  note="floor")]


class TestProtocol:
    def test_accept_flow(self):
        negotiation = Negotiation(make_request())
        negotiation.propose(offers())
        assert negotiation.state is NegotiationState.OFFERED
        chosen = negotiation.accept()
        assert chosen.note == "best"
        assert negotiation.state is NegotiationState.ACCEPTED

    def test_accept_specific_offer(self):
        negotiation = Negotiation(make_request())
        negotiation.propose(offers())
        chosen = negotiation.accept(negotiation.offers[1])
        assert chosen.note == "floor"

    def test_accept_foreign_offer_rejected(self):
        negotiation = Negotiation(make_request())
        negotiation.propose(offers())
        with pytest.raises(NegotiationError):
            negotiation.accept(Offer(point={Dimension.CPU: 4.0},
                                     price_rate=1.0))

    def test_reject_flow(self):
        negotiation = Negotiation(make_request())
        negotiation.propose(offers())
        negotiation.reject()
        assert negotiation.state is NegotiationState.REJECTED

    def test_empty_proposal_fails(self):
        negotiation = Negotiation(make_request())
        negotiation.propose([])
        assert negotiation.state is NegotiationState.FAILED

    def test_budget_filters_offers(self):
        negotiation = Negotiation(make_request(budget_rate=5.0))
        negotiation.propose(offers())
        assert [offer.note for offer in negotiation.offers] == ["floor"]

    def test_budget_rejecting_everything_fails(self):
        negotiation = Negotiation(make_request(budget_rate=1.0))
        negotiation.propose(offers())
        assert negotiation.state is NegotiationState.FAILED


class TestOrdering:
    def test_propose_twice_rejected(self):
        negotiation = Negotiation(make_request())
        negotiation.propose(offers())
        with pytest.raises(NegotiationError):
            negotiation.propose(offers())

    def test_accept_before_propose_rejected(self):
        with pytest.raises(NegotiationError):
            Negotiation(make_request()).accept()

    def test_inverted_request_window_rejected(self):
        spec = QoSSpecification.of(range_parameter(Dimension.CPU, 1, 2))
        with pytest.raises(NegotiationError):
            ServiceRequest(client="c", service_name="s",
                           service_class=ServiceClass.GUARANTEED,
                           specification=spec, start=10.0, end=5.0)


class TestBuildSla:
    def test_sla_carries_offer_terms(self):
        negotiation = Negotiation(make_request())
        negotiation.propose(offers())
        negotiation.accept()
        sla = negotiation.build_sla(sla_id=1055)
        assert sla.sla_id == 1055
        assert sla.client == "alice"
        assert sla.agreed_point == {Dimension.CPU: 8.0}
        assert sla.price_rate == 8.0

    def test_build_before_accept_rejected(self):
        negotiation = Negotiation(make_request())
        negotiation.propose(offers())
        with pytest.raises(NegotiationError):
            negotiation.build_sla(sla_id=1)
