"""Integration: the Figure 1 multi-domain architecture."""

from __future__ import annotations

import pytest

from repro.core.testbed import build_multidomain
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.document import NetworkDemand, SlaStatus
from repro.sla.negotiation import ServiceRequest


@pytest.fixture
def world():
    return build_multidomain(domains=2)


def cross_domain_request(client="alice"):
    spec = QoSSpecification.of(exact_parameter(Dimension.CPU, 4),
                               exact_parameter(Dimension.BANDWIDTH_MBPS,
                                               100))
    return ServiceRequest(
        client=client, service_name="simulation-service",
        service_class=ServiceClass.GUARANTEED, specification=spec,
        start=0.0, end=50.0,
        network=NetworkDemand("10.1.0.1", "10.2.0.1", 100.0))


class TestCrossDomainSessions:
    def test_session_with_cross_domain_flow(self, world):
        broker = world.brokers["domain1"]
        outcome = broker.request_service(cross_domain_request())
        assert outcome.accepted
        booking = broker.allocation.get(
            outcome.sla.sla_id).reservation.network_booking
        from repro.network.interdomain import EndToEndAllocation
        assert isinstance(booking, EndToEndAllocation)

    def test_each_broker_manages_its_own_domain(self, world):
        first = world.brokers["domain1"].request_service(
            cross_domain_request("a"))
        second = world.brokers["domain2"].request_service(
            cross_domain_request("b"))
        assert first.accepted and second.accepted
        assert world.brokers["domain1"].partition.committed_total() == 4
        assert world.brokers["domain2"].partition.committed_total() == 4

    def test_interdomain_bandwidth_shared(self, world):
        broker = world.brokers["domain1"]
        # The inter-domain link is 622 Mbps; six 100 Mbps sessions fit,
        # the seventh is refused on the network leg.
        outcomes = [broker.request_service(cross_domain_request(f"c{i}"))
                    for i in range(7)]
        accepted = [o for o in outcomes if o.accepted]
        # Compute also constrains (Cg=15 per domain, 4 CPUs each -> 3
        # sessions fit the commitment rule).
        assert 1 <= len(accepted) <= 6

    def test_termination_releases_cross_domain_flow(self, world):
        broker = world.brokers["domain1"]
        outcome = broker.request_service(cross_domain_request())
        assert outcome.accepted
        assert world.coordinator.can_allocate("site1", "site2", 522.0,
                                              10, 40)
        broker.terminate_session(outcome.sla.sla_id)
        assert outcome.sla.status is SlaStatus.TERMINATED
        assert world.coordinator.can_allocate("site1", "site2", 622.0,
                                              10, 40)

    def test_remote_congestion_reaches_owning_broker(self, world):
        broker = world.brokers["domain1"]
        outcome = broker.request_service(cross_domain_request())
        assert outcome.accepted
        notices = []
        broker.hub.subscribe(notices.append)
        # Congest the inter-domain link via domain1's NRM (it owns it).
        world.coordinator.nrm_for("domain1").set_congestion(
            "site1", "site2", 0.1)
        assert [notice for notice in notices
                if notice.sla_id == outcome.sla.sla_id]
