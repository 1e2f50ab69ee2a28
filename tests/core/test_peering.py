"""Cross-domain overflow (Figure 1's AQoS-to-AQoS links).

A broker hands a request it cannot serve to another domain in one way
only: the federation plane's delegation (bid, delegate, confirm). A
standalone broker refuses.
"""

from __future__ import annotations

from repro.federation.plane import FederatedControlPlane
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.negotiation import ServiceRequest


def compute_request(client, cpu, end=100.0):
    spec = QoSSpecification.of(exact_parameter(Dimension.CPU, cpu))
    return ServiceRequest(client=client,
                          service_name="simulation-service",
                          service_class=ServiceClass.GUARANTEED,
                          specification=spec, start=0.0, end=end)


class TestForwarding:
    def test_overflow_lands_on_the_peer(self):
        plane = FederatedControlPlane(domains=2)
        # Each domain has Cg = 15. Three 7-node sessions: two fit d1,
        # the third must be delegated to d2.
        outcomes = [plane.request_service(compute_request(f"c{i}", 7),
                                          home="d1")
                    for i in range(3)]
        assert all(outcome.accepted for outcome in outcomes)
        assert [outcome.domain for outcome in outcomes] \
            == ["d1", "d1", "d2"]
        assert outcomes[2].delegated
        assert len(plane.domains["d1"].testbed.broker.repository.live()) \
            == 2
        assert len(plane.domains["d2"].testbed.broker.repository.live()) \
            == 1

    def test_no_loop_when_everyone_is_full(self):
        plane = FederatedControlPlane(domains=2)
        for i in range(4):  # 28 > 15+15 committed across both domains
            plane.request_service(compute_request(f"fill{i}", 7),
                                  home="d1")
        outcome = plane.request_service(compute_request("extra", 7),
                                        home="d1")
        assert not outcome.accepted  # refused everywhere, no recursion
        assert outcome.domain is None

    def test_forwarding_traced(self):
        plane = FederatedControlPlane(domains=2)
        for i in range(3):
            plane.request_service(compute_request(f"c{i}", 7), home="d1")
        records = plane.domains["d1"].testbed.decisions.for_subject("c2")
        assert "delegate" in [record.outcome for record in records
                              if record.action == "federation"]

    def test_standalone_broker_still_refuses(self, testbed):
        first = testbed.broker.request_service(
            compute_request("a", 10))
        second = testbed.broker.request_service(
            compute_request("b", 10))
        assert first.accepted
        assert not second.accepted
