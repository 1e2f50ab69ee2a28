"""Tests for the AQoS broker (repro.core.broker)."""

from __future__ import annotations

import pytest

from repro.core.testbed import build_testbed, install_observability
from repro.errors import CapacityError
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter, range_parameter
from repro.qos.specification import QoSSpecification
from repro.sla.document import AdaptationOptions, NetworkDemand, SlaStatus
from repro.sla.lifecycle import Phase
from repro.sla.negotiation import ServiceRequest
from repro.units import parse_bound


def guaranteed_request(cpu=10, client="alice", start=0.0, end=100.0,
                       network=False, **adaptation):
    parameters = [exact_parameter(Dimension.CPU, cpu),
                  exact_parameter(Dimension.MEMORY_MB, 512)]
    net = None
    if network:
        net = NetworkDemand("135.200.50.101", "192.200.168.33", 100.0,
                            parse_bound("LessThan 10%"))
    return ServiceRequest(client=client, service_name="simulation-service",
                          service_class=ServiceClass.GUARANTEED,
                          specification=QoSSpecification.from_iterable(
                              parameters),
                          start=start, end=end, network=net,
                          adaptation=AdaptationOptions(**adaptation))


def controlled_request(floor=2, best=8, client="bob", start=0.0, end=100.0,
                       **adaptation):
    spec = QoSSpecification.of(range_parameter(Dimension.CPU, floor, best))
    options = dict(accept_degradation=True)
    options.update(adaptation)
    return ServiceRequest(client=client, service_name="simulation-service",
                          service_class=ServiceClass.CONTROLLED_LOAD,
                          specification=spec, start=start, end=end,
                          adaptation=AdaptationOptions(**options))


class TestEstablishment:
    def test_guaranteed_session_end_to_end(self, testbed):
        outcome = testbed.broker.request_service(
            guaranteed_request(network=True))
        assert outcome.accepted
        sla = outcome.sla
        assert sla.status is SlaStatus.ACTIVE
        assert outcome.session.phase is Phase.ACTIVE
        # Partition holds the commitment; GARA holds the booking.
        holding = testbed.broker.partition_holding(sla.sla_id)
        assert holding.committed == 10
        assert holding.served == 10
        assert testbed.compute_rm.available(0, 50).cpu == 16
        # The network leg was booked on the 622 Mbps link.
        assert testbed.nrm.available_bandwidth(
            "siteB", "siteA", 0, 50) == 522.0

    def test_unknown_service_rejected_at_discovery(self, testbed):
        request = guaranteed_request()
        request = ServiceRequest(
            client="x", service_name="no-such-service",
            service_class=request.service_class,
            specification=request.specification, start=0.0, end=10.0)
        outcome = testbed.broker.request_service(request)
        assert not outcome.accepted
        assert "UDDIe" in outcome.reason
        assert testbed.broker.stats.rejected_discovery == 1

    def test_over_capacity_rejected(self, testbed):
        outcome = testbed.broker.request_service(guaranteed_request(cpu=10))
        assert outcome.accepted
        second = testbed.broker.request_service(
            guaranteed_request(cpu=10, client="eve"))
        assert not second.accepted
        assert testbed.broker.stats.rejected_capacity == 1

    def test_budget_failure(self, testbed):
        request = controlled_request()
        request = ServiceRequest(
            client="cheap", service_name="simulation-service",
            service_class=request.service_class,
            specification=request.specification,
            start=0.0, end=100.0, budget_rate=0.001)
        outcome = testbed.broker.request_service(request)
        assert not outcome.accepted

    def test_controlled_load_starts_at_best_point(self, testbed):
        outcome = testbed.broker.request_service(controlled_request())
        assert outcome.accepted
        assert outcome.sla.delivered_point[Dimension.CPU] == 8.0
        # Commitment is the floor, not the best.
        holding = testbed.broker.partition_holding(outcome.sla.sla_id)
        assert holding.committed == 2

    def test_floor_recorded_as_alternative(self, testbed):
        outcome = testbed.broker.request_service(controlled_request())
        alternatives = outcome.sla.adaptation.alternative_points
        assert any(point[Dimension.CPU] == 2.0 for point in alternatives)


class TestScenario1NewRequest:
    def test_degradable_sessions_squeezed_for_new_guaranteed(self, testbed):
        broker = testbed.broker
        # A CL session stretched to 14 CPUs plus a guaranteed 10 leave
        # only 2 free in the slot table; a new guaranteed 4 needs the
        # CL session squeezed to its 1-CPU floor. Commitments stay
        # inside Cg (1 + 10 + 4 = 15).
        cl = broker.request_service(controlled_request(floor=1, best=14))
        g1 = broker.request_service(guaranteed_request(cpu=10))
        assert cl.accepted and g1.accepted
        g2 = broker.request_service(
            guaranteed_request(cpu=4, client="carol"))
        assert g2.accepted
        assert broker.scenarios.stats.squeezes >= 1
        assert cl.sla.is_degraded()

    def test_over_committed_request_refused_even_with_squeeze(self, testbed):
        # Squeezing delivered points never frees SLA commitments:
        # Σg(u) <= Cg is a hard admission rule.
        broker = testbed.broker
        cl = broker.request_service(controlled_request(floor=2, best=8))
        g1 = broker.request_service(guaranteed_request(cpu=10))
        assert cl.accepted and g1.accepted
        g2 = broker.request_service(
            guaranteed_request(cpu=5, client="carol"))  # 2+10+5 > 15
        assert not g2.accepted

    def test_termination_for_compensation(self, testbed):
        broker = testbed.broker
        victim = broker.request_service(
            controlled_request(floor=6, best=6, accept_termination=True))
        assert victim.accepted
        filler = broker.request_service(guaranteed_request(cpu=9))
        assert filler.accepted
        newcomer = broker.request_service(
            guaranteed_request(cpu=6, client="carol"))
        assert newcomer.accepted
        assert victim.sla.status is SlaStatus.TERMINATED
        assert broker.scenarios.stats.terminations_for_compensation == 1


class TestScenario2Termination:
    def test_completion_restores_degraded_sessions(self, testbed):
        broker = testbed.broker
        sim = testbed.sim
        cl = broker.request_service(controlled_request(end=200.0))
        blocker = broker.request_service(
            guaranteed_request(cpu=10, client="carol", end=50.0))
        assert cl.accepted and blocker.accepted
        # Squeeze the CL session manually to simulate earlier adaptation.
        broker.apply_point(cl.sla, cl.sla.floor_point())
        assert cl.sla.is_degraded()
        sim.run(until=60.0)  # blocker completes at t=50
        assert blocker.sla.status is SlaStatus.COMPLETED
        assert not cl.sla.is_degraded()
        assert broker.scenarios.stats.restorations >= 1

    def test_promotion_offers_on_termination(self, testbed):
        broker = testbed.broker
        sim = testbed.sim
        # The client accepts the *floor* offer, so the session runs
        # legitimately below the spec's best point — the promotion
        # target of Scenario 2 (c).
        request = controlled_request(end=200.0, accept_promotion=True)
        negotiation, reason = broker.negotiate(request)
        assert not reason
        floor_offer = [offer for offer in negotiation.offers
                       if "minimum" in offer.note][0]
        negotiation.accept(floor_offer)
        cl = broker.establish(negotiation)
        assert cl.accepted
        assert not cl.sla.is_degraded()  # floor IS the agreed point
        short = broker.request_service(
            guaranteed_request(cpu=4, client="carol", end=30.0))
        assert short.accepted
        sim.run(until=40.0)
        account = broker.ledger.account(cl.sla.sla_id)
        assert account.promotions_offered >= 1
        assert account.promotions_accepted >= 1
        # The accepted promotion moved the session to the spec best.
        assert cl.sla.delivered_point[Dimension.CPU] == 8.0


class TestPromotionDeclines:
    """``offer_promotion`` declines when the upgrade cannot be applied;
    the client itself accepts every offer."""

    @pytest.fixture
    def at_floor(self, testbed):
        """A controlled-load session agreed at its 2-CPU floor (best 8),
        with decision provenance on."""
        decisions, _ = install_observability(testbed)
        negotiation, reason = testbed.broker.negotiate(
            controlled_request(end=200.0, accept_promotion=True))
        assert not reason
        negotiation.accept([offer for offer in negotiation.offers
                            if "minimum" in offer.note][0])
        outcome = testbed.broker.establish(negotiation)
        assert outcome.accepted
        return outcome.sla, decisions

    def assert_declined(self, broker, sla, decisions, agreed, rate):
        best = sla.specification.best_point()
        assert broker.offer_promotion(sla, best) is False
        account = broker.ledger.account(sla.sla_id)
        assert account.promotions_offered == 1
        assert account.promotions_accepted == 0
        assert sla.agreed_point == agreed
        assert sla.price_rate == rate
        record = decisions.records[-1]
        assert record.action == "promotion"
        assert record.outcome == "decline"
        assert record.constraint == "client/capacity"

    def test_declined_when_the_point_does_not_fit_idle_capacity(
            self, testbed, at_floor):
        sla, decisions = at_floor
        broker = testbed.broker
        # 20 best-effort nodes leave 4 idle; the upgrade needs 6 more.
        assert broker.request_best_effort("student", 20)
        assert broker.partition.idle_capacity() == pytest.approx(4.0)
        self.assert_declined(broker, sla, decisions,
                             dict(sla.agreed_point), sla.price_rate)

    def test_rolled_back_when_applying_the_point_fails(
            self, testbed, at_floor, monkeypatch):
        sla, decisions = at_floor
        broker = testbed.broker
        agreed, rate = dict(sla.agreed_point), sla.price_rate

        def refuse(sla, point):
            # The agreed terms were already raised when this runs.
            assert sla.agreed_point[Dimension.CPU] == 8.0
            raise CapacityError("reservation resize refused")

        monkeypatch.setattr(broker, "apply_point", refuse)
        self.assert_declined(broker, sla, decisions, agreed, rate)
        assert agreed == {Dimension.CPU: 2.0}


class TestScenario3Degradation:
    def test_compute_failure_covered_by_adaptive_reserve(self, testbed):
        broker = testbed.broker
        outcome = broker.request_service(guaranteed_request(cpu=14))
        assert outcome.accepted
        notices = []
        broker.hub.subscribe(notices.append)
        testbed.machine.fail_nodes(3)
        holding = broker.partition_holding(outcome.sla.sla_id)
        assert holding.served == 14  # Adapt() covered the loss
        assert notices == []

    def test_congestion_degrades_controlled_load_in_place(self, testbed):
        broker = testbed.broker
        spec = QoSSpecification.of(
            range_parameter(Dimension.CPU, 2, 4),
            range_parameter(Dimension.BANDWIDTH_MBPS, 100, 500))
        request = ServiceRequest(
            client="viz", service_name="simulation-service",
            service_class=ServiceClass.CONTROLLED_LOAD,
            specification=spec, start=0.0, end=100.0,
            network=NetworkDemand("135.200.50.101", "192.200.168.33",
                                  500.0),
            adaptation=AdaptationOptions(accept_degradation=True))
        outcome = broker.request_service(request)
        assert outcome.accepted
        testbed.nrm.set_congestion("siteA", "siteB", 0.3)
        # The NRM notice triggers Scenario 3: degrade to the floor.
        assert broker.scenarios.stats.self_degradations >= 1
        assert outcome.sla.is_degraded()

    def test_major_degradation_terminates_guaranteed(self, testbed):
        broker = testbed.broker
        outcome = broker.request_service(
            guaranteed_request(cpu=10, network=True))
        assert outcome.accepted
        notices = []
        broker.hub.subscribe(notices.append)
        # Collapse the link to 10% — delivered 62.2 of 100 agreed is a
        # > 0.5 severity... actually 0.378; drive it harder:
        testbed.nrm.set_congestion("siteA", "siteB", 0.1)
        assert outcome.sla.status in (SlaStatus.TERMINATED,
                                      SlaStatus.ACTIVE)
        # The NRM raised the degradation.
        assert [notice for notice in notices
                if notice.sla_id == outcome.sla.sla_id]


class TestBestEffort:
    def test_strict_admission(self, testbed):
        broker = testbed.broker
        assert broker.request_best_effort("u1", 26)
        assert not broker.request_best_effort("u2", 1)

    def test_duration_releases(self, testbed):
        broker = testbed.broker
        assert broker.request_best_effort("u1", 26, duration=10.0)
        testbed.sim.run(until=11.0)
        assert broker.partition.idle_capacity() == pytest.approx(26.0)

    def test_best_effort_request_via_request_service(self, testbed):
        request = ServiceRequest(
            client="student", service_name="*",
            service_class=ServiceClass.BEST_EFFORT,
            specification=QoSSpecification.of(
                exact_parameter(Dimension.CPU, 4)),
            start=0.0, end=20.0)
        outcome = testbed.broker.request_service(request)
        assert outcome.accepted


class TestOptimizer:
    def test_optimizer_moves_sessions_to_best_within_budget(self, testbed):
        broker = testbed.broker
        first = broker.request_service(controlled_request(floor=2, best=8))
        second = broker.request_service(
            controlled_request(floor=2, best=8, client="carol"))
        broker.apply_point(first.sla, first.sla.floor_point())
        broker.apply_point(second.sla, second.sla.floor_point())
        result = broker.run_optimizer()
        assert result is not None
        assert not first.sla.is_degraded()
        assert not second.sla.is_degraded()

    def test_periodic_optimizer_scheduled(self):
        testbed = build_testbed(optimizer_interval=10.0)
        broker = testbed.broker
        outcome = broker.request_service(controlled_request(end=100.0))
        broker.apply_point(outcome.sla, outcome.sla.floor_point())
        testbed.sim.run(until=25.0)
        assert broker.stats.optimizer_runs >= 2
        assert not outcome.sla.is_degraded()


class TestClearing:
    def test_window_expiry_closes_session(self, testbed):
        broker = testbed.broker
        outcome = broker.request_service(guaranteed_request(end=50.0))
        testbed.sim.run(until=60.0)
        assert outcome.sla.status in (SlaStatus.COMPLETED,
                                      SlaStatus.EXPIRED)
        assert broker.partition_holding(outcome.sla.sla_id) is None
        assert broker.partition.idle_capacity() == pytest.approx(26.0)

    def test_terminate_session_releases_everything(self, testbed):
        broker = testbed.broker
        outcome = broker.request_service(
            guaranteed_request(network=True))
        broker.terminate_session(outcome.sla.sla_id)
        assert outcome.sla.status is SlaStatus.TERMINATED
        assert testbed.compute_rm.available(10, 50).cpu == 26
        assert testbed.nrm.available_bandwidth(
            "siteB", "siteA", 10, 50) == 622.0

    def test_revenue_accrued_for_completed_session(self, testbed):
        broker = testbed.broker
        outcome = broker.request_service(guaranteed_request(end=50.0))
        testbed.sim.run(until=60.0)
        account = broker.ledger.account(outcome.sla.sla_id)
        assert account.gross_revenue() == pytest.approx(
            outcome.sla.price_rate * 50.0, rel=0.05)


class TestSnapshot:
    def test_snapshot_keys(self, testbed):
        broker = testbed.broker
        broker.request_service(guaranteed_request())
        snapshot = broker.snapshot()
        assert snapshot["accepted"] == 1.0
        assert snapshot["partition.committed"] == 10.0
        assert snapshot["active_sessions"] == 1.0
