"""Decision provenance: guard discipline, record content, stamps."""

from __future__ import annotations

from repro.core.testbed import build_testbed, install_observability
from repro.obs import DecisionLog, DecisionRecord, point_payload
from repro.qos.classes import ServiceClass
from repro.qos.parameters import Dimension, exact_parameter
from repro.qos.specification import QoSSpecification
from repro.recovery.recover import install_journal
from repro.sla.negotiation import ServiceRequest
from repro.telemetry.events import EventStream


def _request(client: str = "user1", cpu: int = 4,
             service_class: ServiceClass = ServiceClass.GUARANTEED
             ) -> ServiceRequest:
    spec = QoSSpecification.of(
        exact_parameter(Dimension.CPU, cpu),
        exact_parameter(Dimension.MEMORY_MB, 256))
    return ServiceRequest(
        client=client, service_name="simulation-service",
        service_class=service_class, specification=spec,
        start=0.0, end=100.0)


class TestGuardDiscipline:
    def test_provenance_is_off_by_default(self):
        testbed = build_testbed()
        assert not testbed.probe.explaining
        assert testbed.decisions is None and testbed.slo is None

    def test_admissions_work_without_provenance(self):
        testbed = build_testbed()
        outcome = testbed.broker.request_service(_request())
        assert outcome.accepted
        assert testbed.decisions is None

    def test_install_is_idempotent(self):
        testbed = build_testbed()
        first = install_observability(testbed)
        second = install_observability(testbed)
        assert first == second
        assert testbed.decisions is first[0]
        assert testbed.slo is first[1]


class TestDecisionLog:
    def test_records_are_stamped_and_sequenced(self):
        log = DecisionLog(now=lambda: 5.0)
        first = log.decide("admission", "accept", subject="sla-1",
                           sla_id=1)
        second = log.decide("admission", "reject", subject="user2",
                            constraint="capacity", reason="full")
        assert isinstance(first, DecisionRecord)
        assert (first.decision_id, second.decision_id) == (1, 2)
        assert first.time == 5.0 and second.outcome == "reject"
        assert len(log) == 2
        assert [record.decision_id for record in log.records] == [1, 2]

    def test_stream_emit_carries_the_record(self):
        stream = EventStream()
        log = DecisionLog(now=lambda: 1.0, stream=stream)
        log.decide("admission", "reject", subject="user1",
                   constraint="discovery", reason="no service")
        events = [event for event in stream.events
                  if event.category == "decision"]
        assert len(events) == 1
        assert events[0].details["constraint"] == "discovery"
        assert events[0].details["outcome"] == "reject"
        assert "time" not in events[0].details  # positional on the event

    def test_query_helpers(self):
        log = DecisionLog(now=lambda: 0.0)
        log.decide("admission", "reject", subject="user1")
        log.decide("admission", "accept", subject="sla-7", sla_id=7)
        log.decide("violation", "detected", sla_id=7)
        assert [r.outcome for r in log.for_sla(7)] == ["accept",
                                                       "detected"]
        assert [r.action for r in log.for_subject("user1")] == \
            ["admission"]
        assert len(log.by_action("admission")) == 2

    def test_point_payload_rekeys_dimensions(self):
        payload = point_payload({Dimension.MEMORY_MB: 256.0,
                                 Dimension.CPU: 4.0})
        assert list(payload) == sorted(payload)
        assert payload[Dimension.CPU.value] == 4.0

    def test_candidates_are_jsonified(self):
        log = DecisionLog(now=lambda: 0.0)
        record = log.decide(
            "admission", "accept",
            candidates=[{"point": {Dimension.CPU: 4.0}, "rate": 1.5}],
            chosen={"point": {Dimension.CPU: 4.0}})
        assert record.candidates[0]["point"] == {Dimension.CPU.value: 4.0}
        assert record.chosen["point"] == {Dimension.CPU.value: 4.0}


class TestBrokerEmitSites:
    def test_accept_records_chosen_point_and_revenue(self):
        testbed = build_testbed()
        decisions, _slo = install_observability(testbed)
        outcome = testbed.broker.request_service(_request())
        assert outcome.accepted
        accepts = [record for record in decisions.records
                   if record.action == "admission"
                   and record.outcome == "accept"]
        assert len(accepts) == 1
        record = accepts[0]
        assert record.sla_id == outcome.sla.sla_id
        assert record.chosen is not None
        assert record.chosen["revenue_rate"] == outcome.sla.price_rate
        assert record.candidates, "accept must list the offered levels"
        assert record.headroom["eff_g"] > 0.0

    def test_capacity_reject_names_the_constraint(self):
        testbed = build_testbed()
        decisions, _slo = install_observability(testbed)
        outcome = testbed.broker.request_service(
            _request(client="greedy", cpu=20))
        assert not outcome.accepted
        rejects = [record for record in decisions.records
                   if record.outcome == "reject"]
        assert len(rejects) == 1
        assert rejects[0].constraint == "capacity"
        assert rejects[0].subject == "greedy"
        assert "insufficient resources" in rejects[0].reason

    def test_discovery_reject_names_the_constraint(self):
        testbed = build_testbed()
        decisions, _slo = install_observability(testbed)
        request = _request(client="lost")
        outcome = testbed.broker.request_service(
            ServiceRequest(
                client="lost", service_name="no-such-service",
                service_class=request.service_class,
                specification=request.specification,
                start=0.0, end=100.0))
        assert not outcome.accepted
        assert decisions.records[-1].constraint == "discovery"

    def test_best_effort_grant_is_recorded(self):
        testbed = build_testbed()
        decisions, _slo = install_observability(testbed)
        granted = testbed.broker.request_best_effort("be-user", 2.0)
        assert granted is True
        grants = decisions.by_action("best_effort")
        assert len(grants) == 1
        assert grants[0].outcome == "grant"
        assert grants[0].chosen["requested"] == 2.0

    def test_batched_records_are_stamped_with_spans(self):
        testbed = build_testbed()
        decisions, _slo = install_observability(testbed)
        install_journal(testbed)
        outcomes = testbed.broker.request_services(
            [_request(), _request(client="user2")])
        assert all(outcome.accepted for outcome in outcomes)
        accepts = [record for record in decisions.records
                   if record.outcome == "accept"]
        assert len(accepts) == 2
        assert all(r.trace_id and r.span_id for r in accepts)
        # Mid-group-commit the stamp is the newest *durable* LSN: the
        # first batch has none yet, and a later batch sees the first
        # batch's flushed records.
        assert all(r.lsn == 0 for r in accepts)
        outcomes = testbed.broker.request_services(
            [_request(client="user3")])
        assert outcomes[0].accepted
        assert decisions.records[-1].lsn > 0

    def test_journal_installed_after_observability_still_stamps(self):
        testbed = build_testbed()
        decisions, _slo = install_observability(testbed)
        install_journal(testbed)  # after — the probe reads it per record
        outcome = testbed.broker.request_service(_request())
        assert outcome.accepted
        assert decisions.records[-1].lsn > 0
