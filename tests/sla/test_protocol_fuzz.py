"""Stateful fuzz tests for the negotiation protocol and the session
lifecycle: random action sequences can never corrupt either state
machine — every call either succeeds legally or raises the documented
error, and the observable state stays consistent."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.testbed import attach_control_plane, build_testbed
from repro.errors import (
    LifecycleError,
    MessageError,
    NegotiationError,
    ValidationError,
)
from repro.xmlmsg.envelope import Envelope
from repro.qos.classes import ServiceClass
from repro.qos.parameters import (Dimension, discrete_parameter,
                                  exact_parameter, range_parameter)
from repro.qos.specification import QoSSpecification
from repro.sla.lifecycle import (
    PHASE_FUNCTIONS,
    Phase,
    QoSFunction,
    QoSSession,
)
from repro.sla.negotiation import Negotiation, NegotiationState, Offer, ServiceRequest

from ..xmlmsg.trees import element, subelement


def _request():
    spec = QoSSpecification.of(range_parameter(Dimension.CPU, 2, 8))
    return ServiceRequest(client="fuzz", service_name="svc",
                          service_class=ServiceClass.CONTROLLED_LOAD,
                          specification=spec, start=0.0, end=10.0)


def _offers():
    return [Offer(point={Dimension.CPU: 8.0}, price_rate=8.0),
            Offer(point={Dimension.CPU: 2.0}, price_rate=2.0)]


class NegotiationMachine(RuleBasedStateMachine):
    """Random propose/accept/reject/counter interleavings."""

    def __init__(self):
        super().__init__()
        self.negotiation = Negotiation(_request())

    def _attempt(self, action) -> None:
        state_before = self.negotiation.state
        try:
            action()
        except NegotiationError:
            # Illegal for the current state: state must be unchanged.
            assert self.negotiation.state is state_before

    @rule()
    def propose(self):
        self._attempt(lambda: self.negotiation.propose(_offers()))

    @rule()
    def propose_empty(self):
        self._attempt(lambda: self.negotiation.propose([]))

    @rule()
    def accept(self):
        self._attempt(self.negotiation.accept)

    @rule()
    def reject(self):
        self._attempt(self.negotiation.reject)

    @rule(budget=st.floats(min_value=0.1, max_value=20.0,
                           allow_nan=False))
    def counter(self, budget):
        self._attempt(lambda: self.negotiation.counter(
            budget_rate=budget))

    @rule()
    def build(self):
        try:
            sla = self.negotiation.build_sla(sla_id=1)
        except NegotiationError:
            assert self.negotiation.state is not NegotiationState.ACCEPTED
        else:
            assert self.negotiation.state is NegotiationState.ACCEPTED
            assert sla.agreed_point == self.negotiation.accepted_offer.point

    @invariant()
    def accepted_offer_consistency(self):
        if self.negotiation.state is NegotiationState.ACCEPTED:
            assert self.negotiation.accepted_offer is not None
        if self.negotiation.state in (NegotiationState.REQUESTED,
                                      NegotiationState.FAILED):
            assert self.negotiation.accepted_offer is None

    @invariant()
    def offers_only_when_offered_or_after(self):
        if self.negotiation.state is NegotiationState.REQUESTED:
            assert self.negotiation.offers == []


NegotiationMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestNegotiationFuzz = NegotiationMachine.TestCase


class LifecycleMachine(RuleBasedStateMachine):
    """Random phase transitions and function executions."""

    def __init__(self):
        super().__init__()
        self.session = QoSSession(session_id=1)

    def _attempt(self, action) -> None:
        phase_before = self.session.phase
        history_before = len(self.session.history)
        try:
            action()
        except LifecycleError:
            assert self.session.phase is phase_before
            assert len(self.session.history) == history_before

    @rule()
    def enter_active(self):
        self._attempt(self.session.enter_active)

    @rule(cause=st.sampled_from(["expiration", "violation",
                                 "completion", "client-request",
                                 "nonsense"]))
    def enter_clearing(self, cause):
        self._attempt(lambda: self.session.enter_clearing(cause))

    @rule()
    def close(self):
        self._attempt(self.session.close)

    @rule(function=st.sampled_from(list(QoSFunction)))
    def perform(self, function):
        self._attempt(lambda: self.session.perform(function))

    @invariant()
    def history_matches_phase_legality(self):
        # Every recorded function must have been legal in *some* phase
        # the session has passed through; spot-check the last one
        # against the current-or-earlier phases.
        for _time, function in self.session.history[-3:]:
            assert any(function in PHASE_FUNCTIONS[phase]
                       for phase in Phase)

    @invariant()
    def clearing_cause_set_iff_cleared(self):
        if self.session.phase in (Phase.CLEARING, Phase.CLOSED):
            assert self.session.clearing_cause in (
                "expiration", "violation", "completion", "client-request")
        if self.session.phase is Phase.ESTABLISHMENT:
            assert self.session.clearing_cause is None


LifecycleMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestLifecycleFuzz = LifecycleMachine.TestCase


# ======================================================================
# Envelope wire fuzz: mutated / truncated headers
# ======================================================================

_HEADER_TAGS = ("MessageID", "Sender", "Recipient", "Action")

_mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(min_value=0)),
    st.tuples(st.just("drop_header"), st.sampled_from(_HEADER_TAGS)),
    st.tuples(st.just("blank_header"), st.sampled_from(_HEADER_TAGS)),
    st.tuples(st.just("scramble_header"), st.sampled_from(_HEADER_TAGS),
              st.text(alphabet="abcxyz-0123<&", min_size=1, max_size=12)),
    st.tuples(st.just("noise_in_header"), st.integers(min_value=0),
              st.sampled_from(list("<>&\"'qz0/"))),
)


def _mutate(xml: str, op) -> str:
    """Apply one header-targeted wire mutation to an envelope doc."""
    kind = op[0]
    if kind == "truncate":
        return xml[:op[1] % (len(xml) + 1)]
    if kind == "drop_header":
        return re.sub(rf"\s*<{op[1]}>[^<]*</{op[1]}>", "", xml, count=1)
    if kind == "blank_header":
        return re.sub(rf"<{op[1]}>[^<]*</{op[1]}>",
                      f"<{op[1]}></{op[1]}>", xml, count=1)
    if kind == "scramble_header":
        return re.sub(rf"<{op[1]}>[^<]*</{op[1]}>",
                      f"<{op[1]}>{op[2]}</{op[1]}>", xml, count=1)
    # noise_in_header: inject one character somewhere inside <Header>
    # (anywhere, if an earlier truncation already removed the header).
    start = xml.find("<Header>")
    end = xml.find("</Header>")
    if start == -1 or end == -1 or end <= start:
        start, end = 0, len(xml)
    position = start + op[1] % max(end - start, 1)
    return xml[:position] + op[2] + xml[position:]


def _sample_envelope_xml() -> str:
    body = element("Accept_Offer")
    subelement(body, "Negotiation-ID", "1")
    subelement(body, "Offer-Index", "0")
    return Envelope(sender="fuzz", recipient="aqos",
                    action="accept_offer", body=body).to_xml()


class TestEnvelopeWireFuzz:
    """Malformed control-plane messages must fail typed — and never
    half-commit a reservation."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_mutations, min_size=1, max_size=3))
    def test_parse_raises_message_error_or_roundtrips(self, ops):
        """Any header mutation/truncation either still parses or
        raises :class:`MessageError` — never ``KeyError``,
        ``AttributeError`` or a raw ``ParseError``."""
        xml = _sample_envelope_xml()
        for op in ops:
            xml = _mutate(xml, op)
        try:
            envelope = Envelope.from_xml(xml)
        except MessageError:
            return
        # Survivors must re-serialize losslessly (headers are intact).
        replayed = Envelope.from_xml(envelope.to_xml())
        assert replayed.dedup_key == envelope.dedup_key
        assert replayed.action == envelope.action

    @settings(max_examples=25, deadline=None)
    @given(_mutations)
    def test_mutated_accept_never_partially_commits(self, op):
        """A mutated ``accept_offer`` either fails with a typed error
        and changes *nothing* (no committed capacity, no slot-table
        entry, negotiation still pending) or goes through whole."""
        testbed = attach_control_plane(build_testbed())
        client = testbed.client("fuzz")
        negotiation_id, offers, _reason = client.request_service(
            _request_for_broker())
        assert negotiation_id is not None and offers
        partition = testbed.partition
        table = testbed.compute_rm.slot_table
        committed_before = partition.committed_total()
        entries_before = len(table)
        slas_before = len(testbed.repository.all())

        body = element("Accept_Offer")
        subelement(body, "Negotiation-ID", str(negotiation_id))
        subelement(body, "Offer-Index", "0")
        xml = _mutate(Envelope(sender="fuzz", recipient="aqos",
                               action="accept_offer", body=body).to_xml(),
                      op)
        try:
            response = testbed.bus.request(Envelope.from_xml(xml))
        except (MessageError, ValidationError):
            # All-or-nothing: the failed message left no trace.
            assert partition.committed_total() == committed_before
            assert len(table) == entries_before
            assert len(testbed.repository.all()) == slas_before
            assert negotiation_id in testbed.gateway._negotiations
        else:
            assert response.action == "sla_established"
            assert len(testbed.repository.all()) == slas_before + 1
            assert negotiation_id not in \
                testbed.gateway._negotiations


def _request_for_broker():
    spec = QoSSpecification.of(range_parameter(Dimension.CPU, 2, 8))
    return ServiceRequest(client="fuzz",
                          service_name="simulation-service",
                          service_class=ServiceClass.CONTROLLED_LOAD,
                          specification=spec, start=0.0, end=10.0)


# ======================================================================
# Body wire fuzz: every action's payload, one field mutated
# ======================================================================

def _body_samples():
    """One compact body per message the control plane sends, with the
    reader its receiver runs on it."""
    from repro.core import discovery, gateway
    from repro.federation import protocol
    from repro.monitoring import relay
    from repro.monitoring.notifications import DegradationNotice
    from repro.registry.query import PropertyConstraint, ServiceQuery
    from repro.registry.uddie import ServiceRecord
    from repro.sla.document import AdaptationOptions, NetworkDemand, ServiceSLA
    from repro.sla.violations import ConformanceReport, MeasuredQoS, Violation
    from repro.units import parse_bound
    from repro.xmlmsg import codec

    spec = QoSSpecification.of(
        range_parameter(Dimension.CPU, 2, 8),
        exact_parameter(Dimension.MEMORY_MB, 64),
        discrete_parameter(Dimension.BANDWIDTH_MBPS, [10, 45]))
    network = NetworkDemand("10.0.0.1", "10.0.0.2", 10.0,
                            parse_bound("LessThan 10%"), delay_bound_ms=20.0)
    adaptation = AdaptationOptions(
        alternative_points=({Dimension.CPU: 2.0},), accept_promotion=True)
    request = ServiceRequest(
        client="fuzz", service_name="svc",
        service_class=ServiceClass.CONTROLLED_LOAD, specification=spec,
        start=0.0, end=10.0, budget_rate=5.0, network=network,
        adaptation=adaptation)
    sla = ServiceSLA(
        sla_id=1001, client="fuzz", service_name="svc",
        service_class=ServiceClass.CONTROLLED_LOAD, specification=spec,
        agreed_point=spec.best_point(), start=0.0, end=10.0,
        price_rate=8.0, network=network, adaptation=adaptation)
    measured = MeasuredQoS(1001, {Dimension.CPU: 8.0,
                                  Dimension.BANDWIDTH_MBPS: 9.5,
                                  Dimension.PACKET_LOSS: 0.02}, time=3.0)
    notice = DegradationNotice(
        sla_id=1001, time=3.0, source="nrm", detail="dip",
        report=ConformanceReport(
            1001, 3.0, (Violation(1001, Dimension.BANDWIDTH_MBPS, 10.0,
                                  9.5, 0.05),), measured))
    record = ServiceRecord(7, "svc", "acme", "rm", spec,
                           {"cores": 8, "gpu": True, "load": 0.5})
    query = ServiceQuery("svc*", (PropertyConstraint("cores", ">=", 4),),
                         spec)
    bid = protocol.FederationBid("d2", True, 3.5, 8.0, 12.0, 0.25, "")
    return [
        (codec.encode_service_request(request), codec.SERVICE_REQUEST),
        (codec.encode_offers(7, [Offer({Dimension.CPU: 8.0}, 8.0,
                                       note="best")]), codec.SERVICE_OFFER),
        (codec.encode_service_sla(sla), codec.SERVICE_SLA),
        (codec.encode_service_specific(sla), codec.SERVICE_SPECIFIC),
        (codec.encode_qos_levels(sla, measured), codec.QOS_LEVELS),
        (gateway.ACCEPT_OFFER.write((7, 0)), gateway.ACCEPT_OFFER),
        (gateway.REJECT_OFFER.write(7), gateway.REJECT_OFFER),
        (gateway.VERIFY_SLA.write(1001), gateway.VERIFY_SLA),
        (gateway.RENEGOTIATE.write((1001, spec, 4.0)), gateway.RENEGOTIATE),
        (gateway.OFFER_REJECTED.write(7), gateway.OFFER_REJECTED),
        (gateway.SERVICE_OFFER_FAILURE.write("none"),
         gateway.SERVICE_OFFER_FAILURE),
        (gateway.ESTABLISHMENT_FAILURE.write("full"),
         gateway.ESTABLISHMENT_FAILURE),
        (gateway.RENEGOTIATION_FAILURE.write("pinned"),
         gateway.RENEGOTIATION_FAILURE),
        (discovery.encode_service_query(query, "v1"),
         discovery.SERVICE_QUERY),
        (discovery.encode_service_records([record], "v1"),
         discovery.SERVICE_RECORDS),
        (protocol.encode_bid_request("a", "b", "dlg-1", "d1", request).body,
         protocol.BID_REQUEST),
        (protocol.encode_delegate("a", "b", "dlg-1", "d1", request).body,
         protocol.DELEGATE),
        (protocol.encode_confirm("a", "b", "dlg-1", 1001).body,
         protocol.CONFIRM),
        (protocol.encode_cancel("a", "b", "dlg-1").body, protocol.CANCEL),
        (protocol.encode_heartbeat("a", "b", "d1").body, protocol.HEARTBEAT),
        (protocol.BID.write(bid), protocol.BID),
        (protocol.DELEGATED.write(protocol.DelegationReply(
            "d2", True, 1001, "")), protocol.DELEGATED),
        (protocol.CONFIRMED.write(("dlg-1", "ok")), protocol.CONFIRMED),
        (protocol.CANCELLED.write(("dlg-1", "gone")), protocol.CANCELLED),
        (protocol.ALIVE.write(("d2", 3.0)), protocol.ALIVE),
        (relay.encode_degradation_notice(notice), relay.DEGRADATION_NOTICE),
    ]


_JUNK = st.sampled_from(["", "abc", "soon", "bogus", "-1", "1e999", "nan",
                         "4 CPU", "LessThan", "2.5", "true"])


def _mutate_body(wire: str, pick: int, junk: str, how: str) -> str:
    """Replace one leaf's text or one attribute's value with ``junk``,
    or delete one element below the root."""
    from xml.etree import ElementTree as ET
    root = ET.fromstring(wire)
    nodes = [node for node in root.iter() if node is not root]
    if how == "drop" and nodes:
        victim = nodes[pick % len(nodes)]
        for parent in root.iter():
            if victim in list(parent):
                parent.remove(victim)
                break
        return ET.tostring(root, encoding="unicode")
    slots = [(node, name) for node in root.iter() for name in node.attrib]
    slots += [(node, None) for node in nodes if not len(node)]
    if not slots:
        return wire
    node, name = slots[pick % len(slots)]
    if name is None:
        node.text = junk
    else:
        node.set(name, junk)
    return ET.tostring(root, encoding="unicode")


class TestBodyWireFuzz:
    """A malformed body — a field that does not convert, a missing
    child — fails typed, as :class:`~repro.errors.GQoSMError` (a field
    the reader cannot convert as a :class:`MessageError` naming it),
    never as a raw ``ValueError``/``IndexError``/``KeyError``."""

    SAMPLES = _body_samples()

    def test_every_sample_reads_back(self):
        from repro.xmlmsg.document import parse_xml
        tags = set()
        for wire, message in self.SAMPLES:
            message.read(parse_xml(wire))
            tags.add(message.tag)
        assert len(tags) == len(self.SAMPLES)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, len(_body_samples()) - 1), st.integers(0, 200),
           _JUNK, st.sampled_from(["text", "drop"]))
    def test_mutated_body_reads_or_fails_typed(self, sample, pick, junk,
                                               how):
        from repro.errors import GQoSMError
        from repro.xmlmsg.document import parse_xml
        wire, message = self.SAMPLES[sample]
        mutated = _mutate_body(wire, pick, junk, how)
        try:
            message.read(parse_xml(mutated))
        except MessageError as error:
            assert str(error).startswith("<") or "expected <" in str(error)
        except GQoSMError:
            pass  # a semantic check of the object built (typed)

    @pytest.mark.parametrize("body, tag", [
        ("<Verify_SLA><SLA-ID>abc</SLA-ID></Verify_SLA>", "<SLA-ID>"),
        ('<Renegotiate><SLA-ID>1</SLA-ID><QoS_Specification>'
         '<Parameter dimension="cpu" form="exact" /></QoS_Specification>'
         '</Renegotiate>', "<Parameter>"),
        ('<Renegotiate><SLA-ID>1</SLA-ID><QoS_Specification>'
         '<Parameter dimension="bogus" form="exact"><Value>2</Value>'
         '</Parameter></QoS_Specification></Renegotiate>',
         '<Parameter dimension='),
    ])
    def test_gateway_fails_typed_naming_the_field(self, body, tag):
        testbed = attach_control_plane(build_testbed())
        action = "verify_sla" if "Verify" in body else "renegotiate"
        envelope = Envelope(sender="fuzz", recipient="aqos",
                            action=action, body=body)
        with pytest.raises(MessageError) as raised:
            testbed.bus.request(envelope)
        assert tag in str(raised.value)

    def test_a_request_starting_soon_fails_typed(self):
        from repro.xmlmsg import codec
        testbed = attach_control_plane(build_testbed())
        wire = codec.encode_service_request(_request_for_broker()).replace(
            "<Start>0</Start>", "<Start>soon</Start>")
        envelope = Envelope(sender="fuzz", recipient="aqos",
                            action="service_request", body=wire)
        with pytest.raises(MessageError, match="<Start>"):
            testbed.bus.request(envelope)

    def test_a_malformed_notice_is_dead_lettered(self):
        from repro.monitoring.relay import HUB_ENDPOINT
        testbed = attach_control_plane(build_testbed())
        body = ("<Degradation_Notice><SLA-ID>1</SLA-ID><Time>soon</Time>"
                "<Source>nrm</Source></Degradation_Notice>")
        testbed.bus.send_async(Envelope(
            sender="sla-verif", recipient=HUB_ENDPOINT,
            action="degradation_notice", body=body))
        testbed.sim.run(until=testbed.sim.now + 1.0)
        (letter,) = testbed.bus.dead_letters
        assert letter.reason == "handler-error"
        assert "<Time>" in letter.detail
