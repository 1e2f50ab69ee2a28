"""The declared message tables against the codec they replaced.

``codec_reference.py`` keeps the hand-written encoders and decoders
(tree built per message, one ``find`` per field). For generated
objects of every message the control plane sends:

* the display form (``pad=DISPLAY``) is the old ``pretty_xml`` bytes;
* the compact ``<Service_SLA>`` is the old journal renderer's bytes;
* the compact wire parses to the tree the old (indented) wire parsed
  to, layout whitespace aside;
* what the one reader makes of the new wire equals what the old
  decoder made of the old wire.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import discovery, gateway
from repro.federation import protocol
from repro.monitoring import relay
from repro.monitoring.notifications import DegradationNotice
from repro.qos.parameters import Dimension
from repro.registry.query import PropertyConstraint, ServiceQuery
from repro.registry.uddie import ServiceRecord
from repro.sla.negotiation import Offer, ServiceRequest
from repro.sla.violations import ConformanceReport, MeasuredQoS, Violation
from repro.xmlmsg import codec
from repro.xmlmsg.codec import DISPLAY
from repro.xmlmsg.document import parse_xml

from ..sla.test_repository_roundtrip import (eighths, network_demands,
                                             service_slas)
from . import codec_reference as old
from .test_writer_oracle import shape
from .trees import pretty_xml

_TEXT = st.text(alphabet="abz09 -_&<>\"'", min_size=1, max_size=10).filter(
    lambda text: text == text.strip())
_DIMENSIONS = st.sampled_from(list(Dimension))


def _same(message, obj, before, decode_before):
    """The four properties for one object: ``before`` is the old
    encoder's tree, ``decode_before`` the old decoder."""
    assert message.write(obj, DISPLAY) == pretty_xml(before)
    wire, old_wire = message.write(obj), pretty_xml(before)
    assert shape(parse_xml(wire)) == shape(parse_xml(old_wire))
    assert message.read(parse_xml(wire)) == decode_before(
        parse_xml(old_wire))


@st.composite
def _requests(draw):
    sla = draw(service_slas(sla_id=1))
    return ServiceRequest(
        client=sla.client, service_name=sla.service_name,
        service_class=sla.service_class, specification=sla.specification,
        start=sla.start, end=sla.end,
        budget_rate=draw(st.none() | eighths(0, 100)),
        network=sla.network, adaptation=sla.adaptation)


_POINTS = st.dictionaries(
    st.sampled_from([Dimension.CPU, Dimension.MEMORY_MB,
                     Dimension.BANDWIDTH_MBPS, Dimension.DELAY_MS]),
    st.integers(1, 64).map(float), max_size=4)
_OFFERS = st.lists(st.builds(Offer, point=_POINTS, price_rate=eighths(0, 99),
                             note=st.just("") | _TEXT), max_size=3)


@st.composite
def _measured(draw, sla_id):
    values = draw(st.dictionaries(
        _DIMENSIONS, st.integers(0, 100).map(lambda n: n / 100.0),
        max_size=6))
    return MeasuredQoS(sla_id, values, time=draw(eighths(0, 99)))


_VALUES = (st.booleans() | st.integers(-50, 50)
           | st.integers(-400, 400).map(lambda n: n / 8) | _TEXT)


@st.composite
def _queries(draw):
    constraints = tuple(
        PropertyConstraint(draw(_TEXT), draw(st.sampled_from(
            ["=", "!=", "<", ">="])), draw(_VALUES))
        for _ in range(draw(st.integers(0, 3))))
    sla = draw(service_slas(sla_id=1))
    return ServiceQuery(name_pattern=draw(_TEXT), constraints=constraints,
                        qos=draw(st.none() | st.just(sla.specification)))


@st.composite
def _records(draw):
    return [ServiceRecord(
        record_id=draw(st.integers(1, 999)), name=draw(_TEXT),
        provider=draw(_TEXT), endpoint=draw(_TEXT),
        capability=draw(service_slas(sla_id=1)).specification,
        properties=draw(st.dictionaries(_TEXT, _VALUES, max_size=3)))
        for _ in range(draw(st.integers(0, 3)))]


@st.composite
def _notices(draw):
    sla_id = draw(st.integers(1000, 1999))
    report = None
    if draw(st.booleans()):
        report = ConformanceReport(
            sla_id=sla_id, time=draw(eighths(0, 99)),
            violations=tuple(
                Violation(sla_id, draw(_DIMENSIONS), draw(eighths(0, 99)),
                          draw(eighths(0, 99)), draw(eighths(0, 1)))
                for _ in range(draw(st.integers(0, 2)))),
            measured=draw(_measured(sla_id)))
    return DegradationNotice(sla_id=sla_id, time=draw(eighths(0, 99)),
                             source=draw(_TEXT), report=report,
                             detail=draw(st.just("") | _TEXT))


class TestThePaperTables:
    @settings(max_examples=80, deadline=None)
    @given(service_slas(sla_id=1077))
    def test_service_sla(self, sla):
        _same(codec.SERVICE_SLA, sla, old.encode_service_sla(sla),
              old.decode_service_sla)
        assert codec.render_service_sla(sla) == old.render_service_sla(sla)
        assert codec.encode_service_sla(sla, DISPLAY) == pretty_xml(
            old.encode_service_sla(sla))

    @settings(max_examples=40, deadline=None)
    @given(network_demands())
    def test_network_block(self, network):
        _same(codec.NETWORK, network, old._encode_network_demand(network),
              old._decode_network_demand)

    @settings(max_examples=60, deadline=None)
    @given(service_slas(sla_id=1055))
    def test_service_specific(self, sla):
        _same(codec.SERVICE_SPECIFIC, sla, old.encode_service_specific(sla),
              old.decode_service_specific)

    @settings(max_examples=80, deadline=None)
    @given(service_slas(sla_id=1055), _measured(1055),
           st.sampled_from([None, -0.01, 0.0, 0.01]))
    def test_qos_levels(self, sla, measured, offset):
        # A loss at or beside the SLA's bound, so both the worded-bound
        # and the plain reading of Table 3 come up.
        network = sla.network
        if (offset is not None and network is not None
                and network.packet_loss_bound is not None):
            loss = min(max(network.packet_loss_bound.value + offset, 0.0),
                       1.0)
            measured = MeasuredQoS(
                measured.sla_id,
                {**measured.values, Dimension.PACKET_LOSS: loss},
                measured.time)
        _same(codec.QOS_LEVELS, (sla, measured),
              old.encode_qos_levels(sla, measured), old.decode_qos_levels)


class TestClientMessages:
    @settings(max_examples=60, deadline=None)
    @given(_requests())
    def test_service_request(self, request):
        _same(codec.SERVICE_REQUEST, request,
              old.encode_service_request(request),
              old.decode_service_request)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10**6), _OFFERS)
    def test_service_offer(self, negotiation_id, offers):
        _same(codec.SERVICE_OFFER, (negotiation_id, offers),
              old.encode_offers(negotiation_id, offers), old.decode_offers)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10**6), st.integers(0, 9), _TEXT)
    def test_gateway_bodies(self, number, index, reason):
        cases = [
            (gateway.ACCEPT_OFFER, (number, index),
             old.encode_accept_offer(number, index)),
            (gateway.REJECT_OFFER, number,
             old.encode_negotiation_id("Reject_Offer", number)),
            (gateway.OFFER_REJECTED, number,
             old.encode_negotiation_id("Offer_Rejected", number)),
            (gateway.VERIFY_SLA, number, old.encode_verify_sla(number)),
            (gateway.SERVICE_OFFER_FAILURE, reason,
             old.encode_failure("Service_Offer_Failure", reason)),
            (gateway.ESTABLISHMENT_FAILURE, reason,
             old.encode_failure("Establishment_Failure", reason)),
        ]
        for message, obj, before in cases:
            assert message.write(obj, DISPLAY) == pretty_xml(before)
            assert shape(parse_xml(message.write(obj))) == shape(before)


class TestDiscovery:
    @settings(max_examples=60, deadline=None)
    @given(_queries(), st.none() | _TEXT)
    def test_service_query(self, query, validator):
        before = old.encode_service_query(query)
        if validator is not None:
            before.set("validator", validator)
        _same(discovery.SERVICE_QUERY, (query, validator), before,
              old.decode_service_query)

    @settings(max_examples=60, deadline=None)
    @given(_records(), _TEXT)
    def test_service_records(self, records, validator):
        before = old.encode_service_records(records)
        before.set("validator", validator)
        _same(discovery.SERVICE_RECORDS, (records, validator, False),
              before, old.decode_service_records)


class TestFederation:
    @settings(max_examples=40, deadline=None)
    @given(_TEXT, _TEXT, _requests())
    def test_request_bodies(self, delegation_id, home, request):
        for message in (protocol.BID_REQUEST, protocol.DELEGATE):
            _same(message, (delegation_id, home, request),
                  old.request_body(message.tag, delegation_id, home,
                                   request),
                  old.decode_request_body)

    @settings(max_examples=60, deadline=None)
    @given(st.builds(protocol.FederationBid, domain=_TEXT,
                     accept=st.booleans(), score=eighths(0, 99),
                     price_rate=eighths(0, 99),
                     headroom_after=eighths(0, 99), risk=eighths(0, 1),
                     reason=st.just("") | _TEXT))
    def test_bid(self, bid):
        _same(protocol.BID, bid, old.encode_bid(bid), old.decode_bid)

    @settings(max_examples=60, deadline=None)
    @given(st.builds(protocol.DelegationReply, domain=_TEXT,
                     accepted=st.booleans(),
                     sla_id=st.none() | st.integers(1000, 9999),
                     reason=st.just("") | _TEXT))
    def test_delegated(self, reply):
        _same(protocol.DELEGATED, reply,
              old.encode_delegated(*reply), old.decode_delegated)

    @settings(max_examples=40, deadline=None)
    @given(_TEXT, st.integers(1000, 9999), st.sampled_from(
        ["ok", "unknown", "gone"]), eighths(0, 999))
    def test_small_bodies(self, delegation_id, sla_id, status, now):
        cases = [
            (protocol.CONFIRM, (delegation_id, sla_id),
             old.encode_confirm(delegation_id, sla_id)),
            (protocol.CANCEL, delegation_id, old.encode_cancel(delegation_id)),
            (protocol.HEARTBEAT, delegation_id,
             old.encode_heartbeat(delegation_id)),
            (protocol.CONFIRMED, (delegation_id, status),
             old.encode_status("Federation_Confirmed", delegation_id,
                               status)),
            (protocol.CANCELLED, (delegation_id, status),
             old.encode_status("Federation_Cancelled", delegation_id,
                               status)),
            (protocol.ALIVE, (delegation_id, now),
             old.encode_alive(delegation_id, now)),
        ]
        for message, obj, before in cases:
            assert message.write(obj, DISPLAY) == pretty_xml(before)
            assert shape(parse_xml(message.write(obj))) == shape(before)


class TestDegradationNotice:
    @settings(max_examples=80, deadline=None)
    @given(_notices())
    def test_notice(self, notice):
        _same(relay.DEGRADATION_NOTICE, notice,
              old.encode_degradation_notice(notice),
              old.decode_degradation_notice)
