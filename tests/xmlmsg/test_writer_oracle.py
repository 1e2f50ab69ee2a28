"""Differential oracle for the single-pass wire writer.

``tests/xmlmsg/reference.py`` keeps the renderer the writer replaced
(indent in place, then ``ET.tostring``). Every tree the system can put
on the wire must come out of the new writer byte for byte as it came
out of the old one: generated trees covering each rule of the format,
the output of every ``encode_*`` the control plane has, and the
envelope frame under every combination of its optional headers.
"""

from __future__ import annotations

import itertools
from xml.etree import ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import discovery
from repro.federation import protocol
from repro.qos.classes import ServiceClass
from repro.qos.parameters import (Dimension, discrete_parameter,
                                  exact_parameter, range_parameter)
from repro.qos.specification import QoSSpecification
from repro.registry.query import PropertyConstraint, ServiceQuery
from repro.registry.uddie import ServiceRecord
from repro.sla.document import AdaptationOptions, NetworkDemand, ServiceSLA
from repro.sla.negotiation import Offer, ServiceRequest
from repro.sla.violations import MeasuredQoS
from repro.units import parse_bound
from repro.xmlmsg import codec
from repro.xmlmsg.document import element, parse_xml, pretty_xml
from repro.xmlmsg.envelope import Envelope

from .reference import reference_envelope_xml, reference_pretty_xml

# ----------------------------------------------------------------------
# Generated trees
# ----------------------------------------------------------------------

_TAGS = st.sampled_from(["A", "Node", "SLA-ID", "QoS_Levels", "x.1"])
_NAMES = st.sampled_from(["id", "name", "type", "operator"])
#: Everything the attribute escape has a rule for, plus plain filler.
_ATTRIBUTE_TEXT = st.text(alphabet="ab 1&<>\"'\r\n\t", max_size=8)
#: Everything the text escape has a rule for; quotes stay literal.
_TEXT = st.text(alphabet="ab 1&<>\"'\n", max_size=8)
_WHITESPACE = st.text(alphabet=" \n\t", min_size=1, max_size=4)


@st.composite
def _trees(draw, depth=0):
    node = ET.Element(draw(_TAGS),
                      draw(st.dictionaries(_NAMES, _ATTRIBUTE_TEXT,
                                           max_size=3)))
    # None, empty, whitespace-only and escaped text — on leaves and on
    # nodes that also get children (where the layout replaces it).
    node.text = draw(st.one_of(st.none(), st.just(""), _WHITESPACE, _TEXT))
    node.tail = draw(st.one_of(st.none(), _WHITESPACE, _TEXT))
    if depth < 3:
        for _ in range(draw(st.integers(0, 3))):
            node.append(draw(_trees(depth + 1)))
    return node


def _whitespace_snapshot(node):
    return [(each.tag, each.text, each.tail) for each in node.iter()]


class TestGeneratedTrees:
    @settings(max_examples=300, deadline=None)
    @given(_trees())
    def test_writer_matches_the_three_walk_renderer(self, tree):
        assert pretty_xml(tree) == reference_pretty_xml(tree)

    @settings(max_examples=100, deadline=None)
    @given(_trees())
    def test_rendering_leaves_the_tree_untouched(self, tree):
        before = _whitespace_snapshot(tree)
        pretty_xml(tree)
        assert _whitespace_snapshot(tree) == before

    @settings(max_examples=200, deadline=None)
    @given(_trees())
    def test_trees_reparsed_from_their_own_output(self, tree):
        tree.tail = None  # nothing may follow the document element
        wire = pretty_xml(tree)
        parsed = parse_xml(wire)
        # A parsed tree carries the layout whitespace as text and
        # tails; the writer must see through it exactly as the
        # indenter overwrote it, every time it is asked.
        assert pretty_xml(parsed) == reference_pretty_xml(parsed)
        assert pretty_xml(parsed) == pretty_xml(parsed) == wire

    def test_root_tail_is_emitted_and_escaped(self):
        root = element("Root")
        root.tail = " a&b\n"
        assert pretty_xml(root) == "<Root /> a&amp;b\n"
        assert pretty_xml(root) == reference_pretty_xml(root)


# ----------------------------------------------------------------------
# Every encoder the control plane has
# ----------------------------------------------------------------------

def _sla() -> ServiceSLA:
    spec = QoSSpecification.of(
        range_parameter(Dimension.CPU, 10, 55),
        exact_parameter(Dimension.MEMORY_MB, 64),
        discrete_parameter(Dimension.BANDWIDTH_MBPS, [10, 45, 100]))
    return ServiceSLA(
        sla_id=1056, client="user<2>", service_name="render & co",
        service_class=ServiceClass.CONTROLLED_LOAD, specification=spec,
        agreed_point=spec.best_point(), start=0.0, end=86399.25,
        price_rate=60.0,
        network=NetworkDemand("192.200.168.33", "135.200.50.101", 10.0,
                              parse_bound("LessThan 10%"),
                              delay_bound_ms=20.0),
        adaptation=AdaptationOptions(
            alternative_points=({Dimension.CPU: 55.0,
                                 Dimension.MEMORY_MB: 48.0},),
            accept_promotion=True))


def _request() -> ServiceRequest:
    sla = _sla()
    return ServiceRequest(
        client=sla.client, service_name=sla.service_name,
        service_class=sla.service_class, specification=sla.specification,
        start=5.0, end=50.0, budget_rate=12.5, network=sla.network,
        adaptation=sla.adaptation)


def _query() -> ServiceQuery:
    return ServiceQuery(
        name_pattern="render*",
        constraints=(PropertyConstraint("region", "=", 'eu "west"'),
                     PropertyConstraint("notes", "!=", "a\tb\r\nc"),
                     PropertyConstraint("cores", ">=", 8),
                     PropertyConstraint("load", "<", 0.75),
                     PropertyConstraint("gpu", "=", True)),
        qos=_sla().specification)


def _records():
    return [ServiceRecord(
        record_id=index, name=f"render-{index}", provider="A&B <grid>",
        endpoint="rm", capability=_sla().specification,
        properties={"region": 'eu "west"', "cores": 8 * index,
                    "load": 0.25, "gpu": index == 1, "notes": "a\tb\nc"})
        for index in (1, 2)]


_WIRE = ("fed:d1", "fed:d2")

#: One representative call per public encoder; elements are compared
#: through ``pretty_xml``, envelopes through ``Envelope.to_xml``.
ENCODER_SAMPLES = {
    (codec, "encode_service_specific"):
        lambda: codec.encode_service_specific(_sla()),
    (codec, "encode_qos_levels"):
        lambda: codec.encode_qos_levels(
            _sla(), MeasuredQoS(1056, {Dimension.CPU: 41.5,
                                       Dimension.BANDWIDTH_MBPS: 9.5},
                                time=12.0)),
    (codec, "encode_service_sla"):
        lambda: codec.encode_service_sla(_sla()),
    (codec, "encode_service_request"):
        lambda: codec.encode_service_request(_request()),
    (codec, "encode_offers"):
        lambda: codec.encode_offers(7, [
            Offer(point=_sla().agreed_point, price_rate=60.0,
                  note="best <quality>"),
            Offer(point={Dimension.CPU: 10.0}, price_rate=1234567.0)]),
    (discovery, "encode_service_query"):
        lambda: discovery.encode_service_query(_query()),
    (discovery, "encode_service_records"):
        lambda: discovery.encode_service_records(_records()),
    (protocol, "encode_bid_request"):
        lambda: protocol.encode_bid_request(*_WIRE, "dlg-1", "d1",
                                            _request()),
    (protocol, "encode_delegate"):
        lambda: protocol.encode_delegate(*_WIRE, "dlg-1", "d1",
                                         _request()),
    (protocol, "encode_confirm"):
        lambda: protocol.encode_confirm(*_WIRE, "dlg-1", 2001),
    (protocol, "encode_cancel"):
        lambda: protocol.encode_cancel(*_WIRE, "dlg-1"),
    (protocol, "encode_heartbeat"):
        lambda: protocol.encode_heartbeat(*_WIRE, "d1"),
}


class TestEveryEncoder:
    def test_every_public_encoder_has_a_sample(self):
        declared = {(module, name)
                    for module in (codec, discovery, protocol)
                    for name in vars(module)
                    if name.startswith("encode_")}
        assert declared == set(ENCODER_SAMPLES)

    @pytest.mark.parametrize(
        "key", sorted(ENCODER_SAMPLES, key=lambda key: key[1]),
        ids=lambda key: key[1])
    def test_encoder_output_renders_as_before(self, key):
        encoded = ENCODER_SAMPLES[key]()
        if isinstance(encoded, Envelope):
            assert encoded.to_xml() == reference_envelope_xml(encoded)
            encoded = encoded.body
        assert pretty_xml(encoded) == reference_pretty_xml(encoded)
        assert codec.render(encoded) == reference_pretty_xml(encoded)


# ----------------------------------------------------------------------
# The envelope frame
# ----------------------------------------------------------------------

_OPTIONAL_HEADERS = {
    "in_reply_to": "msg-41",
    "retry_of": "msg-40",
    "sent_at": 86399.25,
    "trace_id": "trace-000007",
    "span_id": "span-00002a",
}


def _envelope(**headers) -> Envelope:
    return Envelope(sender="client1", recipient="aqos",
                    action="service_request",
                    body=codec.encode_service_request(_request()),
                    message_id="msg-42", **headers)


class TestEnvelopeFrame:
    @pytest.mark.parametrize(
        "present", list(itertools.product((False, True), repeat=5)),
        ids=lambda present: "".join("x" if on else "-" for on in present))
    def test_every_combination_of_optional_headers(self, present):
        headers = {name: value for on, (name, value)
                   in zip(present, _OPTIONAL_HEADERS.items()) if on}
        envelope = _envelope(**headers)
        wire = envelope.to_xml()
        assert wire == reference_envelope_xml(envelope)
        parsed = Envelope.from_xml(wire)
        for name in _OPTIONAL_HEADERS:
            assert getattr(parsed, name) == headers.get(name)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_TEXT, min_size=8, max_size=8), _trees())
    def test_header_text_is_escaped_like_any_leaf(self, texts, body):
        envelope = Envelope(
            message_id=texts[0], sender=texts[1], recipient=texts[2],
            action=texts[3], in_reply_to=texts[4], retry_of=texts[5],
            trace_id=texts[6], span_id=texts[7], sent_at=0.0, body=body)
        assert envelope.to_xml() == reference_envelope_xml(envelope)

    def test_rendering_leaves_the_body_untouched(self):
        envelope = _envelope()
        before = _whitespace_snapshot(envelope.body)
        envelope.to_xml()
        assert _whitespace_snapshot(envelope.body) == before
        assert envelope.body.tail is None
