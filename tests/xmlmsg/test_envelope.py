"""Tests for SOAP-style envelopes (repro.xmlmsg.envelope)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MessageError
from repro.xmlmsg.document import element, subelement
from repro.xmlmsg.envelope import Envelope


def make_envelope(**overrides) -> Envelope:
    body = element("Payload")
    subelement(body, "Value", "42")
    defaults = dict(sender="client1", recipient="aqos",
                    action="service_request", body=body)
    defaults.update(overrides)
    return Envelope(**defaults)


class TestRoundTrip:
    def test_header_fields_survive(self):
        envelope = make_envelope()
        envelope.sent_at = 3.5
        parsed = Envelope.from_xml(envelope.to_xml())
        assert parsed.sender == "client1"
        assert parsed.recipient == "aqos"
        assert parsed.action == "service_request"
        assert parsed.message_id == envelope.message_id
        assert parsed.sent_at == 3.5

    def test_sent_at_keeps_its_precision(self):
        """``SentAt`` is a numeric field like any other (``%.12g``):
        the ``:g`` it used to be written with keeps six digits."""
        assert "<SentAt>86399.25</SentAt>" in \
            make_envelope(sent_at=86399.25).to_xml()
        assert "<SentAt>1234567</SentAt>" in \
            make_envelope(sent_at=1234567.0).to_xml()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 10))
    def test_sim_times_round_trip(self, millis):
        """Any sim time up to 1e7 with millisecond resolution comes
        back from the wire as the float that went in."""
        sent_at = millis / 1000.0
        parsed = Envelope.from_xml(make_envelope(sent_at=sent_at).to_xml())
        assert parsed.sent_at == sent_at

    def test_body_survives(self):
        parsed = Envelope.from_xml(make_envelope().to_xml())
        assert parsed.body.tag == "Payload"
        assert parsed.body.find("Value").text == "42"

    def test_unique_message_ids(self):
        assert make_envelope().message_id != make_envelope().message_id


class TestReply:
    def test_reply_routing(self):
        request = make_envelope()
        response = request.reply("service_offer", element("Offer"))
        assert response.sender == "aqos"
        assert response.recipient == "client1"
        assert response.in_reply_to == request.message_id

    def test_in_reply_to_survives_round_trip(self):
        request = make_envelope()
        response = request.reply("service_offer", element("Offer"))
        parsed = Envelope.from_xml(response.to_xml())
        assert parsed.in_reply_to == request.message_id


class TestValidation:
    def test_wrong_root_rejected(self):
        with pytest.raises(MessageError):
            Envelope.from_xml("<NotAnEnvelope/>")

    def test_missing_header_rejected(self):
        with pytest.raises(MessageError):
            Envelope.from_xml("<Envelope><Body><X/></Body></Envelope>")

    def test_multi_payload_body_rejected(self):
        text = ("<Envelope><Header><MessageID>m</MessageID>"
                "<Sender>s</Sender><Recipient>r</Recipient>"
                "<Action>a</Action></Header>"
                "<Body><X/><Y/></Body></Envelope>")
        with pytest.raises(MessageError):
            Envelope.from_xml(text)
