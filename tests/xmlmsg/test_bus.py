"""Tests for the in-process message bus (repro.xmlmsg.bus)."""

from __future__ import annotations

import pytest

from repro.core import discovery
from repro.errors import MessageError, RemoteFaultError
from repro.registry.query import ServiceQuery
from repro.registry.uddie import UddieRegistry
from repro.sim.random import RandomSource
from repro.sim.trace import TraceRecorder
from repro.xmlmsg import codec, document
from repro.xmlmsg.bus import MessageBus
from repro.xmlmsg.document import element, pretty_xml, subelement
from repro.xmlmsg.envelope import Envelope
from repro.xmlmsg.faults import FaultPlan, FaultRule


@pytest.fixture
def bus(sim):
    return MessageBus(sim)


def request_envelope(action="query", recipient="server"):
    body = element("Query")
    subelement(body, "Name", "render*")
    return Envelope(sender="client", recipient=recipient,
                    action=action, body=body)


class TestRequestResponse:
    def test_round_trip(self, bus):
        server = bus.endpoint("server")

        def handler(envelope):
            assert envelope.body.find("Name").text == "render*"
            reply_body = element("Result", "ok")
            return envelope.reply("query_result", reply_body)

        server.on("query", handler)
        response = bus.request(request_envelope())
        assert response.action == "query_result"
        assert response.body.text == "ok"
        assert response.recipient == "client"

    def test_handler_sees_wire_form_not_sender_objects(self, bus):
        server = bus.endpoint("server")
        seen = {}

        def handler(envelope):
            seen["body"] = envelope.body
            return envelope.reply("ok", element("R"))

        server.on("query", handler)
        original = request_envelope()
        bus.request(original)
        assert seen["body"] is not original.body

    def test_unknown_endpoint(self, bus):
        with pytest.raises(MessageError):
            bus.request(request_envelope(recipient="ghost"))

    def test_unknown_action(self, bus):
        bus.endpoint("server")
        with pytest.raises(MessageError):
            bus.request(request_envelope(action="unhandled"))

    def test_foreign_namespaced_payload_fails_typed(self, bus):
        """The wire has no namespaces; a parsed foreign payload that
        carries one is refused at the next parse, not passed on."""
        bus.endpoint("server").on(
            "query", lambda envelope: envelope.reply("ok", element("R")))
        foreign = Envelope.from_xml(
            request_envelope().to_xml().replace(
                "<Query>", '<Query xmlns="urn:elsewhere">'))
        with pytest.raises(MessageError):
            bus.request(foreign)

    def test_handler_returning_none_is_an_error_for_request(self, bus):
        server = bus.endpoint("server")
        server.on("query", lambda envelope: None)
        with pytest.raises(MessageError):
            bus.request(request_envelope())

    def test_duplicate_endpoint_rejected(self, bus):
        bus.endpoint("server")
        with pytest.raises(MessageError):
            bus.endpoint("server")


class TestAsyncDelivery:
    def test_delivery_after_latency(self, sim):
        bus = MessageBus(sim, latency=2.0)
        server = bus.endpoint("server")
        received = []
        server.on("notify", lambda env: received.append(sim.now))
        bus.send_async(request_envelope(action="notify"))
        assert received == []
        sim.run()
        assert received == [2.0]

    def test_explicit_latency_overrides_default(self, sim):
        bus = MessageBus(sim, latency=2.0)
        server = bus.endpoint("server")
        received = []
        server.on("notify", lambda env: received.append(sim.now))
        bus.send_async(request_envelope(action="notify"), latency=5.0)
        sim.run()
        assert received == [5.0]


class TestTracing:
    def test_messages_are_traced(self, sim):
        trace = TraceRecorder()
        bus = MessageBus(sim, trace=trace)
        server = bus.endpoint("server")
        server.on("query", lambda env: env.reply("ok", element("R")))
        bus.request(request_envelope())
        messages = trace.filter(category="message")
        assert len(messages) == 1
        assert "client -> server" in messages[0].message


def count_envelope_codec(monkeypatch) -> dict:
    """Count ``Envelope.to_xml`` / ``Envelope.from_xml`` calls — the
    work one message costs, independent of the wall clock."""
    calls = {"to_xml": 0, "from_xml": 0}
    to_xml = Envelope.to_xml
    from_xml = Envelope.from_xml.__func__

    def counting_to_xml(envelope):
        calls["to_xml"] += 1
        return to_xml(envelope)

    def counting_from_xml(cls, text):
        calls["from_xml"] += 1
        return from_xml(cls, text)
    monkeypatch.setattr(Envelope, "to_xml", counting_to_xml)
    monkeypatch.setattr(Envelope, "from_xml", classmethod(counting_from_xml))
    return calls


class TestRenderWork:
    """One render and one parse per leg — counts, not timings."""

    @pytest.fixture
    def server(self, bus):
        """The ``server`` endpoint answering ``query``; ``runs`` lists
        every execution of its handler."""
        server = bus.endpoint("server")
        server.runs = []

        def handler(envelope):
            server.runs.append(envelope.message_id)
            return envelope.reply("query_result", element("Result", "ok"))
        server.on("query", handler)
        return server

    def test_clean_request_renders_and_parses_each_leg_once(
            self, bus, server, monkeypatch):
        calls = count_envelope_codec(monkeypatch)
        response = bus.request(request_envelope())
        assert calls == {"to_xml": 2, "from_xml": 2}
        assert len(server.runs) == 1 and response.body.text == "ok"

    def test_discovery_renders_only_its_two_envelopes(
            self, bus, monkeypatch):
        registry = UddieRegistry()
        registry.register("render-farm", "acme")
        discovery.RegistryEndpoint(registry, bus)
        finder = discovery.ResilientDiscovery(bus)

        def forbidden(node):
            raise AssertionError("a tree was rendered outside to_xml")
        for module in (document, codec, discovery):
            monkeypatch.setattr(module, "pretty_xml", forbidden,
                                raising=False)
        calls = count_envelope_codec(monkeypatch)
        result = finder.find(ServiceQuery(name_pattern="render*"))
        assert calls == {"to_xml": 2, "from_xml": 2}
        assert [record.name for record in result.records] == ["render-farm"]

    def test_duplicated_request_is_answered_from_the_cache(
            self, bus, server, monkeypatch):
        bus.install_faults(FaultPlan(RandomSource(1), [
            FaultRule(action="query", duplicate=1.0)]))
        calls = count_envelope_codec(monkeypatch)
        response = bus.request(request_envelope())
        assert len(server.runs) == 1 and server.dedup.hits == 1
        # The request crosses twice; the reply is rendered once and
        # parsed once per delivery.
        assert calls == {"to_xml": 3, "from_xml": 4}
        assert response.body.text == "ok"

    def test_reply_is_remembered_before_a_request_leg_fault_fires(
            self, bus, server):
        bus.install_faults(FaultPlan(RandomSource(1), [
            FaultRule(action="query", error=1.0)]))
        original = request_envelope()
        with pytest.raises(RemoteFaultError):
            bus.request(original)
        assert len(server.runs) == 1
        bus.install_faults(None)
        response = bus.request(original.retry())
        assert len(server.runs) == 1 and server.dedup.hits == 1
        assert response.in_reply_to == original.message_id
        assert response.body.text == "ok"

    def test_cached_reply_differs_from_the_first_in_sent_at_only(
            self, bus, server, sim):
        original = request_envelope()
        first = bus.request(original)
        sim.advance(5.0)
        again = bus.request(original.retry())
        assert len(server.runs) == 1
        for name in ("sender", "recipient", "action", "message_id",
                     "in_reply_to", "retry_of", "trace_id", "span_id"):
            assert getattr(again, name) == getattr(first, name), name
        assert pretty_xml(again.body) == pretty_xml(first.body)
        assert first.sent_at is not None and again.sent_at is not None
