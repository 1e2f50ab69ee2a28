"""Unit tests for the bounded dedup cache (repro.xmlmsg.idempotency)
and the endpoint-level idempotency contract."""

from __future__ import annotations

import pytest

from repro.errors import MonitoringError, ValidationError
from repro.sim.engine import Simulator
from repro.telemetry.metrics import MetricsRegistry
from repro.xmlmsg.bus import MessageBus
from repro.xmlmsg.envelope import Envelope
from repro.xmlmsg.idempotency import DEFAULT_CAPACITY, DedupCache

from .trees import element


class TestDedupCache:
    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            DedupCache(capacity=0)

    def test_seen_counts_hits(self):
        registry = MetricsRegistry()
        cache = DedupCache(metrics=registry)
        assert not cache.seen("a")
        cache.put("a", "reply")
        assert cache.seen("a")
        assert cache.seen("a")
        assert registry.counter_value("repro_dedup_hits_total") == 2
        assert cache.get("a") == "reply"

    def test_fifo_eviction_is_deterministic(self):
        registry = MetricsRegistry()
        cache = DedupCache(capacity=3, metrics=registry)
        for key in ("a", "b", "c", "d"):
            cache.put(key, key.upper())
        assert registry.counter_value("repro_dedup_evictions_total") == 1
        assert "a" not in cache
        assert [cache.get(key) for key in ("b", "c", "d")] == ["B", "C", "D"]

    def test_overwriting_a_key_does_not_evict(self):
        registry = MetricsRegistry()
        cache = DedupCache(capacity=2, metrics=registry)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)
        assert registry.counter_value("repro_dedup_evictions_total") == 0
        assert cache.get("a") == 3

    def test_none_is_a_cacheable_outcome(self):
        """One-way handlers return None; a re-delivery must still be
        recognized as already-executed."""
        cache = DedupCache()
        cache.put("notify-1", None)
        assert cache.seen("notify-1")
        assert cache.get("notify-1") is None


class TestEndpointIdempotency:
    def make_bus(self):
        bus = MessageBus(Simulator())
        return bus, bus.endpoint("server")

    def envelope(self, **overrides):
        fields = dict(sender="client", recipient="server", action="op",
                      body=element("Op"))
        fields.update(overrides)
        return Envelope(**fields)

    def test_duplicate_delivery_runs_handler_once(self):
        bus, server = self.make_bus()
        executions = []

        def handler(envelope):
            executions.append(envelope.message_id)
            return envelope.reply("done", element("R", "ok"))
        server.on("op", handler)
        envelope = self.envelope()
        first = bus.request(envelope)
        second = bus.request(envelope)  # same message id re-delivered
        assert executions == [envelope.message_id]
        assert second.body.text == first.body.text

    def test_retry_is_answered_from_cache(self):
        bus, server = self.make_bus()
        executions = []

        def handler(envelope):
            executions.append(envelope.dedup_key)
            return envelope.reply("done", element("R"))
        server.on("op", handler)
        original = self.envelope()
        bus.request(original)
        retry = original.retry()
        assert retry.message_id != original.message_id
        bus.request(retry)
        assert executions == [original.message_id]
        assert server.dedup._hits.value == 1

    def test_failed_handler_is_not_cached(self):
        """A handler that raises must re-execute on retry — only
        *successful* outcomes are idempotently cached."""
        bus, server = self.make_bus()
        attempts = []

        def handler(envelope):
            attempts.append(envelope.dedup_key)
            if len(attempts) == 1:
                raise MonitoringError("transient glitch")
            return envelope.reply("done", element("R"))
        server.on("op", handler)
        envelope = self.envelope()
        with pytest.raises(MonitoringError):
            bus.request(envelope)
        response = bus.request(envelope.retry())
        assert response.action == "done"
        assert len(attempts) == 2

    def test_eviction_bounds_memory_not_correctness_window(self):
        """Old keys age out of a bounded cache; a duplicate arriving
        after eviction re-executes (the cache only needs to span the
        retry window)."""
        bus = MessageBus(Simulator())
        from repro.xmlmsg.bus import Endpoint
        server = bus.register(Endpoint("server", dedup_capacity=2))
        executions = []

        def handler(envelope):
            executions.append(envelope.dedup_key)
            return envelope.reply("done", element("R"))
        server.on("op", handler)
        envelopes = [self.envelope() for _ in range(3)]
        for envelope in envelopes:
            bus.request(envelope)
        bus.request(envelopes[0])  # evicted by now -> runs again
        assert len(executions) == 4
        assert server.dedup._evictions.value >= 1

    def test_default_capacity_is_shared_constant(self):
        bus, server = self.make_bus()
        assert server.dedup.capacity == DEFAULT_CAPACITY
