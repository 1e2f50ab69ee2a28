"""Unit tests for retry/timeout/circuit-breaking
(repro.xmlmsg.resilient)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import CircuitOpenError, MessageError, ValidationError
from repro.sim.random import RandomSource
from repro.sim.trace import TraceRecorder
from repro.xmlmsg.bus import MessageBus
from repro.xmlmsg.envelope import Envelope
from repro.xmlmsg.faults import FaultPlan, FaultRule
from repro.xmlmsg.resilient import ResilientCaller, RetryPolicy

from .trees import element


def call_envelope(action="query"):
    return Envelope(sender="client", recipient="server", action=action,
                    body=element("Query"))


@pytest.fixture
def bus(sim):
    transport = MessageBus(sim)
    server = transport.endpoint("server")
    server.on("query",
              lambda envelope: envelope.reply("result", element("R", "ok")))
    return transport


class TestRetryPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"timeout": -1.0},
        {"backoff_base": -0.5},
        {"backoff_factor": 0.5},
        {"jitter": 1.5},
        {"circuit_cooldown": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            RetryPolicy(**kwargs)

    def test_per_action_timeout(self):
        policy = RetryPolicy(timeout=2.0,
                             per_action_timeout={"negotiate": 10.0})
        assert policy.timeout_for("negotiate") == 10.0
        assert policy.timeout_for("anything_else") == 2.0

    def test_backoff_grows_exponentially_within_jitter(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_factor=2.0,
                             jitter=0.25)
        rng = RandomSource(3).stream("jitter")
        for retry_index in (1, 2, 3, 4):
            nominal = 0.5 * 2.0 ** (retry_index - 1)
            drawn = policy.backoff_for(retry_index, rng)
            assert nominal * 0.75 <= drawn <= nominal * 1.25

    def test_zero_jitter_draws_nothing(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=2.0,
                             jitter=0.0)
        rng = RandomSource(0).stream("untouched")
        assert policy.backoff_for(1, rng) == 1.0
        assert policy.backoff_for(3, rng) == 4.0


class TestResilientCaller:
    def test_clean_transport_is_pass_through(self, sim, bus):
        """On a perfect transport the caller adds nothing observable:
        one attempt, no waits, no trace records."""
        trace = TraceRecorder()
        caller = ResilientCaller(bus, trace=trace)
        response = caller.call(call_envelope())
        assert response.action == "result"
        assert sim.now == 0.0
        assert caller.stats.attempts == 1
        assert caller.stats.retries == 0
        assert trace.filter(category="resilience") == []

    def test_dropped_request_is_retried_and_recovers(self, sim, bus):
        # Drop exactly the first delivery: probability 1 on the first
        # draw cannot express "once", so use a one-shot rule list the
        # test swaps out after the first timeout.
        bus.install_faults(FaultPlan(
            RandomSource(0).stream("faults"),
            [FaultRule(action="query", drop=1.0)]))
        caller = ResilientCaller(bus, rng=RandomSource(1).stream("jitter"))

        # After the first timeout the network "heals".
        original_wait = caller._wait

        def wait_and_heal(delta):
            original_wait(delta)
            bus.install_faults(None)
        caller._wait = wait_and_heal

        response = caller.call(call_envelope())
        assert response.action == "result"
        assert caller.stats.timeouts == 1
        assert caller.stats.retries == 1
        assert caller.stats.recovered == 1
        # The timeout and the backoff were both spent on the sim clock.
        assert sim.now >= caller.policy.timeout

    def test_retry_envelopes_share_a_dedup_key(self, sim, bus):
        """Server-side dedup must see every retry as the same logical
        operation: the handler runs once, later attempts get the
        cached reply."""
        executions = []
        flaky = bus.endpoint("flaky")

        def handler(envelope):
            executions.append(envelope.dedup_key)
            return envelope.reply("result", element("R"))
        flaky.on("query", handler)
        # Fail only reply legs: the handler runs, the response is lost.
        bus.install_faults(FaultPlan(
            RandomSource(2).stream("faults"),
            [FaultRule(recipient="client", drop=0.6)]))
        caller = ResilientCaller(bus, rng=RandomSource(3).stream("jitter"))
        envelope = Envelope(sender="client", recipient="flaky",
                            action="query", body=element("Query"))
        response = caller.call(envelope)
        assert response.action == "result"
        assert len(set(executions)) == 1
        assert executions[0] == envelope.message_id

    def test_exhaustion_opens_the_circuit(self, sim, bus):
        bus.install_faults(FaultPlan(
            RandomSource(4).stream("faults"),
            [FaultRule(action="query", drop=1.0)]))
        policy = RetryPolicy(max_attempts=3, circuit_cooldown=30.0)
        caller = ResilientCaller(bus, policy=policy,
                                 rng=RandomSource(5).stream("jitter"))
        with pytest.raises(CircuitOpenError):
            caller.call(call_envelope())
        assert caller.stats.attempts == 3
        assert caller.stats.exhausted == 1
        assert caller.circuit_open("server", "query")
        # Fast-fail while open: no new attempts are made.
        with pytest.raises(CircuitOpenError):
            caller.call(call_envelope())
        assert caller.stats.attempts == 3
        assert caller.stats.circuit_rejections == 1

    def test_stats_flatten_every_counter(self, sim, bus):
        bus.install_faults(FaultPlan(
            RandomSource(4).stream("faults"),
            [FaultRule(action="query", drop=1.0)]))
        policy = RetryPolicy(max_attempts=3, circuit_cooldown=30.0)
        caller = ResilientCaller(bus, policy=policy,
                                 rng=RandomSource(5).stream("jitter"))
        for _ in range(2):
            with pytest.raises(CircuitOpenError):
                caller.call(call_envelope())
        flat = caller.stats.as_dict()
        assert flat == dataclasses.asdict(caller.stats)
        assert flat["calls"] == 2
        assert flat["attempts"] == 3
        assert flat["retries"] == 2
        assert flat["timeouts"] == 3
        assert flat["exhausted"] == 1
        assert flat["circuit_rejections"] == 1

    def test_half_open_probe_after_cooldown(self, sim, bus):
        bus.install_faults(FaultPlan(
            RandomSource(6).stream("faults"),
            [FaultRule(action="query", drop=1.0)]))
        policy = RetryPolicy(max_attempts=2, circuit_cooldown=10.0)
        caller = ResilientCaller(bus, policy=policy,
                                 rng=RandomSource(7).stream("jitter"))
        with pytest.raises(CircuitOpenError):
            caller.call(call_envelope())
        bus.install_faults(None)  # dependency comes back
        sim.advance(policy.circuit_cooldown + 1.0)
        assert not caller.circuit_open("server", "query")
        response = caller.call(call_envelope())
        assert response.action == "result"
        assert not caller.circuit_open("server", "query")

    def test_circuits_are_per_recipient_action(self, sim, bus):
        bus.endpoint("other").on(
            "query",
            lambda envelope: envelope.reply("result", element("R")))
        bus.install_faults(FaultPlan(
            RandomSource(8).stream("faults"),
            [FaultRule(recipient="server", drop=1.0)]))
        policy = RetryPolicy(max_attempts=2)
        caller = ResilientCaller(bus, policy=policy,
                                 rng=RandomSource(9).stream("jitter"))
        with pytest.raises(CircuitOpenError):
            caller.call(call_envelope())
        # The breaker guards (server, query) only.
        other = Envelope(sender="client", recipient="other",
                         action="query", body=element("Query"))
        assert caller.call(other).action == "result"

    def test_non_transient_errors_propagate_immediately(self, sim, bus):
        caller = ResilientCaller(bus)
        with pytest.raises(MessageError):
            caller.call(call_envelope(action="unhandled_action"))
        assert caller.stats.attempts == 1
        assert caller.stats.retries == 0

    def test_same_seed_same_backoff_schedule(self, sim):
        def schedule(seed):
            transport = MessageBus(sim.__class__())
            transport.endpoint("server")
            transport.install_faults(FaultPlan(
                RandomSource(0).stream("faults"),
                [FaultRule(action="query", drop=1.0)]))
            caller = ResilientCaller(
                transport, rng=RandomSource(seed).stream("jitter"),
                policy=RetryPolicy(max_attempts=4))
            with pytest.raises(CircuitOpenError):
                caller.call(call_envelope())
            return transport.sim.now
        assert schedule(11) == schedule(11)
        assert schedule(11) != schedule(12)
