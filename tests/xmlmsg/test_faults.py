"""Unit tests for the fault-injection plan (repro.xmlmsg.faults)."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.sim.random import RandomSource
from repro.xmlmsg.envelope import Envelope
from repro.xmlmsg.faults import FaultPlan, FaultRule

from .trees import element


def envelope(sender="client1", recipient="aqos", action="service_request"):
    return Envelope(sender=sender, recipient=recipient, action=action,
                    body=element("Body_Payload"))


def plan(seed=1, **rule_fields):
    return FaultPlan(RandomSource(seed).stream("faults"),
                     [FaultRule(**rule_fields)])


class TestFaultRule:
    @pytest.mark.parametrize("field_name", ["drop", "duplicate", "delay",
                                            "error", "reorder"])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_probabilities_validated(self, field_name, bad):
        with pytest.raises(ValidationError):
            FaultRule(**{field_name: bad})

    @pytest.mark.parametrize("bad_range", [(-1.0, 2.0), (3.0, 1.0)])
    def test_delay_range_validated(self, bad_range):
        with pytest.raises(ValidationError):
            FaultRule(delay_range=bad_range)

    def test_none_patterns_match_everything(self):
        assert FaultRule().matches(envelope())

    def test_glob_patterns(self):
        rule = FaultRule(sender="client*", recipient="aqos",
                        action="*_request")
        assert rule.matches(envelope())
        assert not rule.matches(envelope(sender="broker"))
        assert not rule.matches(envelope(action="accept_offer"))
        assert not rule.matches(envelope(recipient="uddie"))


class TestFaultPlan:
    def test_first_matching_rule_wins(self):
        rng = RandomSource(0).stream("faults")
        specific = FaultRule(action="service_request", drop=1.0)
        catchall = FaultRule(duplicate=1.0)
        chaos = FaultPlan(rng, [specific]).add(catchall)
        assert chaos.rule_for(envelope()) is specific
        assert chaos.rule_for(envelope(action="other")) is catchall

    def test_rules_are_a_copy_in_evaluation_order(self):
        first, second = FaultRule(drop=1.0), FaultRule(delay=1.0)
        chaos = FaultPlan(RandomSource(0).stream("faults"), [first])
        chaos.add(second)
        rules = chaos.rules
        assert rules == [first, second]
        rules.clear()
        assert chaos.rules == [first, second]
        assert chaos.rule_for(envelope()) is first

    def test_unmatched_envelope_is_exempt(self):
        chaos = plan(1, action="nonexistent_action", drop=1.0)
        decision = chaos.decide(envelope(), "request")
        assert decision.clean
        # Exempt deliveries consume no RNG and count no decision.
        assert chaos.stats.decisions == 0

    def test_certain_drop(self):
        chaos = plan(2, drop=1.0)
        for _ in range(5):
            assert chaos.decide(envelope(), "request").drop
        assert chaos.stats.dropped == 5

    def test_drop_short_circuits_other_faults(self):
        """A dropped delivery draws nothing further — the stream stays
        aligned no matter which other probabilities are set."""
        chaos = plan(3, drop=1.0, duplicate=1.0, delay=1.0, error=1.0,
                     reorder=1.0)
        decision = chaos.decide(envelope(), "request")
        assert decision.drop
        assert not decision.duplicate and not decision.error
        assert decision.delay == 0.0 and not decision.reorder

    def test_reorder_holds_back_longer_than_plain_delay(self):
        chaos = plan(4, reorder=1.0, delay_range=(0.5, 2.0))
        decision = chaos.decide(envelope(), "notify")
        assert decision.reorder
        # high + uniform(low, high): always past every plain delay.
        assert decision.delay >= 2.5

    def test_unknown_leg_rejected(self):
        with pytest.raises(ValidationError):
            plan(5, drop=0.5).decide(envelope(), "sideways")

    def test_same_seed_same_decision_stream(self):
        def schedule(seed):
            chaos = plan(seed, drop=0.3, duplicate=0.3, delay=0.3,
                         error=0.1, reorder=0.2)
            return [(d.drop, d.duplicate, d.delay, d.error, d.reorder)
                    for d in (chaos.decide(envelope(), "request")
                              for _ in range(50))]
        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_uniform_plan_covers_every_message(self):
        chaos = FaultPlan.uniform(RandomSource(0).stream("faults"),
                                  drop=0.5)
        assert chaos.rule_for(envelope()) is not None
        assert chaos.rule_for(envelope(sender="x", recipient="y",
                                       action="z")) is not None

    def test_stats_accumulate(self):
        chaos = plan(9, drop=0.5, duplicate=0.5, delay=0.5, error=0.2,
                     reorder=0.2)
        for _ in range(200):
            chaos.decide(envelope(), "request")
        stats = chaos.stats.as_dict()
        assert stats["decisions"] == 200
        for key in ("dropped", "duplicated", "delayed", "errored",
                    "reordered"):
            assert 0 < stats[key] < 200
