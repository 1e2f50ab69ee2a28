"""Tests for the notification hub (repro.monitoring.notifications)."""

from __future__ import annotations

from repro.monitoring.notifications import DegradationNotice, NotificationHub


def notice(sla_id=1, **overrides):
    defaults = dict(sla_id=sla_id, time=1.0, source="nrm", detail="d")
    defaults.update(overrides)
    return DegradationNotice(**defaults)


class TestHub:
    def test_publish_reaches_all_subscribers(self):
        hub = NotificationHub()
        seen_a, seen_b = [], []
        hub.subscribe(seen_a.append)
        hub.subscribe(seen_b.append)
        hub.publish(notice())
        assert len(seen_a) == len(seen_b) == 1

    def test_severity_zero_without_report(self):
        assert notice().severity == 0.0

    def test_subscriber_added_during_publish_not_called(self):
        hub = NotificationHub()
        calls = []

        def resubscriber(n):
            calls.append("first")
            hub.subscribe(lambda n2: calls.append("second"))

        hub.subscribe(resubscriber)
        hub.publish(notice())
        assert calls == ["first"]
