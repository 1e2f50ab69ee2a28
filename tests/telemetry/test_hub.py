"""The telemetry hub installed on a full control-plane testbed."""

from __future__ import annotations

import json

import pytest

from repro.core.testbed import (attach_control_plane, build_testbed,
                                install_telemetry)
from repro.telemetry import Telemetry, events_jsonl

from ..chaos.conftest import guaranteed_request


@pytest.fixture
def testbed():
    return attach_control_plane(build_testbed())


@pytest.fixture
def telemetry(testbed):
    return install_telemetry(testbed)


class TestInstallation:
    def test_hub_adopts_the_existing_registry_and_stream(self, testbed,
                                                         telemetry):
        assert telemetry.metrics is testbed.broker.metrics
        assert telemetry.stream is testbed.trace.stream

    def test_install_is_idempotent(self, testbed, telemetry):
        assert install_telemetry(testbed) is telemetry

    def test_every_component_holds_the_same_hub(self, testbed, telemetry):
        # One field behind the shared probe; which components hold the
        # probe is pinned in tests/core/test_probe.py.
        assert testbed.probe.telemetry is telemetry
        assert testbed.telemetry is telemetry
        assert testbed.bus.probe is testbed.broker.probe is testbed.probe

    def test_capacity_gauges_are_primed_at_install(self, testbed,
                                                   telemetry):
        metrics = telemetry.metrics
        assert [metrics.time_gauge("repro_capacity_effective",
                                   pool=pool).value
                for pool in ("g", "a", "b")] == [15, 6, 5]

    def test_disabled_by_default(self):
        testbed = attach_control_plane(build_testbed())
        assert testbed.telemetry is None
        assert not testbed.probe.measuring


class TestEndToEnd:
    def test_admission_produces_a_connected_span_tree(self, testbed,
                                                      telemetry):
        outcome = testbed.broker.request_service(
            guaranteed_request(client="user1", cpu=4,
                               with_network=False))
        assert outcome.accepted
        spans = telemetry.tracer.spans
        components = {span.component for span in spans}
        assert {"aqos-broker", "reservation-system",
                "aqos-discovery", "uddie"} <= components
        # Everything belongs to connected trees: each non-root parent
        # is a recorded span of the same trace.
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            if span.parent_id is not None:
                assert by_id[span.parent_id].trace_id == span.trace_id

    def test_transport_counters_land_in_the_shared_registry(self, testbed,
                                                            telemetry):
        testbed.broker.request_service(
            guaranteed_request(client="user1", cpu=4,
                               with_network=False))
        assert telemetry.metrics.counter_value(
            "repro_bus_requests_total", action="find_services") == 1

    def test_dedup_counters_are_bound_to_the_hub_registry(self, testbed,
                                                          telemetry):
        endpoint = testbed.bus.endpoint("probe")
        assert endpoint.dedup._hits is telemetry.metrics.counter(
            "repro_dedup_hits_total", endpoint="probe")

    def test_report_has_all_three_sections(self, testbed, telemetry):
        testbed.broker.request_service(
            guaranteed_request(client="user1", cpu=4,
                               with_network=False))
        report = telemetry.report(title="t")
        assert "t: span trees" in report
        assert "t: metrics snapshot" in report
        assert "t: event stream (JSONL)" in report
        assert "# TYPE repro_bus_requests_total counter" in report

    def test_jsonl_export_is_parseable_and_sorted_keys(self, testbed,
                                                       telemetry):
        testbed.broker.request_service(
            guaranteed_request(client="user1", cpu=4,
                               with_network=False))
        lines = events_jsonl(telemetry.stream).splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert list(record) == sorted(record)
            assert {"time", "category", "message"} <= set(record)

    def test_legacy_trace_rides_the_same_stream(self, testbed, telemetry):
        testbed.broker.request_service(
            guaranteed_request(client="user1", cpu=4,
                               with_network=False))
        categories = {event.category
                      for event in telemetry.stream.events}
        # Component trace rows and finished spans interleave in one log.
        assert "span" in categories
        assert "broker" in categories


class TestEmptyHub:
    def test_empty_report_renders_fallbacks(self):
        hub = Telemetry(now=lambda: 0.0)
        report = hub.report()
        assert "(no spans)" in report
        assert "(no metrics)" in report
        assert "(no events)" in report
