"""Tests for RSL building (repro.rsl.builder)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import RSLError
from repro.gara.api import GaraApi
from repro.gara.slot_table import SlotTable
from repro.qos.vector import ResourceVector
from repro.rsl.builder import reservation_rsl, vector_from_rsl
from repro.sim.engine import Simulator


class TestReservationRsl:
    def test_typical_request(self):
        text = reservation_rsl(
            ResourceVector(cpu=10, memory_mb=2048, disk_mb=15360),
            start_time=0.0, end_time=100.0, service_name="simulation")
        assert "(count=10)" in text
        assert "(memory=2048)" in text
        assert "(disk=15360)" in text
        assert "(start-time=0)" in text
        assert "(end-time=100)" in text
        assert "(label=simulation)" in text

    def test_zero_components_omitted(self):
        text = reservation_rsl(ResourceVector(cpu=4), 0.0, 10.0)
        assert "memory" not in text
        assert "bandwidth" not in text

    def test_inverted_window_rejected(self):
        with pytest.raises(RSLError):
            reservation_rsl(ResourceVector(cpu=1), 10.0, 5.0)


class TestVectorFromRsl:
    def test_round_trip(self):
        demand = ResourceVector(cpu=10, memory_mb=2048, bandwidth_mbps=45)
        text = reservation_rsl(demand, 5.0, 50.0, service_name="svc")
        parsed, start, end, label = vector_from_rsl(text)
        assert parsed == demand
        assert (start, end) == (5.0, 50.0)
        assert label == "svc"

    def test_missing_window_rejected(self):
        with pytest.raises(RSLError):
            vector_from_rsl("&(count=10)")

    def test_inverted_window_rejected(self):
        with pytest.raises(RSLError):
            vector_from_rsl("&(count=1)(start-time=10)(end-time=5)")

    def test_non_numeric_attribute_rejected(self):
        with pytest.raises(RSLError):
            vector_from_rsl("&(count=ten)(start-time=0)(end-time=5)")

    def test_label_optional(self):
        _demand, _s, _e, label = vector_from_rsl(
            "&(count=1)(start-time=0)(end-time=5)")
        assert label is None

    @given(
        st.integers(min_value=0, max_value=256),
        st.floats(min_value=0, max_value=1e5, allow_nan=False,
                  allow_infinity=False),
        st.floats(min_value=0, max_value=1e5, allow_nan=False,
                  allow_infinity=False),
        st.floats(min_value=0, max_value=1e4, allow_nan=False,
                  allow_infinity=False),
    )
    def test_round_trip_property(self, cpu, memory, disk, bandwidth):
        demand = ResourceVector(cpu=float(cpu), memory_mb=memory,
                                disk_mb=disk, bandwidth_mbps=bandwidth)
        text = reservation_rsl(demand, 0.0, 10.0)
        parsed, _start, _end, _label = vector_from_rsl(text)
        for field_name in ResourceVector._FIELDS:
            assert getattr(parsed, field_name) == pytest.approx(
                getattr(demand, field_name), rel=1e-9, abs=1e-9)


class TestNonFiniteValues:
    """Render and parse agree on ±inf; NaN is refused at the parse."""

    def test_open_ended_window_renders_and_round_trips(self):
        text = reservation_rsl(ResourceVector(cpu=2), 0.0, math.inf)
        assert "(end-time=inf)" in text
        demand, start, end, _label = vector_from_rsl(text)
        assert demand == ResourceVector(cpu=2)
        assert (start, end) == (0.0, math.inf)

    def test_negative_infinite_start_round_trips(self):
        text = reservation_rsl(ResourceVector(cpu=1), -math.inf, 5.0)
        _demand, start, end, _label = vector_from_rsl(text)
        assert (start, end) == (-math.inf, 5.0)

    def test_infinite_demand_round_trips(self):
        text = reservation_rsl(ResourceVector(bandwidth_mbps=math.inf),
                               0.0, 1.0)
        demand, _start, _end, _label = vector_from_rsl(text)
        assert demand.bandwidth_mbps == math.inf

    @pytest.mark.parametrize("text", [
        "&(count=nan)(start-time=0)(end-time=5)",
        "&(count=1)(start-time=nan)(end-time=5)",
        "&(count=1)(start-time=0)(end-time=nan)",
        "&(memory=NaN)(start-time=0)(end-time=5)",
    ])
    def test_nan_is_rejected_as_rsl(self, text):
        with pytest.raises(RSLError, match="not numeric"):
            vector_from_rsl(text)

    def test_nan_never_reaches_the_slot_table(self):
        gara = GaraApi(Simulator(), SlotTable(ResourceVector(cpu=8)))
        with pytest.raises(RSLError):
            gara.reservation_create("&(count=nan)(start-time=0)(end-time=5)")
