"""Tests for the advance-reservation slot table (repro.gara.slot_table)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CapacityError, ReservationNotFound
from repro.gara.slot_table import SlotTable
from repro.qos.vector import ResourceVector


def table(cpu=10, memory=1024):
    return SlotTable(ResourceVector(cpu=cpu, memory_mb=memory))


class TestBasicReservation:
    def test_reserve_reduces_availability(self):
        slots = table()
        slots.reserve(ResourceVector(cpu=4), 0, 10)
        assert slots.available(0, 10).cpu == 6

    def test_release_restores_availability(self):
        slots = table()
        entry = slots.reserve(ResourceVector(cpu=4), 0, 10)
        slots.release(entry)
        assert slots.available(0, 10).cpu == 10

    def test_overcommit_rejected(self):
        slots = table(cpu=10)
        slots.reserve(ResourceVector(cpu=8), 0, 10)
        with pytest.raises(CapacityError):
            slots.reserve(ResourceVector(cpu=3), 0, 10)

    def test_force_overcommits_knowingly(self):
        slots = table(cpu=10)
        slots.reserve(ResourceVector(cpu=8), 0, 10)
        slots.reserve(ResourceVector(cpu=3), 0, 10, force=True)
        assert slots.overcommitment_at(5).cpu == pytest.approx(1.0)

    def test_empty_window_rejected(self):
        with pytest.raises(CapacityError):
            table().reserve(ResourceVector(cpu=1), 5, 5)

    def test_release_unknown_entry(self):
        slots = table()
        entry = slots.reserve(ResourceVector(cpu=1), 0, 10)
        slots.release(entry)
        with pytest.raises(ReservationNotFound):
            slots.release(entry)


class TestTimeWindows:
    def test_disjoint_windows_share_capacity(self):
        slots = table(cpu=10)
        slots.reserve(ResourceVector(cpu=10), 0, 10)
        slots.reserve(ResourceVector(cpu=10), 10, 20)  # no overlap
        assert slots.available(0, 10).cpu == 0
        assert slots.available(10, 20).cpu == 0

    def test_half_open_windows(self):
        slots = table(cpu=10)
        entry = slots.reserve(ResourceVector(cpu=4), 0, 10)
        assert entry.active_at(0)
        assert entry.active_at(9.99)
        assert not entry.active_at(10)

    def test_partial_overlap_counts(self):
        slots = table(cpu=10)
        slots.reserve(ResourceVector(cpu=6), 0, 15)
        slots.reserve(ResourceVector(cpu=4), 10, 20)
        # Over [10, 15) both are active.
        assert slots.available(10, 15).cpu == 0
        assert slots.available(15, 20).cpu == 6

    def test_peak_usage_over_window(self):
        slots = table(cpu=10)
        slots.reserve(ResourceVector(cpu=2), 0, 30)
        slots.reserve(ResourceVector(cpu=5), 10, 20)
        assert slots.peak_usage(0, 30).cpu == 7
        assert slots.peak_usage(20, 30).cpu == 2

    def test_advance_reservation_in_future(self):
        slots = table(cpu=10)
        slots.reserve(ResourceVector(cpu=10), 100, 200)
        assert slots.available(0, 100).cpu == 10
        assert slots.can_reserve(ResourceVector(cpu=10), 0, 100)
        assert not slots.can_reserve(ResourceVector(cpu=1), 50, 150)


class TestResize:
    def test_shrink_always_fits(self):
        slots = table(cpu=10)
        entry = slots.reserve(ResourceVector(cpu=10), 0, 10)
        slots.resize(entry, ResourceVector(cpu=2))
        assert slots.available(0, 10).cpu == 8

    def test_grow_within_headroom(self):
        slots = table(cpu=10)
        entry = slots.reserve(ResourceVector(cpu=2), 0, 10)
        slots.resize(entry, ResourceVector(cpu=9))
        assert slots.available(0, 10).cpu == 1

    def test_grow_past_capacity_restores_original(self):
        slots = table(cpu=10)
        slots.reserve(ResourceVector(cpu=5), 0, 10)
        entry = slots.reserve(ResourceVector(cpu=3), 0, 10)
        with pytest.raises(CapacityError):
            slots.resize(entry, ResourceVector(cpu=8))
        assert slots.usage_at(5).cpu == 8  # unchanged


class TestOpenEndedReservations:
    def test_forever_window_blocks_all_future_time(self):
        from repro.gara.slot_table import FOREVER
        slots = table(cpu=10)
        slots.reserve(ResourceVector(cpu=6), 0, FOREVER)
        assert slots.available(1_000_000, 2_000_000).cpu == 4

    def test_forever_reservation_never_auto_expires(self, sim):
        from repro.gara.api import GaraApi
        from repro.gara.slot_table import FOREVER
        gara = GaraApi(sim, table(cpu=10), confirm_timeout=5.0)
        handle = gara.reservation_create(
            "&(count=4)(start-time=0)(end-time=inf)", temporary=False)
        sim.run(until=1_000_000.0)
        assert gara.reservation_status(handle).state.is_live


class TestCapacityChange:
    def test_shrink_reports_overcommitment(self):
        slots = table(cpu=10)
        slots.reserve(ResourceVector(cpu=9), 0, 10)
        slots.set_capacity(ResourceVector(cpu=6, memory_mb=1024))
        assert slots.overcommitment_at(5).cpu == pytest.approx(3.0)

    def test_utilization(self):
        slots = table(cpu=10)
        slots.reserve(ResourceVector(cpu=5), 0, 10)
        assert slots.utilization_at(5) == pytest.approx(0.5)
        assert slots.utilization_at(50) == 0.0


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------

windows = st.tuples(
    st.floats(min_value=0, max_value=100, allow_nan=False),
    st.floats(min_value=0.1, max_value=50, allow_nan=False),
)
demands = st.integers(min_value=1, max_value=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(windows, demands), min_size=1, max_size=20))
def test_never_oversubscribed_without_force(bookings):
    """Admitted bookings never exceed capacity at any event point."""
    slots = SlotTable(ResourceVector(cpu=10))
    accepted = []
    for (start, length), cpu in bookings:
        demand = ResourceVector(cpu=float(cpu))
        try:
            accepted.append(slots.reserve(demand, start, start + length))
        except CapacityError:
            pass
    check_points = {entry.start for entry in accepted}
    check_points.update(entry.end - 1e-9 for entry in accepted)
    for point in check_points:
        assert slots.usage_at(point).cpu <= 10 + 1e-6


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(windows, demands), min_size=1, max_size=15))
def test_release_everything_restores_full_capacity(bookings):
    slots = SlotTable(ResourceVector(cpu=10))
    accepted = []
    for (start, length), cpu in bookings:
        try:
            accepted.append(slots.reserve(ResourceVector(cpu=float(cpu)),
                                          start, start + length))
        except CapacityError:
            pass
    for entry in accepted:
        slots.release(entry)
    assert slots.available(0, 1000).cpu == 10
    assert len(slots) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(windows, demands), min_size=1, max_size=15),
       windows)
def test_available_plus_peak_equals_capacity(bookings, probe):
    slots = SlotTable(ResourceVector(cpu=10))
    for (start, length), cpu in bookings:
        try:
            slots.reserve(ResourceVector(cpu=float(cpu)),
                          start, start + length)
        except CapacityError:
            pass
    probe_start, probe_length = probe
    probe_end = probe_start + probe_length
    available = slots.available(probe_start, probe_end).cpu
    peak = slots.peak_usage(probe_start, probe_end).cpu
    assert available + peak == pytest.approx(10.0)
