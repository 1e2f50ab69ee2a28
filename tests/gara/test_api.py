"""Tests for the GARA API (repro.gara.api) — the Table 2 primitives."""

from __future__ import annotations

import pytest

from repro.errors import (
    CapacityError,
    ReservationNotFound,
    ReservationStateError,
)
from repro.gara.api import GaraApi
from repro.gara.reservation import ReservationState
from repro.gara.slot_table import SlotTable
from repro.qos.vector import ResourceVector
from repro.rsl.builder import reservation_rsl
from repro.sim.engine import Simulator


@pytest.fixture
def gara(sim):
    return GaraApi(sim, SlotTable(ResourceVector(cpu=26, memory_mb=10240)),
                   confirm_timeout=30.0)


def rsl(cpu=10, start=0.0, end=100.0):
    return reservation_rsl(ResourceVector(cpu=cpu), start, end)


class TestCreate:
    def test_create_returns_handle_and_books(self, gara):
        handle = gara.reservation_create(rsl(cpu=10))
        assert gara.slot_table.available(0, 100).cpu == 16
        assert gara.reservation_status(handle).state is \
            ReservationState.TEMPORARY

    def test_create_refused_when_full(self, gara):
        gara.reservation_create(rsl(cpu=20))
        with pytest.raises(CapacityError):
            gara.reservation_create(rsl(cpu=10))

    def test_create_committed_directly(self, gara):
        handle = gara.reservation_create(rsl(), temporary=False)
        assert gara.reservation_status(handle).state is \
            ReservationState.COMMITTED


class TestConfirmationTimeout:
    def test_unconfirmed_reservation_auto_cancels(self, gara, sim):
        handle = gara.reservation_create(rsl(cpu=10))
        sim.run(until=31.0)
        assert gara.reservation_status(handle).state is \
            ReservationState.CANCELLED
        assert gara.slot_table.available(31, 100).cpu == 26

    def test_confirmed_reservation_survives(self, gara, sim):
        handle = gara.reservation_create(rsl(cpu=10))
        gara.reservation_commit(handle)
        sim.run(until=31.0)
        assert gara.reservation_status(handle).state is \
            ReservationState.COMMITTED


class TestBindUnbindCancel:
    def test_bind_claims_with_pid(self, gara):
        handle = gara.reservation_create(rsl())
        gara.reservation_commit(handle)
        gara.reservation_bind(handle, pid=777)
        assert gara.reservation_status(handle).bound_pid == 777

    def test_bind_temporary_rejected(self, gara):
        handle = gara.reservation_create(rsl())
        with pytest.raises(ReservationStateError):
            gara.reservation_bind(handle, pid=777)

    def test_unbind(self, gara):
        handle = gara.reservation_create(rsl())
        gara.reservation_commit(handle)
        gara.reservation_bind(handle, pid=777)
        gara.reservation_unbind(handle)
        assert gara.reservation_status(handle).state is \
            ReservationState.COMMITTED

    def test_cancel_frees_capacity(self, gara):
        handle = gara.reservation_create(rsl(cpu=20))
        gara.reservation_cancel(handle)
        assert gara.slot_table.available(0, 100).cpu == 26

    def test_unknown_handle(self, gara):
        from repro.gara.reservation import ReservationHandle
        with pytest.raises(ReservationNotFound):
            gara.reservation_cancel(ReservationHandle(999_999))


class TestModify:
    def test_shrink(self, gara):
        handle = gara.reservation_create(rsl(cpu=20))
        gara.reservation_modify(handle, ResourceVector(cpu=5))
        assert gara.slot_table.available(0, 100).cpu == 21

    def test_grow_within_capacity(self, gara):
        handle = gara.reservation_create(rsl(cpu=5))
        gara.reservation_modify(handle, ResourceVector(cpu=26))
        assert gara.slot_table.available(0, 100).cpu == 0

    def test_grow_past_capacity_preserves_booking(self, gara):
        gara.reservation_create(rsl(cpu=20))
        handle = gara.reservation_create(rsl(cpu=5))
        with pytest.raises(CapacityError):
            gara.reservation_modify(handle, ResourceVector(cpu=10))
        assert gara.reservation_status(handle).demand.cpu == 5

    def test_modify_cancelled_rejected(self, gara):
        handle = gara.reservation_create(rsl())
        gara.reservation_cancel(handle)
        with pytest.raises(ReservationStateError):
            gara.reservation_modify(handle, ResourceVector(cpu=1))


class TestExpiry:
    def test_reservation_expires_at_window_end(self, gara, sim):
        handle = gara.reservation_create(rsl(cpu=10, end=50.0))
        gara.reservation_commit(handle)
        sim.run(until=51.0)
        assert gara.reservation_status(handle).state is \
            ReservationState.EXPIRED
        assert gara.slot_table.available(51, 100).cpu == 26

    def test_live_reservations_listing(self, gara):
        first = gara.reservation_create(rsl(cpu=5))
        second = gara.reservation_create(rsl(cpu=5))
        gara.reservation_cancel(first)
        live = gara.live_reservations()
        assert [r.handle for r in live] == [second]


class TestTimersDieWithTheirState:
    """A reservation's pending timers are retired when it leaves the
    state they guard, so none fires as a no-op later."""

    def test_commit_retires_the_confirm_timeout(self, gara, sim):
        handle = gara.reservation_create(rsl(cpu=10))
        assert len(sim) == 2  # confirm-timeout and window-expiry
        gara.reservation_commit(handle)
        assert len(sim) == 1
        assert handle.value not in gara._confirm_timers
        # Only the expiry is left to fire.
        assert sim.run(until=200.0) == 1
        assert gara.reservation_status(handle).state is \
            ReservationState.EXPIRED

    def test_cancel_retires_both_timers(self, gara, sim):
        temporary = gara.reservation_create(rsl(cpu=10))
        committed = gara.reservation_create(rsl(cpu=10))
        gara.reservation_commit(committed)
        gara.reservation_cancel(temporary)
        gara.reservation_cancel(committed)
        assert len(sim) == 0
        assert sim.run(until=200.0) == 0
        assert not gara._confirm_timers and not gara._expiry_timers

    def test_a_cancelled_reservations_expiry_never_fires(self, trace):
        sim = Simulator(trace=trace)
        gara = GaraApi(sim, SlotTable(ResourceVector(cpu=26)))
        handle = gara.reservation_create(rsl(cpu=10, end=50.0))
        gara.reservation_commit(handle)
        gara.reservation_cancel(handle)
        sim.run(until=100.0)
        assert trace.filter(category="event") == []

    def test_a_fired_confirm_timeout_retires_the_expiry(self, gara, sim):
        handle = gara.reservation_create(rsl(cpu=10))
        assert sim.run(until=200.0) == 1
        assert gara.reservation_status(handle).state is \
            ReservationState.CANCELLED
        assert not gara._confirm_timers and not gara._expiry_timers

    def test_an_expiry_before_the_deadline_retires_the_timeout(self, gara,
                                                               sim):
        handle = gara.reservation_create(rsl(cpu=10, end=10.0))
        assert sim.run(until=200.0) == 1
        assert gara.reservation_status(handle).state is \
            ReservationState.EXPIRED
        assert not gara._confirm_timers and not gara._expiry_timers

    def test_unbounded_committed_booking_holds_no_timer(self, gara, sim):
        handle = gara.reservation_create(
            rsl(cpu=10, end=float("inf")))
        gara.reservation_commit(handle)
        assert len(sim) == 0
