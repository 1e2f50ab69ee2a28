"""Tests for the DSRT scheduler simulation (repro.resources.dsrt)."""

from __future__ import annotations

import pytest

from repro.errors import CapacityError, ResourceError
from repro.resources.dsrt import DsrtScheduler


@pytest.fixture
def dsrt():
    return DsrtScheduler(node_count=8)


class TestReservations:
    def test_reserve_and_release(self, dsrt):
        contract = dsrt.reserve(0.5, nodes=2)
        assert contract.reserved_capacity == pytest.approx(1.0)
        assert dsrt.free_capacity() == pytest.approx(7.0)
        dsrt.release(contract.pid)
        assert dsrt.free_capacity() == pytest.approx(8.0)

    def test_over_reservation_rejected(self, dsrt):
        dsrt.reserve(1.0, nodes=8)
        with pytest.raises(CapacityError):
            dsrt.reserve(0.1)

    def test_invalid_fraction_rejected(self, dsrt):
        with pytest.raises(ResourceError):
            dsrt.reserve(0.0)
        with pytest.raises(ResourceError):
            dsrt.reserve(1.5)

    def test_duplicate_pid_rejected(self, dsrt):
        dsrt.reserve(0.2, pid=42)
        with pytest.raises(ResourceError):
            dsrt.reserve(0.2, pid=42)

    def test_release_unknown_pid(self, dsrt):
        with pytest.raises(ResourceError):
            dsrt.release(9999)


class TestResize:
    def test_shrink_releases_capacity(self, dsrt):
        dsrt.reserve(0.8, nodes=6, pid=1)
        dsrt.resize(1, nodes=2)
        assert dsrt.contract(1).nodes == 2
        assert dsrt.reserved_total() == pytest.approx(1.6)
        assert dsrt.free_capacity() == pytest.approx(6.4)

    def test_grow_within_free_capacity(self, dsrt):
        dsrt.reserve(0.5, nodes=2, pid=1)
        dsrt.resize(1, nodes=4)
        assert dsrt.reserved_total() == pytest.approx(2.0)

    def test_grow_is_clamped_not_rejected(self, dsrt):
        dsrt.reserve(0.8, nodes=8, pid=1)  # 6.4 of 8
        dsrt.reserve(0.8, nodes=1, pid=2)  # 0.8 more; free = 0.8
        dsrt.resize(2, nodes=4)  # wants 3.2, only 1.6 available
        assert dsrt.reserved_total() == pytest.approx(8.0)
        assert dsrt.contract(2).nodes == 4
        assert dsrt.contract(2).reserved_fraction == pytest.approx(0.4)

    def test_resize_fraction(self, dsrt):
        dsrt.reserve(0.8, nodes=2, pid=1)
        dsrt.resize(1, fraction=0.4)
        assert dsrt.reserved_total() == pytest.approx(0.8)

    def test_shrink_then_new_reservation_fits(self, dsrt):
        """The broker squeeze pattern: without the resize the second
        reserve would die on a phantom CapacityError."""
        dsrt.reserve(0.8, nodes=8, pid=1)
        with pytest.raises(CapacityError):
            dsrt.reserve(0.8, nodes=4, pid=2)
        dsrt.resize(1, nodes=2)
        dsrt.reserve(0.8, nodes=4, pid=2)
        assert dsrt.reserved_total() == pytest.approx(4.8)

    def test_resize_unknown_pid_rejected(self, dsrt):
        with pytest.raises(ResourceError):
            dsrt.resize(99, nodes=1)

    def test_resize_bad_arguments_rejected(self, dsrt):
        dsrt.reserve(0.5, nodes=2, pid=1)
        with pytest.raises(ResourceError):
            dsrt.resize(1, nodes=0)
        with pytest.raises(ResourceError):
            dsrt.resize(1, fraction=1.5)
