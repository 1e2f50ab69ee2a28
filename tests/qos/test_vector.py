"""Tests for resource vectors (repro.qos.vector)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.qos.vector import ResourceVector


def vectors():
    component = st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
    return st.builds(ResourceVector, cpu=component, memory_mb=component,
                     disk_mb=component, bandwidth_mbps=component)


class TestConstruction:
    def test_zero(self):
        assert ResourceVector.zero().is_zero()

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(cpu=-1.0)

    def test_frozen(self):
        vector = ResourceVector(cpu=1.0)
        with pytest.raises(Exception):
            vector.cpu = 2.0  # type: ignore[misc]


class TestArithmetic:
    def test_add(self):
        total = ResourceVector(cpu=2, memory_mb=10) + \
            ResourceVector(cpu=3, bandwidth_mbps=5)
        assert total == ResourceVector(cpu=5, memory_mb=10,
                                       bandwidth_mbps=5)

    def test_subtract_clamps_at_zero(self):
        result = ResourceVector(cpu=2) - ResourceVector(cpu=5)
        assert result == ResourceVector.zero()

    def test_scaled(self):
        assert ResourceVector(cpu=2, memory_mb=4).scaled(2.5) == \
            ResourceVector(cpu=5, memory_mb=10)

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            ResourceVector(cpu=1).scaled(-1)

    def test_component_max(self):
        a = ResourceVector(cpu=2, memory_mb=10)
        b = ResourceVector(cpu=5, memory_mb=3)
        assert a.component_max(b) == ResourceVector(cpu=5, memory_mb=10)


class TestPartialOrder:
    def test_fits_within(self):
        demand = ResourceVector(cpu=4, memory_mb=64)
        capacity = ResourceVector(cpu=10, memory_mb=128, disk_mb=100)
        assert demand.fits_within(capacity)
        assert not capacity.fits_within(demand)

    def test_incomparable_vectors(self):
        a = ResourceVector(cpu=4, memory_mb=1)
        b = ResourceVector(cpu=1, memory_mb=4)
        assert not a.fits_within(b)
        assert not b.fits_within(a)


class TestProperties:
    @given(vectors(), vectors())
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(vectors(), vectors())
    def test_sum_dominates_terms(self, a, b):
        assert a.fits_within(a + b)
        assert b.fits_within(a + b)

    @given(vectors(), vectors())
    def test_difference_fits_in_minuend_when_dominated(self, a, b):
        if b.fits_within(a):
            assert (a - b).fits_within(a)

    @given(vectors())
    def test_zero_is_identity(self, a):
        assert a + ResourceVector.zero() == a

    @given(vectors())
    def test_every_vector_fits_in_itself(self, a):
        assert a.fits_within(a)

    @given(vectors(), vectors())
    def test_add_then_subtract_restores(self, a, b):
        result = (a + b) - b
        for field_name in ResourceVector._FIELDS:
            assert getattr(result, field_name) == pytest.approx(
                getattr(a, field_name), rel=1e-9, abs=1e-6)


class TestSerialization:
    def test_str_omits_zero_components(self):
        assert "memory" not in str(ResourceVector(cpu=4))

    def test_str_of_zero(self):
        assert "zero" in str(ResourceVector.zero())
