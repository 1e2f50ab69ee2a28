"""Differential tests: the sweep-line-indexed :class:`SlotTable`
must be result-identical to the naive event-point-scan oracle
(:class:`NaiveSlotTable`) across randomized mutation sequences.

Demands are drawn as multiples of 0.25 (binary-exact floats), so sums
are associative-exact and the comparison can be strict equality — any
divergence, however small, is a real indexing bug. A tier-1 perf smoke
test at the bottom guards against gross O(n²) regressions.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CapacityError
from repro.gara.slot_table import FOREVER, SlotTable
from repro.qos.vector import ResourceVector
from repro.xmlmsg.idempotency import DedupCache

from .slot_table_reference import NaiveSlotTable

CAPACITY = ResourceVector(cpu=12, memory_mb=2048, disk_mb=4096,
                          bandwidth_mbps=100)

# Binary-exact demand components (multiples of 0.25).
quarter_floats = st.integers(min_value=0, max_value=24).map(
    lambda n: n * 0.25)
demands = st.builds(ResourceVector, cpu=quarter_floats,
                    memory_mb=quarter_floats.map(lambda v: v * 64),
                    bandwidth_mbps=quarter_floats)
start_times = st.floats(min_value=0, max_value=100, allow_nan=False)
durations = st.one_of(
    st.floats(min_value=0.25, max_value=60, allow_nan=False),
    st.just(FOREVER))

reserve_ops = st.tuples(st.just("reserve"), demands, start_times,
                        durations, st.booleans())
release_ops = st.tuples(st.just("release"), st.integers(min_value=0))
resize_ops = st.tuples(st.just("resize"), st.integers(min_value=0),
                       demands, st.booleans())
capacity_ops = st.tuples(st.just("set_capacity"),
                         st.integers(min_value=0, max_value=16))

operations = st.lists(
    st.one_of(reserve_ops, reserve_ops, release_ops, resize_ops,
              capacity_ops),
    min_size=1, max_size=30)


def _apply(table, live, op):
    """Apply one operation; returns the raised error class (or None)."""
    kind = op[0]
    try:
        if kind == "reserve":
            _, demand, start, length, force = op
            end = FOREVER if length == FOREVER else start + length
            live.append(table.reserve(demand, start, end, force=force))
        elif kind == "release":
            if not live:
                return None
            entry = live.pop(op[1] % len(live))
            table.release(entry)
        elif kind == "resize":
            if not live:
                return None
            index = op[1] % len(live)
            live[index] = table.resize(live[index], op[2], force=op[3])
        elif kind == "set_capacity":
            table.set_capacity(ResourceVector(
                cpu=float(op[1]), memory_mb=2048, disk_mb=4096,
                bandwidth_mbps=100))
    except CapacityError:
        return CapacityError
    return None


def _usage_profile(table):
    """The indexed table's piecewise-constant profile, read off its
    boundary columns as ``(start, end, usage)`` in time order; the last
    segment ends at :data:`FOREVER`."""
    times = table._times
    ends = times[1:] + [FOREVER]
    return [(start, end, ResourceVector(cpu, memory, disk, bandwidth))
            for start, end, cpu, memory, disk, bandwidth
            in zip(times, ends, table._cpu, table._memory, table._disk,
                   table._bandwidth)]


def _probe_points(table):
    """Every profile boundary, its neighbourhood, and fixed probes."""
    points = {0.0, 50.0, 1e6, -1.0}
    for start, _end, _usage in _usage_profile(table):
        points.update((start, start - 0.125, start + 0.125))
    return sorted(points)


def _assert_tables_match(indexed, naive):
    assert len(indexed) == len(naive)
    assert indexed.entries() == naive.entries()
    points = _probe_points(indexed)
    for point in points:
        assert indexed.usage_at(point) == naive.usage_at(point), point
        assert indexed.available_at(point) == naive.available_at(point)
        assert (indexed.overcommitment_at(point)
                == naive.overcommitment_at(point))
        assert indexed.utilization_at(point) == naive.utilization_at(point)
    for window_start in points[::2]:
        for width in (0.25, 10.0, 1000.0):
            window_end = window_start + width
            assert (indexed.peak_usage(window_start, window_end)
                    == naive.peak_usage(window_start, window_end)), \
                (window_start, window_end)
            assert (indexed.available(window_start, window_end)
                    == naive.available(window_start, window_end))


class TestDifferential:
    @settings(max_examples=80, deadline=None)
    @given(operations)
    def test_indexed_matches_naive_after_every_mutation(self, ops):
        indexed = SlotTable(CAPACITY)
        naive = NaiveSlotTable(CAPACITY)
        live_indexed = []
        live_naive = []
        for op in ops:
            error_indexed = _apply(indexed, live_indexed, op)
            error_naive = _apply(naive, live_naive, op)
            assert error_indexed is error_naive, op
            _assert_tables_match(indexed, naive)

    @settings(max_examples=40, deadline=None)
    @given(operations)
    def test_profile_collapses_when_everything_is_released(self, ops):
        indexed = SlotTable(CAPACITY)
        live = []
        for op in ops:
            _apply(indexed, live, op)
        for entry in live:
            indexed.release(entry)
        assert len(indexed) == 0
        assert _usage_profile(indexed) == []
        assert indexed.usage_at(50.0) == ResourceVector.zero()


class _KeyedDelivery:
    """A slot table behind an at-least-once transport.

    Every operation arrives as a keyed message; re-deliveries of a key
    are answered from a :class:`DedupCache` without re-executing, the
    way a bus endpoint answers a duplicated GARA ``create``."""

    def __init__(self, table):
        self.table = table
        self.live = []
        self.dedup = DedupCache(capacity=1024)
        self.executions = 0

    def deliver(self, key, op):
        if self.dedup.seen(key):
            return self.dedup.get(key)
        self.executions += 1
        return self.dedup.put(key, _apply(self.table, self.live, op))


class TestDuplicatedKeyedDeliveries:
    """At-least-once delivery + dedup ≡ exactly-once execution.

    The indexed table receives every operation once, twice or three
    times (immediate duplicates plus a full late-retry storm at the
    end) through the dedup layer; the naive oracle receives each
    operation exactly once. Identical final state — to strict float
    equality — means a duplicated keyed delivery can never
    double-reserve, double-release or double-resize."""

    @settings(max_examples=60, deadline=None)
    @given(operations,
           st.lists(st.integers(min_value=0, max_value=2), min_size=30,
                    max_size=30))
    def test_duplicates_through_dedup_match_exactly_once_oracle(
            self, ops, extra_deliveries):
        keyed = _KeyedDelivery(SlotTable(CAPACITY))
        naive = NaiveSlotTable(CAPACITY)
        live_naive = []
        for index, op in enumerate(ops):
            key = f"msg-{index}"
            first = keyed.deliver(key, op)
            for _ in range(extra_deliveries[index % len(extra_deliveries)]):
                assert keyed.deliver(key, op) is first
            assert _apply(naive, live_naive, op) is first, op
        # A late retry storm: every key re-delivered once more, in
        # order. Nothing may change.
        for index, op in enumerate(ops):
            keyed.deliver(f"msg-{index}", op)
        assert keyed.executions == len(ops)
        assert keyed.dedup._hits.value >= len(ops)
        _assert_tables_match(keyed.table, naive)

    @settings(max_examples=30, deadline=None)
    @given(operations)
    def test_interleaved_redeliveries_of_all_prior_keys(self, ops):
        """After each new operation, every earlier key is re-delivered
        (worst-case retry interleaving); the table must track the
        exactly-once oracle after every step."""
        keyed = _KeyedDelivery(SlotTable(CAPACITY))
        naive = NaiveSlotTable(CAPACITY)
        live_naive = []
        for index, op in enumerate(ops):
            keyed.deliver(f"msg-{index}", op)
            _apply(naive, live_naive, op)
            for earlier in range(index + 1):
                keyed.deliver(f"msg-{earlier}", ops[earlier])
            _assert_tables_match(keyed.table, naive)
        assert keyed.executions == len(ops)


class TestFastPaths:
    def test_available_at_equals_pinhole_window(self):
        table = SlotTable(CAPACITY)
        table.reserve(ResourceVector(cpu=4), 0, 10)
        table.reserve(ResourceVector(cpu=2), 5, FOREVER)
        for now in (0.0, 4.9, 5.0, 9.9, 10.0, 100.0):
            assert table.available_at(now) == table.available(now, now + 1e-9)

    def test_usage_profile_segments(self):
        table = SlotTable(CAPACITY)
        table.reserve(ResourceVector(cpu=4), 0, 10)
        table.reserve(ResourceVector(cpu=2), 5, 20)
        profile = _usage_profile(table)
        spans = [(start, end, usage.cpu) for start, end, usage in profile]
        assert spans == [(0, 5, 4.0), (5, 10, 6.0), (10, 20, 2.0),
                         (20, FOREVER, 0.0)]

    def test_open_ended_reservation_covers_far_future(self):
        table = SlotTable(CAPACITY)
        table.reserve(ResourceVector(cpu=5), 10, FOREVER)
        assert table.usage_at(1e12).cpu == 5
        assert table.available_at(1e12).cpu == CAPACITY.cpu - 5
        assert table.peak_usage(0, FOREVER).cpu == 5

    def test_entry_ids_are_per_table(self):
        """Two tables built in one process number entries independently,
        so experiment runs stay id-deterministic."""
        first = SlotTable(CAPACITY)
        second = SlotTable(CAPACITY)
        assert first.reserve(ResourceVector(cpu=1), 0, 1).entry_id == 1
        assert first.reserve(ResourceVector(cpu=1), 0, 1).entry_id == 2
        assert second.reserve(ResourceVector(cpu=1), 0, 1).entry_id == 1

    def test_naive_reference_also_numbers_per_table(self):
        first = NaiveSlotTable(CAPACITY)
        second = NaiveSlotTable(CAPACITY)
        assert first.reserve(ResourceVector(cpu=1), 0, 1).entry_id == 1
        assert second.reserve(ResourceVector(cpu=1), 0, 1).entry_id == 1


class TestPerfSmoke:
    def test_1k_reserve_and_query_stays_fast(self):
        """Tier-1 guard against gross O(n²) regressions: 1k admission-
        checked reserves with point+window queries. The indexed table
        does this in tens of milliseconds; the naive scan needs tens of
        seconds, so the bound is generous without being loose."""
        table = SlotTable(ResourceVector(cpu=1e9, memory_mb=1e9,
                                         disk_mb=1e9, bandwidth_mbps=1e9))
        started = time.perf_counter()
        for index in range(1000):
            table.reserve(ResourceVector(cpu=1.0, memory_mb=64.0),
                          float(index), float(index + 20))
            table.usage_at(float(index))
            table.available_at(float(index) + 0.5)
            table.peak_usage(float(index), float(index) + 20)
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"1k reserve+query took {elapsed:.2f}s"

    def test_smoke_result_correctness(self):
        table = SlotTable(ResourceVector(cpu=100))
        for index in range(50):
            table.reserve(ResourceVector(cpu=1.0), float(index),
                          float(index + 20))
        with pytest.raises(CapacityError):
            table.reserve(ResourceVector(cpu=95.0), 30, 35)
        assert table.usage_at(30.0).cpu == 20.0
