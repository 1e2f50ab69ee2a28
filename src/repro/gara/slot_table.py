"""Advance-reservation slot table.

Reservations claim a :class:`~repro.qos.vector.ResourceVector` over a
half-open time window ``[start, end)``. The table answers the two
questions admission control needs — "what is free over this window?"
and "does this demand fit?" — from an incrementally maintained
**sweep-line usage profile**: booked usage is piecewise constant, so
the table keeps the sorted boundary times (reservation starts and
ends) together with the total usage of every segment between two
consecutive boundaries. Point queries (:meth:`usage_at`,
:meth:`available_at`) are a single binary search, window queries
(:meth:`peak_usage`, :meth:`available`) are a component-wise maximum
over the ``k`` segments the window overlaps, and mutations patch only
the affected segments — O(log n) / O(log n + k) instead of the
O(n²)-per-query event-point scan the first implementation used (kept
as ``tests/gara/slot_table_reference.NaiveSlotTable`` for differential
testing).

The table also supports capacity *reduction* (node failures shrink the
pool in the Section 5.6 example) and reports which windows become
overcommitted so the adaptation layer can react.

Exactness: segment usage is accumulated with plain float addition in
mutation order, while the naive scan re-sums entries per query. For
demands that are exactly representable in binary floating point
(integers, quarters, …) the two are bit-identical; for arbitrary
floats they can differ in the last ulp, which every admission
comparison already absorbs through the ``1e-9`` epsilon in
:meth:`ResourceVector.fits_within`.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List

from ..errors import CapacityError, ReservationNotFound
from ..qos.vector import ResourceVector

#: Sentinel end time for open-ended reservations.
FOREVER = float("inf")


@dataclass(frozen=True)
class SlotEntry:
    """One booked window in the table."""

    entry_id: int
    demand: ResourceVector
    start: float
    end: float
    label: str = ""

    def active_at(self, time: float) -> bool:
        """Whether the window covers ``time`` (half-open semantics)."""
        return self.start <= time < self.end


class SlotTable:
    """Time-indexed capacity accounting for one resource pool.

    Internally the table maintains three structures that are kept in
    lock-step by every mutation:

    * ``_entries`` — the booked entries by id (the ledger).
    * ``_times`` — sorted, distinct boundary times; segment ``i``
      covers ``[_times[i], _times[i+1])`` (the last segment extends to
      :data:`FOREVER`), and usage before ``_times[0]`` is zero.
    * ``_cpu`` / ``_memory`` / ``_disk`` / ``_bandwidth`` — parallel
      flat arrays, one scalar per segment: the total demand booked
      over that segment, per component. Flat columns keep the probe
      path allocation-free — a point query indexes four floats, a
      window peak is a builtin ``max`` over four list slices — where
      per-segment tuples forced a Python-level unpack per segment.

    ``_boundary_refs`` counts how many entry endpoints sit on each
    boundary so boundaries disappear (and segments re-merge) exactly
    when the last entry touching them is released.
    """

    def __init__(self, capacity: ResourceVector) -> None:
        self._capacity = capacity
        self._entries: Dict[int, SlotEntry] = {}
        self._entry_counter = itertools.count(1)
        self._times: List[float] = []
        self._cpu: List[float] = []
        self._memory: List[float] = []
        self._disk: List[float] = []
        self._bandwidth: List[float] = []
        self._boundary_refs: Dict[float, int] = {}

    # ------------------------------------------------------------------
    # Sweep-line profile maintenance
    # ------------------------------------------------------------------

    def _insert_boundary(self, time: float) -> None:
        """Reference-count ``time`` as a boundary, splitting its segment."""
        refs = self._boundary_refs
        count = refs.get(time)
        if count:
            refs[time] = count + 1
            return
        refs[time] = 1
        pos = bisect_left(self._times, time)
        self._times.insert(pos, time)
        # A new boundary splits its segment: both halves start with the
        # segment's current usage (zero before the first boundary).
        self._cpu.insert(pos, self._cpu[pos - 1] if pos else 0.0)
        self._memory.insert(pos, self._memory[pos - 1] if pos else 0.0)
        self._disk.insert(pos, self._disk[pos - 1] if pos else 0.0)
        self._bandwidth.insert(pos, self._bandwidth[pos - 1] if pos else 0.0)

    def _remove_boundary(self, time: float) -> None:
        """Drop one reference to ``time``, merging segments at zero."""
        refs = self._boundary_refs
        count = refs[time] - 1
        if count:
            refs[time] = count
            return
        del refs[time]
        pos = bisect_left(self._times, time)
        del self._times[pos]
        del self._cpu[pos]
        del self._memory[pos]
        del self._disk[pos]
        del self._bandwidth[pos]

    def _apply_delta(self, entry: SlotEntry, sign: float) -> None:
        """Add ``sign *`` the entry's demand to every covered segment.

        Each component patches its own column, and all-zero components
        (most bookings carry no disk demand, say) skip their column
        entirely. Accumulation order per segment is unchanged from the
        tuple-based profile, so sums stay bit-identical.
        """
        times = self._times
        lo = bisect_left(times, entry.start)
        hi = bisect_left(times, entry.end)
        demand = entry.demand
        span = range(lo, hi)
        d = sign * demand.cpu
        if d:
            col = self._cpu
            for index in span:
                col[index] += d
        d = sign * demand.memory_mb
        if d:
            col = self._memory
            for index in span:
                col[index] += d
        d = sign * demand.disk_mb
        if d:
            col = self._disk
            for index in span:
                col[index] += d
        d = sign * demand.bandwidth_mbps
        if d:
            col = self._bandwidth
            for index in span:
                col[index] += d

    def _index_entry(self, entry: SlotEntry) -> None:
        self._insert_boundary(entry.start)
        if not math.isinf(entry.end):
            self._insert_boundary(entry.end)
        self._apply_delta(entry, 1.0)

    def _unindex_entry(self, entry: SlotEntry) -> None:
        self._apply_delta(entry, -1.0)
        self._remove_boundary(entry.start)
        if not math.isinf(entry.end):
            self._remove_boundary(entry.end)

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> ResourceVector:
        """The pool's total capacity."""
        return self._capacity

    def set_capacity(self, capacity: ResourceVector) -> None:
        """Change the pool capacity (e.g. after a node failure/repair).

        Existing entries are left in place; use
        :meth:`overcommitment_at` to discover windows that no longer
        fit, and let the adaptation layer decide what to squeeze. The
        usage profile is capacity-independent, so this is O(1).
        """
        self._capacity = capacity

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[SlotEntry]:
        """All booked entries (a copy), ordered by start time."""
        return sorted(self._entries.values(), key=lambda e: (e.start, e.entry_id))

    def usage_at(self, time: float) -> ResourceVector:
        """Total demand booked at an instant (one binary search)."""
        index = bisect_right(self._times, time) - 1
        if index < 0:
            return ResourceVector.zero()
        return ResourceVector(self._cpu[index], self._memory[index],
                              self._disk[index], self._bandwidth[index])

    def peak_usage(self, start: float, end: float) -> ResourceVector:
        """Component-wise maximum booked demand over ``[start, end)``.

        A range-max over the segments the window overlaps: usage only
        rises at reservation starts, so the segment maxima are exactly
        the event-point samples the naive scan takes. Each component is
        a builtin ``max`` over a contiguous slice of its flat column —
        no per-segment Python objects on the probe path. Peaks clamp at
        zero, matching the naive scan's zero-initialized fold.
        """
        times = self._times
        if not times or end <= start:
            # Degenerate window: the naive scan still samples ``start``
            # (clamped at zero, like every peak).
            return ResourceVector.zero().component_max(self.usage_at(start))
        hi = bisect_left(times, end) - 1
        if hi < 0:
            return ResourceVector.zero()
        lo = bisect_right(times, start) - 1
        if lo < 0:
            lo = 0
        hi += 1
        peak0 = max(self._cpu[lo:hi])
        peak1 = max(self._memory[lo:hi])
        peak2 = max(self._disk[lo:hi])
        peak3 = max(self._bandwidth[lo:hi])
        return ResourceVector(peak0 if peak0 > 0.0 else 0.0,
                              peak1 if peak1 > 0.0 else 0.0,
                              peak2 if peak2 > 0.0 else 0.0,
                              peak3 if peak3 > 0.0 else 0.0)

    def available(self, start: float, end: float) -> ResourceVector:
        """Capacity not yet booked anywhere in ``[start, end)``."""
        return self._capacity - self.peak_usage(start, end)

    def available_at(self, time: float) -> ResourceVector:
        """Capacity not booked at an instant (the pinhole fast path).

        Equivalent to ``available(time, time + ε)`` without the
        degenerate window; callers polling "what is free right now"
        (sensors, the broker's optimizer budget, Scenario 1 retries)
        should use this.
        """
        return self._capacity - self.usage_at(time)

    def can_reserve(self, demand: ResourceVector, start: float,
                    end: float) -> bool:
        """Whether ``demand`` fits throughout ``[start, end)``."""
        if end <= start:
            return False
        return demand.fits_within(self.available(start, end))

    def overcommitment_at(self, time: float) -> ResourceVector:
        """Booked demand in excess of capacity at ``time`` (zero if none)."""
        return self.usage_at(time) - self._capacity

    def utilization_at(self, time: float) -> float:
        """CPU-component utilization in ``[0, 1]`` (0 if no CPU capacity)."""
        if self._capacity.cpu <= 0:
            return 0.0
        return min(1.0, self.usage_at(time).cpu / self._capacity.cpu)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def reserve(self, demand: ResourceVector, start: float, end: float, *,
                label: str = "", force: bool = False) -> SlotEntry:
        """Book ``demand`` over ``[start, end)``.

        Args:
            force: Book even when the table lacks headroom. The
                adaptation layer uses this when it has decided to
                overcommit knowingly (it immediately squeezes someone
                else); ordinary admission never forces.

        Raises:
            CapacityError: When the demand does not fit and ``force``
                is false.
        """
        if end <= start:
            raise CapacityError(
                f"empty reservation window [{start}, {end})")
        if not force and not self.can_reserve(demand, start, end):
            free = self.available(start, end)
            raise CapacityError(
                f"demand {demand} exceeds free capacity {free} over "
                f"[{start}, {end})")
        entry = SlotEntry(entry_id=next(self._entry_counter), demand=demand,
                          start=start, end=end, label=label)
        self._entries[entry.entry_id] = entry
        self._index_entry(entry)
        return entry

    def release(self, entry: SlotEntry) -> None:
        """Remove a booked entry.

        Raises:
            ReservationNotFound: When the entry is not in the table.
        """
        stored = self._entries.pop(entry.entry_id, None)
        if stored is None:
            raise ReservationNotFound(
                f"slot entry {entry.entry_id} is not booked")
        self._unindex_entry(stored)

    def resize(self, entry: SlotEntry, demand: ResourceVector, *,
               force: bool = False) -> SlotEntry:
        """Replace an entry's demand (GARA's *modify* primitive).

        The old booking is removed before the fit test, so shrinking
        always succeeds and growing only needs the delta.

        Raises:
            ReservationNotFound: When the entry is not in the table.
            CapacityError: When the new demand does not fit (the old
                booking is restored).
        """
        self.release(entry)
        try:
            return self.reserve(demand, entry.start, entry.end,
                                label=entry.label, force=force)
        except CapacityError:
            self._entries[entry.entry_id] = entry
            self._index_entry(entry)
            raise
