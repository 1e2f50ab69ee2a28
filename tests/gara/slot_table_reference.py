"""Reference slot-table implementation (the seed's event-point scan).

:class:`NaiveSlotTable` is the original O(n²)-per-query implementation
of the advance-reservation table: every :meth:`~NaiveSlotTable.usage_at`
walks the whole entry dict, every :meth:`~NaiveSlotTable.peak_usage`
re-samples usage at each event point inside the window. It is obviously
correct, which is exactly why it stays: the production
:class:`~repro.gara.slot_table.SlotTable` (sweep-line profile index)
is differentially tested against it on randomized mutation sequences
(``tests/gara/test_slot_table_index.py``) and benchmarked against it
(``benchmarks/bench_slot_table_scaling.py``). It lives with the tests,
outside the library.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

from repro.errors import CapacityError, ReservationNotFound
from repro.gara.slot_table import SlotEntry
from repro.qos.vector import ResourceVector

__all__ = ["NaiveSlotTable"]


class NaiveSlotTable:
    """Event-point-scan capacity accounting (differential-test oracle).

    Mirrors :class:`~repro.gara.slot_table.SlotTable`'s API and
    semantics exactly, including the per-table entry-id counter, so a
    mirrored operation sequence yields identical entry ids and —
    for binary-exact demands — bit-identical query results.
    """

    def __init__(self, capacity: ResourceVector) -> None:
        self._capacity = capacity
        self._entries: Dict[int, SlotEntry] = {}
        self._entry_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> ResourceVector:
        """The pool's total capacity."""
        return self._capacity

    def set_capacity(self, capacity: ResourceVector) -> None:
        """Change the pool capacity (entries are left in place)."""
        self._capacity = capacity

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[SlotEntry]:
        """All booked entries (a copy), ordered by start time."""
        return sorted(self._entries.values(), key=lambda e: (e.start, e.entry_id))

    def entries_at(self, time: float) -> List[SlotEntry]:
        """Entries whose window covers ``time``."""
        return [entry for entry in self.entries() if entry.active_at(time)]

    def usage_at(self, time: float) -> ResourceVector:
        """Total demand booked at an instant (full entry scan)."""
        total = ResourceVector.zero()
        for entry in self._entries.values():
            if entry.active_at(time):
                total = total + entry.demand
        return total

    def _event_points(self, start: float, end: float) -> List[float]:
        points = {start}
        for entry in self._entries.values():
            if start < entry.start < end:
                points.add(entry.start)
        return sorted(points)

    def peak_usage(self, start: float, end: float) -> ResourceVector:
        """Component-wise maximum booked demand over ``[start, end)``."""
        peak = ResourceVector.zero()
        for point in self._event_points(start, end):
            peak = peak.component_max(self.usage_at(point))
        return peak

    def available(self, start: float, end: float) -> ResourceVector:
        """Capacity not yet booked anywhere in ``[start, end)``."""
        return self._capacity - self.peak_usage(start, end)

    def available_at(self, time: float) -> ResourceVector:
        """Capacity not booked at an instant."""
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
        return entry

    def release(self, entry: SlotEntry) -> None:
        """Remove a booked entry.

        Raises:
            ReservationNotFound: When the entry is not in the table.
        """
        if entry.entry_id not in self._entries:
            raise ReservationNotFound(
                f"slot entry {entry.entry_id} is not booked")
        del self._entries[entry.entry_id]

    def resize(self, entry: SlotEntry, demand: ResourceVector, *,
               force: bool = False) -> SlotEntry:
        """Replace an entry's demand (GARA's *modify* primitive).

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
            raise
