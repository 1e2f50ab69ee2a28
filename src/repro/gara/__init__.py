"""GARA — the reservation substrate (reimplemented).

The paper's broker sits on the Globus Architecture for Reservation and
Allocation: reservations are created from RSL strings, return a
*reservation handle*, must be *claimed* by binding a process ID, and
can be cancelled or modified (Table 2). This package reimplements that
contract over an advance-reservation slot table:

* :mod:`repro.gara.slot_table` — time-indexed capacity accounting
  (sweep-line usage-profile index; O(log n) point queries).
* :mod:`repro.gara.reservation` — reservation objects and their state
  machine (temporary → committed → bound → finished).
* :mod:`repro.gara.api` — the ``globus_gara_reservation_*`` primitives.
"""

from .api import GaraApi
from .reservation import Reservation, ReservationHandle, ReservationState
from .slot_table import SlotEntry, SlotTable

__all__ = [
    "GaraApi",
    "Reservation",
    "ReservationHandle",
    "ReservationState",
    "SlotEntry",
    "SlotTable",
]
