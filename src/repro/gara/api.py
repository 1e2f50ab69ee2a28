"""The GARA API (Table 2 of the paper).

One :class:`GaraApi` instance fronts one resource manager's slot table
and exposes the primitives the paper lists::

    globus_gara_reservation_create(gatekeeper, req_rsl, &reserve_handle)
    globus_gara_reservation_bind(reserve_handle, &bind_param)
    globus_gara_reservation_unbind(reserve_handle)
    globus_gara_reservation_cancel(reserve_handle)

plus ``reservation_modify`` (used by Foster et al.'s adaptive control
and by our Scenario 1/3 adaptation to resize live allocations) and
``reservation_commit`` (the confirmation step of the paper's temporary
reservation protocol). Uncommitted reservations auto-cancel when the
confirmation deadline passes, exactly as Section 3.1 describes.

A reservation's timers die with the state they guard: commit retires
its confirm-timeout, cancel (or the timeout itself) its window-expiry
too, and expiry the confirm-timeout — none fires later as a no-op.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional

from ..errors import ReservationNotFound, ReservationStateError
from ..probe import Probe
from ..qos.vector import ResourceVector
from ..rsl.builder import vector_from_rsl
from ..sim.engine import Simulator
from ..sim.events import Event
from ..sim.trace import TraceRecorder
from .reservation import Reservation, ReservationHandle, ReservationState
from .slot_table import SlotTable

#: Default confirmation window for temporary reservations.
DEFAULT_CONFIRM_TIMEOUT = 30.0


class GaraApi:
    """GARA reservation primitives over one slot table.

    Args:
        sim: The simulation engine (drives confirmation timeouts and
            window expiry).
        slot_table: The resource pool this GARA instance manages.
        name: Gatekeeper name, for traces.
        confirm_timeout: How long a temporary reservation survives
            without confirmation.
        trace: Optional activity recorder.
        probe: The testbed's instrumentation seam.
    """

    def __init__(self, sim: Simulator, slot_table: SlotTable, *,
                 name: str = "gara",
                 confirm_timeout: float = DEFAULT_CONFIRM_TIMEOUT,
                 trace: Optional[TraceRecorder] = None,
                 probe: Optional[Probe] = None) -> None:
        self._sim = sim
        self._table = slot_table
        self.name = name
        self.confirm_timeout = confirm_timeout
        self._trace = trace
        self._reservations: Dict[int, Reservation] = {}
        #: Pending timers by handle value: the confirm-timeout of each
        #: temporary reservation and the window-expiry of each live one.
        self._confirm_timers: Dict[int, Event] = {}
        self._expiry_timers: Dict[int, Event] = {}
        # Per-gatekeeper handle numbering (like per-table slot-entry
        # ids): two testbeds built in one process assign identical
        # handles, so journal payloads are comparable across runs.
        self._handles = itertools.count(1000)
        self.probe = probe if probe is not None else Probe()

    def _observe(self, op: str) -> None:
        """Count one GARA operation and refresh the occupancy gauge."""
        probe = self.probe
        if probe.measuring:  # the gauge's value walks the slot table
            probe.count("repro_gara_operations_total",
                        gatekeeper=self.name, op=op)
            probe.gauge("repro_gara_cpu_reserved",
                        self._table.usage_at(self._sim.now).cpu,
                        gatekeeper=self.name)

    # ------------------------------------------------------------------
    # Table 2 primitives
    # ------------------------------------------------------------------

    def reservation_create(self, req_rsl: str, *,
                           temporary: bool = True) -> ReservationHandle:
        """Create a reservation from an RSL request string.

        Returns the reservation handle on success.

        Raises:
            CapacityError: When the demand does not fit in the window.
            RSLError: When the RSL string is malformed.
        """
        demand, start, end, label = vector_from_rsl(req_rsl)
        entry = self._table.reserve(demand, start, end, label=label or "")
        handle = ReservationHandle(next(self._handles))
        reservation = Reservation(
            handle=handle, entry=entry, rsl=req_rsl,
            created_at=self._sim.now,
            state=(ReservationState.TEMPORARY if temporary
                   else ReservationState.COMMITTED),
        )
        self._reservations[handle.value] = reservation
        if temporary:
            deadline = self._sim.now + self.confirm_timeout
            reservation.confirm_deadline = deadline
            self._confirm_timers[handle.value] = self._sim.schedule_at(
                deadline, lambda: self._confirm_timeout(handle),
                label=f"{self.name}:confirm-timeout:{handle}")
        self._schedule_expiry(reservation)
        self._observe("create")
        self._record(f"reservation_create {handle} demand={demand} "
                     f"window=[{start:g}, {end:g})")
        return handle

    def reservation_commit(self, handle: ReservationHandle) -> None:
        """Confirm a temporary reservation (the broker approved the SLA)."""
        reservation = self._get(handle)
        reservation.commit()
        self._retire(self._confirm_timers, handle)
        self._observe("commit")
        self._record(f"reservation_commit {handle}")

    def reservation_bind(self, handle: ReservationHandle, pid: int) -> None:
        """Claim a committed reservation with the launched process ID."""
        reservation = self._get(handle)
        reservation.bind(pid)
        self._observe("bind")
        self._record(f"reservation_bind {handle} pid={pid}")

    def reservation_unbind(self, handle: ReservationHandle) -> None:
        """Detach the bound process from its reservation."""
        reservation = self._get(handle)
        reservation.unbind()
        self._observe("unbind")
        self._record(f"reservation_unbind {handle}")

    def reservation_cancel(self, handle: ReservationHandle) -> None:
        """Cancel a live reservation and free its capacity."""
        reservation = self._get(handle)
        reservation.cancel()
        self._table.release(reservation.entry)
        self._retire(self._confirm_timers, handle)
        self._retire(self._expiry_timers, handle)
        self._observe("cancel")
        self._record(f"reservation_cancel {handle}")

    def reservation_modify(self, handle: ReservationHandle,
                           demand: ResourceVector, *,
                           force: bool = False) -> None:
        """Resize a live reservation in place (GARA create/modify).

        Raises:
            CapacityError: When the new demand does not fit and
                ``force`` is false; the old booking is preserved.
        """
        reservation = self._get(handle)
        if not reservation.state.is_live:
            raise ReservationStateError(
                f"cannot modify {handle}: state={reservation.state.value}")
        reservation.entry = self._table.resize(reservation.entry, demand,
                                               force=force)
        self._observe("modify")
        self._record(f"reservation_modify {handle} demand={demand}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def reservation_status(self, handle: ReservationHandle) -> Reservation:
        """The live reservation object for a handle."""
        return self._get(handle)

    def live_reservations(self) -> List[Reservation]:
        """All reservations still holding capacity."""
        return [r for r in self._reservations.values() if r.state.is_live]

    @property
    def slot_table(self) -> SlotTable:
        """The managed slot table."""
        return self._table

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _get(self, handle: ReservationHandle) -> Reservation:
        reservation = self._reservations.get(handle.value)
        if reservation is None:
            raise ReservationNotFound(f"unknown reservation handle {handle}")
        return reservation

    def _retire(self, timers: Dict[int, Event],
                handle: ReservationHandle) -> None:
        """Cancel ``handle``'s pending timer in ``timers``, if any."""
        event = timers.pop(handle.value, None)
        if event is not None:
            self._sim.cancel(event)

    def _confirm_timeout(self, handle: ReservationHandle) -> None:
        del self._confirm_timers[handle.value]
        reservation = self._reservations[handle.value]
        reservation.cancel()
        self._table.release(reservation.entry)
        self._retire(self._expiry_timers, handle)
        self._observe("confirm_timeout")
        self._record(f"confirmation timeout — cancelled {handle}")

    def _schedule_expiry(self, reservation: Reservation) -> None:
        end = reservation.entry.end
        if math.isinf(end):
            return
        handle = reservation.handle

        def expire() -> None:
            del self._expiry_timers[handle.value]
            live = self._reservations[handle.value]
            live.expire()
            self._table.release(live.entry)
            self._retire(self._confirm_timers, handle)
            self._observe("expire")
            self._record(f"reservation expired {handle}")

        self._expiry_timers[handle.value] = self._sim.schedule_at(
            end, expire, label=f"{self.name}:expiry:{handle}")

    def _record(self, message: str) -> None:
        if self._trace is not None:
            self._trace.record(self._sim.now, "gara",
                               f"{self.name}: {message}")
