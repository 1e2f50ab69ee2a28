"""The Reservation System (RS) inside the AQoS broker (Section 3.1).

The RS implements the paper's temporary-reservation protocol:

* during discovery, resources are reserved *temporarily*;
* the RS renders the SLA's resource demand as an RSL string and
  submits it to GARA;
* GARA cancels the reservation if no confirmation arrives within the
  deadline; otherwise the RS commits it;
* compute and network resources are co-allocated — a composite
  reservation either books everything (CPU/memory/disk via GARA,
  bandwidth via the NRM or the inter-domain coordinator) or nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..errors import CapacityError, NetworkError, ReservationError
from ..gara.reservation import ReservationHandle
from ..network.interdomain import EndToEndAllocation, InterDomainCoordinator
from ..network.nrm import FlowAllocation, NetworkResourceManager
from ..probe import Probe
from ..qos.vector import ResourceVector
from ..recovery.journal import MODIFY
from ..resources.compute import ComputeResourceManager
from ..rsl.builder import reservation_rsl
from ..sim.engine import Simulator
from ..sim.trace import TraceRecorder
from ..sla.document import NetworkDemand, ServiceSLA


NetworkBooking = Union[FlowAllocation, EndToEndAllocation]


def booking_flow_ids(booking: Optional[NetworkBooking]) -> "list[int]":
    """The NRM flow ids behind a network booking (journal payload)."""
    if booking is None:
        return []
    if isinstance(booking, EndToEndAllocation):
        return [flow.flow_id for _nrm, flow in booking.segments]
    return [booking.flow_id]


@dataclass
class CompositeReservation:
    """A co-allocated compute + network reservation for one SLA."""

    sla_id: int
    compute_handle: Optional[ReservationHandle] = None
    network_booking: Optional[NetworkBooking] = None
    confirmed: bool = False
    cancelled: bool = False

    def legs(self) -> "dict[str, object]":
        """The legs as journaled and snapshotted: ``handle``, the GARA
        handle value or ``None``, and ``flows``, the NRM flow ids."""
        handle = self.compute_handle
        return {"handle": handle.value if handle is not None else None,
                "flows": booking_flow_ids(self.network_booking)}


class ReservationSystem:
    """The RS: temporary reserve, confirm-or-cancel, co-allocation.

    Args:
        sim: Simulation engine.
        compute_rm: The compute resource manager (GARA behind it).
        nrm: Optional single-domain NRM for network demands.
        coordinator: Optional inter-domain coordinator; used instead of
            ``nrm`` when the SLA's endpoints span domains.
        trace: Optional activity recorder.
        probe: The testbed's instrumentation seam.
    """

    def __init__(self, sim: Simulator, compute_rm: ComputeResourceManager, *,
                 nrm: Optional[NetworkResourceManager] = None,
                 coordinator: Optional[InterDomainCoordinator] = None,
                 trace: Optional[TraceRecorder] = None,
                 probe: Optional[Probe] = None) -> None:
        self._sim = sim
        self._compute = compute_rm
        self._nrm = nrm
        self._coordinator = coordinator
        self._trace = trace
        self.probe = probe if probe is not None else Probe()

    # ------------------------------------------------------------------
    # Site resolution
    # ------------------------------------------------------------------

    def _resolve_sites(self, network: NetworkDemand) -> "tuple[str, str]":
        """Map the SLA's IP addresses onto topology site names."""
        topology = None
        if self._nrm is not None:
            topology = self._nrm._topology  # noqa: SLF001 — same package family
        elif self._coordinator is not None:
            topology = self._coordinator._topology  # noqa: SLF001
        if topology is None:
            raise NetworkError(
                "reservation system has no network manager configured")
        source = topology.site_by_address(network.source_ip)
        destination = topology.site_by_address(network.dest_ip)
        return source.name, destination.name

    def _allocate_network(self, network: NetworkDemand, start: float,
                          end: float) -> NetworkBooking:
        source, destination = self._resolve_sites(network)
        if self._coordinator is not None:
            return self._coordinator.allocate(
                source, destination, network.bandwidth_mbps, start, end)
        assert self._nrm is not None
        return self._nrm.allocate(source, destination,
                                  network.bandwidth_mbps, start, end)

    def _release_network(self, booking: NetworkBooking) -> None:
        if isinstance(booking, EndToEndAllocation):
            booking.release()
        else:
            assert self._nrm is not None
            self._nrm.release(booking)

    # ------------------------------------------------------------------
    # The RS protocol
    # ------------------------------------------------------------------

    def reserve(self, sla: ServiceSLA, *,
                demand: Optional[ResourceVector] = None
                ) -> CompositeReservation:
        """Temporarily reserve everything the SLA needs.

        Args:
            sla: The (proposed) SLA document.
            demand: Override for the compute demand; defaults to the
                SLA's agreed operating point demand (CPU/memory/disk
                components; bandwidth goes through the network side).

        Raises:
            CapacityError: When any leg cannot be booked (previous
                legs are rolled back).
        """
        with self.probe.span("reserve", "reservation-system",
                             sla_id=sla.sla_id):
            return self._reserve(sla, demand=demand)

    def _reserve(self, sla: ServiceSLA, *,
                 demand: Optional[ResourceVector] = None
                 ) -> CompositeReservation:
        if demand is None:
            demand = sla.agreed_demand()
        compute_demand = ResourceVector(cpu=demand.cpu,
                                        memory_mb=demand.memory_mb,
                                        disk_mb=demand.disk_mb)
        composite = CompositeReservation(sla_id=sla.sla_id)
        if not compute_demand.is_zero():
            rsl = reservation_rsl(compute_demand, sla.start, sla.end,
                                  service_name=sla.service_name)
            composite.compute_handle = self._compute.gara.reservation_create(rsl)
            self._record(sla, f"temporarily reserved compute "
                              f"{compute_demand} via RSL")
        if sla.network is not None:
            try:
                composite.network_booking = self._allocate_network(
                    sla.network, sla.start, sla.end)
            except (CapacityError, NetworkError):
                if composite.compute_handle is not None:
                    self._compute.gara.reservation_cancel(
                        composite.compute_handle)
                raise
            self._record(sla, f"reserved network "
                              f"{sla.network.bandwidth_mbps:g} Mbps "
                              f"{sla.network.source_ip} -> "
                              f"{sla.network.dest_ip}")
        return composite

    def confirm(self, composite: CompositeReservation) -> None:
        """Commit every leg of the composite (SLA approved).

        Must arrive before GARA's confirmation deadline, or the
        temporary reservation will already have been auto-cancelled.
        The network booking is marked committed too.

        Idempotent: a re-delivered confirm (retries and duplicated
        messages are a fact of life on a lossy control plane) is a
        no-op rather than an error, so at-least-once delivery can
        never double-commit.
        """
        with self.probe.span("confirm", "reservation-system",
                             sla_id=composite.sla_id):
            if composite.cancelled:
                raise ReservationError(
                    f"reservation for SLA {composite.sla_id} was cancelled")
            if composite.confirmed:
                return
            if composite.compute_handle is not None:
                self._compute.gara.reservation_commit(
                    composite.compute_handle)
            if composite.network_booking is not None:
                composite.network_booking.commit()
            composite.confirmed = True

    def cancel(self, composite: CompositeReservation) -> None:
        """Tear down every leg of the composite reservation.

        The ``cancelled`` flag is only set once *every* leg is
        released: each release is individually idempotent (a cancelled
        GARA reservation and an inactive flow are both skipped), so a
        cancel that fails mid-teardown can simply be retried — an
        early flag would turn the retry into a silent no-op and leak
        the network booking.
        """
        if composite.cancelled:
            return
        with self.probe.span("cancel", "reservation-system",
                             sla_id=composite.sla_id):
            if composite.compute_handle is not None:
                reservation = self._compute.gara.reservation_status(
                    composite.compute_handle)
                if reservation.state.is_live:
                    self._compute.gara.reservation_cancel(
                        composite.compute_handle)
            if composite.network_booking is not None:
                self._release_network(composite.network_booking)
            composite.cancelled = True

    def modify_compute(self, composite: CompositeReservation,
                       demand: ResourceVector, *, force: bool = False) -> None:
        """Resize the compute leg (adaptation's squeeze/upgrade path)."""
        if composite.compute_handle is None:
            raise ReservationError(
                f"SLA {composite.sla_id} has no compute reservation")
        with self.probe.span("modify", "reservation-system",
                             sla_id=composite.sla_id):
            self._compute.gara.reservation_modify(
                composite.compute_handle,
                ResourceVector(cpu=demand.cpu, memory_mb=demand.memory_mb,
                               disk_mb=demand.disk_mb),
                force=force)
            self.probe.append(MODIFY, sla_id=composite.sla_id, cpu=demand.cpu,
                              memory_mb=demand.memory_mb,
                              disk_mb=demand.disk_mb)

    def _record(self, sla: ServiceSLA, message: str) -> None:
        if self._trace is not None:
            self._trace.record(self._sim.now, "reservation",
                               f"RS[SLA {sla.sla_id}]: {message}")
