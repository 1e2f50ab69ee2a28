"""The compute resource manager (GRAM-like).

"A RM, in this context, is considered as a combination of the Globus
Resource Allocation Manager (GRAM) and a UDDI registry" (Section 2.1).
The registry half lives in :mod:`repro.registry`; this module is the
GRAM half: it owns a machine, exposes its sellable capacity through a
GARA instance, launches jobs that bind their reservations by PID, and
propagates node failures into the slot table so the broker's adaptation
can react.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional

from ..errors import ResourceError
from ..gara.api import GaraApi
from ..gara.reservation import ReservationHandle
from ..gara.slot_table import SlotTable
from ..probe import Probe
from ..qos.vector import ResourceVector
from ..sim.engine import Simulator
from ..sim.trace import TraceRecorder
from .dsrt import DsrtScheduler
from .machine import Machine

_job_counter = itertools.count(1)


class JobState(Enum):
    """Lifecycle of a launched Grid service process."""

    RUNNING = "running"
    COMPLETED = "completed"
    KILLED = "killed"


@dataclass
class Job:
    """A launched service process bound to a reservation."""

    job_id: int
    pid: int
    service_name: str
    handle: ReservationHandle
    state: JobState = JobState.RUNNING
    started_at: float = 0.0
    finished_at: Optional[float] = None


#: Listener called with the node delta on machine capacity changes.
CapacityChangeListener = Callable[[int], None]

#: Listener called with the job when it completes or is killed.
JobEndListener = Callable[[Job], None]


class ComputeResourceManager:
    """GRAM-like manager for one machine.

    Args:
        sim: Simulation engine.
        machine: The managed machine.
        trace: Optional activity recorder.
        confirm_timeout: GARA temporary-reservation confirmation window.
        probe: The testbed's instrumentation seam, for the GARA front.
    """

    def __init__(self, sim: Simulator, machine: Machine, *,
                 trace: Optional[TraceRecorder] = None,
                 confirm_timeout: float = 30.0,
                 probe: Optional[Probe] = None) -> None:
        self._sim = sim
        self.machine = machine
        self._trace = trace
        self._table = SlotTable(machine.grid_capacity())
        self.gara = GaraApi(sim, self._table,
                            name=f"gara.{machine.name}",
                            confirm_timeout=confirm_timeout, trace=trace,
                            probe=probe)
        self.dsrt = DsrtScheduler(node_count=machine.grid_nodes)
        self._jobs: Dict[int, Job] = {}
        #: handle.value -> job_id for RUNNING jobs; reservation_bind
        #: rejects double-binding, so at most one job runs per handle
        #: and ``running_job_for`` stays O(1) at any fleet size.
        self._running_by_handle: Dict[int, int] = {}
        self._pid_counter = itertools.count(10_000)
        self._capacity_listeners: List[CapacityChangeListener] = []
        self._job_end_listeners: List[JobEndListener] = []
        machine.subscribe(self._on_machine_change)

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def slot_table(self) -> SlotTable:
        """The advance-reservation table over this machine."""
        return self._table

    def capacity(self) -> ResourceVector:
        """Currently sellable capacity (tracks node failures)."""
        return self._table.capacity

    def available(self, start: float, end: float) -> ResourceVector:
        """Free capacity over a window (the Figure 2
        ``QueryComputationResources`` call)."""
        return self._table.available(start, end)

    def available_at(self, time: float) -> ResourceVector:
        """Instantaneous free capacity (O(log n) slot-table fast path).

        Replaces the ``available(now, now + 1e-9)`` pinhole-window
        idiom the sensors, optimizer and Scenario 1 retry loop used.
        """
        return self._table.available_at(time)

    def utilization(self) -> float:
        """Instantaneous CPU utilization in ``[0, 1]``."""
        return self._table.utilization_at(self._sim.now)

    def subscribe_capacity(self, listener: CapacityChangeListener) -> None:
        """Be notified (with the node delta) when capacity changes."""
        self._capacity_listeners.append(listener)

    def subscribe_job_end(self, listener: JobEndListener) -> None:
        """Be notified when a job completes or is killed."""
        self._job_end_listeners.append(listener)

    def _on_machine_change(self, machine: Machine, delta_nodes: int) -> None:
        self._table.set_capacity(machine.grid_capacity())
        if self._trace is not None:
            verb = "failed" if delta_nodes < 0 else "recovered"
            self._trace.record(
                self._sim.now, "compute",
                f"{machine.name}: {abs(delta_nodes)} node(s) {verb}; "
                f"grid capacity now {machine.available_grid_nodes()} nodes")
        for listener in list(self._capacity_listeners):
            listener(delta_nodes)

    # ------------------------------------------------------------------
    # Job launch (GRAM invokes the service; the process claims its
    # reservation with a GARA bind call — Section 3.1)
    # ------------------------------------------------------------------

    def launch(self, service_name: str, handle: ReservationHandle, *,
               duration: Optional[float] = None,
               dsrt_fraction: Optional[float] = None) -> Job:
        """Launch a service process against a committed reservation.

        The new process's PID is bound to the reservation. When
        ``duration`` is given the job self-completes after it; when
        ``dsrt_fraction`` is given the process gets a DSRT contract for
        that fraction of each of its nodes.
        """
        pid = next(self._pid_counter)
        self.gara.reservation_bind(handle, pid)
        reservation = self.gara.reservation_status(handle)
        job = Job(job_id=next(_job_counter), pid=pid,
                  service_name=service_name, handle=handle,
                  started_at=self._sim.now)
        self._jobs[job.job_id] = job
        self._running_by_handle[handle.value] = job.job_id
        if dsrt_fraction is not None:
            nodes = max(1, int(reservation.demand.cpu))
            self.dsrt.reserve(dsrt_fraction, nodes=nodes, pid=pid)
        if duration is not None:
            self._sim.schedule(duration, lambda: self._complete(job.job_id),
                               label=f"job:{job.job_id}:complete")
        self._record(f"launched {service_name!r} as pid {pid} "
                     f"(job {job.job_id}, reservation {handle})")
        return job

    def resize_job_contract(self, job: Job, cpu_nodes: float) -> None:
        """Align a running job's DSRT contract with a resized booking.

        Called when broker-level adaptation moves a session's
        delivered point: the GARA reservation was already resized, and
        without this the CPU scheduler keeps the launch-time contract
        forever — squeezed sessions then strand DSRT capacity that the
        slot table shows as free, until a later launch dies on a
        phantom :class:`~repro.errors.CapacityError`.
        """
        if job.state is not JobState.RUNNING:
            return
        try:
            self.dsrt.resize(job.pid, nodes=max(1, int(cpu_nodes)))
        except ResourceError:
            pass  # job runs without a DSRT contract

    def _complete(self, job_id: int) -> None:
        job = self._jobs.get(job_id)
        if job is None or job.state is not JobState.RUNNING:
            return
        job.state = JobState.COMPLETED
        job.finished_at = self._sim.now
        self._teardown(job)
        self._record(f"job {job.job_id} ({job.service_name!r}) completed")
        for listener in list(self._job_end_listeners):
            listener(job)

    def kill(self, job_id: int) -> None:
        """Terminate a running job (Scenario 1's last-resort squeeze)."""
        job = self._jobs.get(job_id)
        if job is None:
            raise ResourceError(f"unknown job {job_id}")
        if job.state is not JobState.RUNNING:
            return
        job.state = JobState.KILLED
        job.finished_at = self._sim.now
        self._teardown(job)
        self._record(f"job {job.job_id} ({job.service_name!r}) killed")
        for listener in list(self._job_end_listeners):
            listener(job)

    def _teardown(self, job: Job) -> None:
        if self._running_by_handle.get(job.handle.value) == job.job_id:
            del self._running_by_handle[job.handle.value]
        reservation = self.gara.reservation_status(job.handle)
        if reservation.state.is_live:
            self.gara.reservation_cancel(job.handle)
        try:
            self.dsrt.release(job.pid)
        except ResourceError:
            pass  # job ran without a DSRT contract

    def job(self, job_id: int) -> Job:
        """Look up a job by id."""
        found = self._jobs.get(job_id)
        if found is None:
            raise ResourceError(f"unknown job {job_id}")
        return found

    def running_jobs(self) -> List[Job]:
        """All jobs currently running."""
        return [job for job in self._jobs.values()
                if job.state is JobState.RUNNING]

    def running_job_for(self, handle: ReservationHandle) -> Optional[Job]:
        """The running job bound to a reservation, if any.

        Crash recovery adopts surviving jobs through this lookup
        instead of double-launching a second process against the same
        reservation.
        """
        job_id = self._running_by_handle.get(handle.value)
        if job_id is None:
            return None
        job = self._jobs[job_id]
        return job if job.state is JobState.RUNNING else None

    def _record(self, message: str) -> None:
        if self._trace is not None:
            self._trace.record(self._sim.now, "compute",
                               f"{self.machine.name}: {message}")
