"""Broker restart: journal replay plus a reconciliation sweep.

A crash of the AQoS broker loses everything it holds only in memory —
the SLA repository, the allocation manager's sessions, the capacity
partition's holdings, the verifier's session bindings — while the
*authoritative* resource state survives in the GARA slot tables, the
NRM flow tables, the machine, and the launched jobs.  :func:`recover`
rebuilds the volatile half from the write-ahead journal (optionally
shortened by a snapshot) — the SLA documents, their statuses and the
legs each live SLA was established with — and then reconciles it
against the surviving authoritative half:

* each live SLA is resolved by GARA's and the NRM's actual state: a
  ``temporary`` GARA reservation is re-committed, a lost compute leg
  or flow rolls the SLA back, and otherwise its session is restored;
* authoritative bookings owned by no restored session — a reserve
  the crash cut short, a cancel it interrupted, the leftovers of a
  closed SLA — are swept and released;
* every outcome lands in the ``repro_recovery_*`` telemetry counters
  and a deterministic :class:`RecoveryReport`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import AdmissionError, RecoveryError, ReservationNotFound
from ..gara.reservation import ReservationHandle, ReservationState
from ..network.interdomain import EndToEndAllocation
from ..sla.document import ServiceSLA, SlaStatus
from ..sla.lifecycle import QoSSession
from ..sla.repository import SLARepository
from .journal import (
    BEST_EFFORT_SET,
    FileJournalStore,
    Journal,
    RECOVERED,
    SLA_SAVED,
)
from .snapshot import Snapshot


@dataclass
class CompositeView:
    """The legs one SLA was established with: its GARA handle value
    and its NRM flow ids."""

    sla_id: int
    handle: Optional[int] = None
    flows: List[int] = field(default_factory=list)


@dataclass
class ReplayView:
    """Journal history (plus optional snapshot) folded into state."""

    repository: SLARepository
    composites: "Dict[int, CompositeView]"
    best_effort: "Dict[str, float]"
    replayed: int
    snapshot_lsn: int


@dataclass
class RecoveryReport:
    """Deterministic summary of one recovery pass."""

    time: float
    replayed_records: int
    snapshot_lsn: int
    slas_restored: int = 0
    slas_rolled_back: int = 0
    orphans_cancelled: int = 0
    flows_released: int = 0
    notes: "List[str]" = field(default_factory=list)

    def render(self) -> str:
        """A stable multi-line report for the CLI and tests."""
        lines = [
            "=== recovery report ===",
            f"time: {self.time:g}",
            f"journal records replayed: {self.replayed_records} "
            f"(snapshot lsn {self.snapshot_lsn})",
            f"SLAs restored: {self.slas_restored}",
            f"SLAs rolled back: {self.slas_rolled_back}",
            f"orphan composites cancelled: {self.orphans_cancelled}",
            f"network flows released: {self.flows_released}",
        ]
        lines.extend(self.notes)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Journal installation
# ----------------------------------------------------------------------

def _set_journal(testbed, journal: Optional[Journal]) -> None:
    """Put ``journal`` behind every write point (``None`` mutes them
    all, for rebuilding state that must not re-journal history)."""
    testbed.probe.journal = journal


def install_journal(testbed, store=None) -> Journal:
    """Put a write-ahead journal behind a testbed's probe.

    The journal's clock is the simulation clock; ``store`` defaults to
    an in-memory store (pass a
    :class:`~repro.recovery.journal.FileJournalStore` for the CLI's
    cold-restart path).  Idempotent: a second call returns the
    installed journal.
    """
    if testbed.journal is not None:
        return testbed.journal
    sim = testbed.sim
    # Bind the ``now`` property's getter directly instead of a lambda:
    # one fewer frame per append on the admission hot path.
    journal = Journal(store, now=type(sim).now.fget.__get__(sim))
    _set_journal(testbed, journal)
    return journal


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------

def _replay_sla(repository: SLARepository,
                payload: "Dict[str, object]") -> ServiceSLA:
    """Apply one ``sla_saved`` record: a record with XML replaces the
    document, a status-only one updates the document already held."""
    if "xml" in payload:
        from ..xmlmsg.codec import decode_service_sla
        from ..xmlmsg.document import parse_xml
        sla = decode_service_sla(parse_xml(str(payload["xml"])))
    else:
        sla = repository.get(int(payload["sla_id"]))
    status = SlaStatus(str(payload["status"]))
    # The journaled status, set before the save, so the repository's
    # open index sees it.
    sla.status = status  # qlint: disable=QLNT107 -- persisted
    return repository.save(sla)


def build_replay_view(journal: Journal, *,
                      snapshot: Optional[Snapshot] = None) -> ReplayView:
    """Fold the journal (from a snapshot, when given) into state.

    Only records with an LSN above the snapshot's are replayed —
    snapshot plus tail replay, never full replay on top of a snapshot.
    """
    if snapshot is not None:
        repository = SLARepository.from_xml(snapshot.repository_xml)
        composites = {
            int(entry["sla_id"]): CompositeView(
                sla_id=int(entry["sla_id"]),
                handle=(int(entry["handle"])
                        if entry.get("handle") is not None else None),
                flows=[int(f) for f in entry.get("flows", [])])
            for entry in snapshot.composites}
        best_effort = {
            str(holding["user"]): float(holding["demand"])
            for holding in snapshot.partition.get("best_effort", [])}
        floor = snapshot.lsn
    else:
        repository = SLARepository()
        composites = {}
        best_effort = {}
        floor = 0
    highest = max([sla.sla_id for sla in repository.all()], default=999)
    replayed = 0
    for record in journal.records():
        if record.lsn <= floor:
            continue
        replayed += 1
        payload = record.payload
        if record.type == SLA_SAVED:
            sla_id = _replay_sla(repository, payload).sla_id
            highest = max(highest, sla_id)
            if "flows" in payload:
                handle = payload["handle"]
                composites[sla_id] = CompositeView(
                    sla_id=sla_id,
                    handle=int(handle) if handle is not None else None,
                    flows=[int(f) for f in payload["flows"]])
        elif record.type == BEST_EFFORT_SET:
            user = str(payload["user"])
            demand = float(payload["demand"])
            if demand <= 0:
                best_effort.pop(user, None)
            else:
                best_effort[user] = demand
        # modify / capacity_rebalanced / violation / restoration /
        # recovered / delegation records are not folded here: GARA,
        # the machine and the verifier's next poll are authoritative
        # for the first five, federation reconciliation reads the rest.
    repository.resume_ids(highest)
    return ReplayView(repository=repository, composites=composites,
                      best_effort=best_effort, replayed=replayed,
                      snapshot_lsn=floor)


def summarize_journal(journal_path: str) -> str:
    """Cold-restart summary of an on-disk journal (``repro recover``).

    Replays the journal without a testbed and reports what a recovery
    pass would start from: the SLA documents and statuses, the legs
    each live SLA was established with, and best-effort demands.
    """
    journal = Journal(FileJournalStore(journal_path))
    view = build_replay_view(journal)
    by_type = Counter(record.type for record in journal.records())

    lines: List[str] = []
    lines.append(f"journal {journal_path}: {journal.last_lsn} durable "
                 f"record(s)")
    lines.append("-" * 70)
    for record_type in sorted(by_type):
        lines.append(f"  {record_type}: {by_type[record_type]}")
    lines.append("")
    lines.append(f"replayed state ({view.replayed} record(s) folded)")
    lines.append("-" * 70)
    for sla in view.repository.all():
        lines.append(f"  SLA {sla.sla_id} ({sla.client!r}): "
                     f"{sla.status.value}")
    for sla in view.repository.live():
        legs = view.composites.get(sla.sla_id, CompositeView(sla.sla_id))
        lines.append(f"  legs of SLA {sla.sla_id}: handle={legs.handle}, "
                     f"flows={legs.flows}")
    for user in view.best_effort:
        lines.append(f"  best-effort {user!r}: "
                     f"{view.best_effort[user]:g} node(s)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Reconciliation helpers
# ----------------------------------------------------------------------

def _all_nrms(broker) -> "List[object]":
    nrms: "List[object]" = []
    if broker.nrm is not None:
        nrms.append(broker.nrm)
    if broker.coordinator is not None:
        for nrm in broker.coordinator.nrms():
            if nrm not in nrms:
                nrms.append(nrm)
    return nrms


def _surviving_flows(broker, flow_ids: "List[int]"
                     ) -> "Tuple[List[Tuple[object, object]], List[int]]":
    """Split journaled flow ids into (nrm, flow) survivors and missing."""
    pairs: "List[Tuple[object, object]]" = []
    missing: "List[int]" = []
    for flow_id in flow_ids:
        found = None
        owner = None
        for nrm in _all_nrms(broker):
            flow = nrm.flow(flow_id)
            if flow is not None:
                found, owner = flow, nrm
                break
        if found is None:
            missing.append(flow_id)
        else:
            pairs.append((owner, found))
    return pairs, missing


def _rebuild_booking(broker, pairs):
    """Reconstruct the composite's network booking from live flows."""
    if not pairs:
        return None
    if broker.coordinator is not None:
        return EndToEndAllocation(
            source=pairs[0][1].source,
            destination=pairs[-1][1].destination,
            bandwidth_mbps=pairs[0][1].bandwidth_mbps,
            segments=[(nrm, flow) for nrm, flow in pairs])
    return pairs[0][1]


def _gara_state(broker, handle: Optional[ReservationHandle]
                ) -> Optional[ReservationState]:
    if handle is None:
        return None
    try:
        return broker.compute_rm.gara.reservation_status(handle).state
    except ReservationNotFound:
        return None


def _rollback_sla(testbed, sla: ServiceSLA, view: CompositeView, pairs,
                  report: RecoveryReport, rollbacks: "List[ServiceSLA]",
                  reason: str) -> None:
    """A live SLA whose composite is broken: tear everything down."""
    broker = testbed.broker
    if view.handle is not None:
        handle = ReservationHandle(view.handle)
        job = broker.compute_rm.running_job_for(handle)
        if job is not None:
            broker.compute_rm.kill(job.job_id)
        state = _gara_state(broker, handle)
        if state is not None and state.is_live:
            broker.compute_rm.gara.reservation_cancel(handle)
    for nrm, flow in pairs:
        nrm.release(flow)
        report.flows_released += 1
    sla.terminate()
    rollbacks.append(sla)
    report.slas_rolled_back += 1
    report.notes.append(f"SLA {sla.sla_id}: rolled back ({reason})")


def _restore_session(testbed, sla: ServiceSLA, composite,
                     state: Optional[ReservationState],
                     report: RecoveryReport, rollbacks: "List[ServiceSLA]",
                     activate_now: "List[int]", expire_now: "List[int]"
                     ) -> None:
    """Re-open the allocation/session book-keeping for a live SLA."""
    from ..core.broker import (  # noqa: SLF001 — same package family
        _SessionComputeSensor,
        _SessionNetworkSensor,
    )
    broker = testbed.broker
    sim = testbed.sim
    sla_id = sla.sla_id
    session = QoSSession(session_id=sla_id)
    resources = broker.allocation.open_session(sla_id, session)
    resources.reservation = composite

    if sla.status is SlaStatus.ACTIVE:
        committed = (sla.floor_demand().cpu if sla.service_class.adjustable
                     else sla.agreed_demand().cpu)
        user_key = broker._user_key(sla_id)  # noqa: SLF001
        if committed > 0:
            try:
                broker.engine.admit_guaranteed(user_key, committed)
            except AdmissionError as error:
                broker.allocation.close_session(sla_id)
                _rollback_sla(testbed, sla, CompositeView(sla_id=sla_id),
                              [], report, rollbacks,
                              f"re-admission failed: {error}")
                return
        session.enter_active()
        if committed > 0:
            broker.engine.allocate_guaranteed_resource(
                user_key, sla.delivered_demand().cpu)
        if composite.compute_handle is not None:
            job = broker.compute_rm.running_job_for(composite.compute_handle)
            if (job is None and state is ReservationState.COMMITTED
                    and sla.end > sim.now + 1e-9):
                job = broker.compute_rm.launch(
                    sla.service_name, composite.compute_handle,
                    duration=sla.end - sim.now, dsrt_fraction=0.8)
            resources.job = job
        compute_sensor = _SessionComputeSensor(
            f"session/{sla_id}/compute", sim, broker, sla_id)
        broker.verifier.attach_sensor(sla_id, compute_sensor)
        resources.sensor_names.append(compute_sensor.name)
        if composite.network_booking is not None:
            network_sensor = _SessionNetworkSensor(
                f"session/{sla_id}/network", sim, broker, sla_id)
            broker.verifier.attach_sensor(sla_id, network_sensor)
            resources.sensor_names.append(network_sensor.name)
        # The ledger survives the crash; only a session that crashed
        # between activation and its first accrual needs (re)opening.
        if broker.ledger.account(sla_id).open_since is None:
            broker.ledger.session_started(sla_id, sim.now, sla.price_rate)
        report.notes.append(f"SLA {sla_id}: restored (active)")
    else:  # ESTABLISHED — activation has not happened (or re-happens)
        if sla.start > sim.now + 1e-9:
            sim.schedule_at(
                sla.start,
                lambda sla_id=sla_id: broker._activate_session(  # noqa: SLF001
                    sla_id),
                label=f"sla:{sla_id}:activate")
            report.notes.append(f"SLA {sla_id}: restored "
                                f"(activation re-scheduled)")
        else:
            activate_now.append(sla_id)
            report.notes.append(f"SLA {sla_id}: restored "
                                f"(activation re-run)")
    report.slas_restored += 1

    if sla.end > sim.now + 1e-9:
        sim.schedule_at(
            sla.end,
            lambda sla_id=sla_id: broker._on_window_end(  # noqa: SLF001
                sla_id),
            label=f"sla:{sla_id}:window-end")
    else:
        expire_now.append(sla_id)


def _reconcile_composite(testbed, sla: ServiceSLA, view: CompositeView,
                         report: RecoveryReport, *,
                         rollbacks: "List[ServiceSLA]",
                         activate_now: "List[int]",
                         expire_now: "List[int]") -> None:
    """Resolve one live SLA against GARA and the NRM."""
    broker = testbed.broker
    pairs, missing = _surviving_flows(broker, view.flows)
    handle = (ReservationHandle(view.handle)
              if view.handle is not None else None)
    state = _gara_state(broker, handle)
    if handle is not None and (state is None or not state.is_live):
        _rollback_sla(testbed, sla, view, pairs, report, rollbacks,
                      "compute leg lost")
        return
    if missing:
        _rollback_sla(testbed, sla, view, pairs, report, rollbacks,
                      "network leg lost")
        return

    if state is ReservationState.TEMPORARY:
        # Crash between GARA create and the broker's confirm: the SLA
        # is established, so finish the commit before the deadline
        # cancels it out from under the session.
        broker.compute_rm.gara.reservation_commit(handle)
    booking = _rebuild_booking(broker, pairs)
    if booking is not None:
        booking.commit()
    from ..core.reservation_system import CompositeReservation
    composite = CompositeReservation(sla_id=view.sla_id,
                                     compute_handle=handle,
                                     network_booking=booking,
                                     confirmed=True)
    _restore_session(testbed, sla, composite,
                     _gara_state(broker, handle), report, rollbacks,
                     activate_now, expire_now)


def _sweep_unowned(testbed, report: RecoveryReport) -> None:
    """Release authoritative bookings no recovered session owns.

    This closes the mutation-before-journal crash window — a GARA
    reservation or NRM flow created an instant before its SLA's record
    was appended belongs to nobody after replay — and releases what a
    closed or rolled-back SLA still held.
    """
    broker = testbed.broker
    owned = broker.allocation.owners()
    for job in list(broker.compute_rm.running_jobs()):
        if ("reservation", job.handle.value) not in owned:
            broker.compute_rm.kill(job.job_id)
            report.orphans_cancelled += 1
    for reservation in list(broker.compute_rm.gara.live_reservations()):
        if ("reservation", reservation.handle.value) not in owned:
            broker.compute_rm.gara.reservation_cancel(reservation.handle)
            report.orphans_cancelled += 1
    for nrm in _all_nrms(broker):
        for flow in list(nrm.flows()):
            if ("flow", flow.flow_id) not in owned:
                nrm.release(flow)
                report.flows_released += 1


def _wipe_volatile_state(testbed) -> None:
    broker = testbed.broker
    broker.allocation.reset()
    broker.verifier.reset_sessions()
    broker._closing.clear()  # noqa: SLF001 — same package family
    broker.partition.clear_holdings()


def _restore_partition_failure(testbed) -> None:
    """Re-derive lost capacity from the machine (authoritative)."""
    partition = testbed.broker.partition
    partition.apply_repair()
    lost = max(0.0, partition.total - testbed.machine.grid_capacity().cpu)
    if lost > 0:
        partition.apply_failure(lost)


# ----------------------------------------------------------------------
# The entry point
# ----------------------------------------------------------------------

def recover(testbed, *, journal: Optional[Journal] = None,
            snapshot: Optional[Snapshot] = None) -> RecoveryReport:
    """Rebuild a crashed broker's state and reconcile it.

    Args:
        testbed: The testbed whose broker restarts.  Authoritative
            state (GARA, NRMs, machine, jobs, simulator) is read, the
            broker-volatile half is rebuilt in place.
        journal: The write-ahead journal to replay; defaults to the
            installed one.
        snapshot: Optional checkpoint to start from; defaults to the
            snapshot keeper's latest when periodic snapshots run.

    Raises:
        RecoveryError: When no journal is available.
    """
    broker = testbed.broker
    if journal is None:
        journal = testbed.journal
    if journal is None:
        raise RecoveryError(
            "recover() needs a journal: pass one, or run "
            "install_journal(testbed) before the workload")
    if snapshot is None and testbed.snapshots is not None:
        snapshot = testbed.snapshots.latest

    view = build_replay_view(journal, snapshot=snapshot)
    report = RecoveryReport(time=testbed.sim.now,
                            replayed_records=view.replayed,
                            snapshot_lsn=view.snapshot_lsn)
    rollbacks: "List[ServiceSLA]" = []
    activate_now: "List[int]" = []
    expire_now: "List[int]" = []

    # Rebuild silently: reconstruction must not re-journal history.
    _set_journal(testbed, None)
    try:
        _wipe_volatile_state(testbed)
        broker.repository.restore(view.repository)
        _restore_partition_failure(testbed)
        # Restore every holding inside the deferred window batch
        # admission uses: one water-fill for the whole live set.
        broker.partition.defer_rebalances()
        try:
            for user, demand in view.best_effort.items():
                broker.partition.set_best_effort_demand(user, demand)
            for sla in list(broker.repository.live()):
                legs = view.composites.get(sla.sla_id)
                if legs is None:
                    # No journaled legs (the journal does not reach
                    # back to its establishment): it cannot be trusted.
                    sla.terminate()
                    rollbacks.append(sla)
                    report.slas_rolled_back += 1
                    report.notes.append(f"SLA {sla.sla_id}: rolled back "
                                        f"(no reservation history)")
                    continue
                _reconcile_composite(testbed, sla, legs, report,
                                     rollbacks=rollbacks,
                                     activate_now=activate_now,
                                     expire_now=expire_now)
            _sweep_unowned(testbed, report)
        finally:
            broker.partition.resume_rebalances()
    finally:
        _set_journal(testbed, journal)
    journal.resync()

    # The rolled-back statuses: the journal must describe the reconciled
    # state so a second crash recovers from here, not from history.
    for sla in rollbacks:
        broker._journal_sla(sla)  # noqa: SLF001 — same package family
    # Past-due transitions re-run with the journal attached, so their
    # own write points record normally.
    for sla_id in activate_now:
        broker._activate_session(sla_id)  # noqa: SLF001
    for sla_id in expire_now:
        broker._on_window_end(sla_id)  # noqa: SLF001

    metrics = broker.metrics
    # The active-sessions gauge is maintained incrementally on the
    # admission path; replay restores ACTIVE sessions without passing
    # through the activation hook, so re-seed it absolutely here.
    metrics.gauge("repro_sla_active_sessions").set(
        float(len(broker.repository.active())))
    metrics.counter("repro_recovery_runs_total").inc()
    metrics.counter("repro_recovery_slas_restored").inc(
        float(report.slas_restored))
    metrics.counter("repro_recovery_slas_rolled_back").inc(
        float(report.slas_rolled_back))
    metrics.counter("repro_recovery_orphans_cancelled").inc(
        float(report.orphans_cancelled))
    metrics.counter("repro_recovery_flows_released").inc(
        float(report.flows_released))
    journal.append(RECOVERED,
                   replayed=report.replayed_records,
                   snapshot_lsn=report.snapshot_lsn,
                   slas_restored=report.slas_restored,
                   slas_rolled_back=report.slas_rolled_back,
                   orphans_cancelled=report.orphans_cancelled,
                   flows_released=report.flows_released)
    broker.record(f"recovery: {report.slas_restored} restored, "
                  f"{report.slas_rolled_back} rolled back, "
                  f"{report.orphans_cancelled} orphan(s) cancelled")
    return report
