"""Crash-at-every-journal-write-point harness.

The chaos layer (PR 3) perturbs the *transport*; this module perturbs
the *broker process*: a :class:`CrashingJournalStore` kills the broker
at a chosen journal write point (before or after the record becomes
durable), :func:`crash` wipes everything the process held only in
memory, and :func:`repro.recovery.recover.recover` rebuilds it.
:func:`sweep_crash_points` drives one scripted episode and replays it
with a crash at *every* write point in turn, checking after each
recovery that the system-wide invariants hold:

* capacity conservation — ``Cg + Ca + Cb == C - failed``;
* commitments within the guaranteed partition;
* the GARA slot table holds exactly the live reservations' entries
  (no double-booked and no leaked slots), and its indexed usage
  matches a naive recount over those entries;
* every active NRM flow is owned by exactly one recovered session;
* SLA atomicity — every live SLA is fully live (session, confirmed
  composite, live GARA state) and every dead SLA holds nothing.

Everything is a function of the seeds and the crash point, so a crash
run is as replayable as a chaos run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..errors import BrokerCrash, RecoveryError
from ..gara.reservation import ReservationState
from ..qos.classes import ServiceClass
from ..qos.parameters import Dimension, exact_parameter, range_parameter
from ..qos.specification import QoSSpecification
from ..sla.document import NetworkDemand, SlaStatus
from ..sla.repository import SLARepository
from ..units import parse_bound
from .journal import JournalStore, MemoryJournalStore
from .recover import RecoveryReport, _set_journal, install_journal, recover
from .snapshot import start_snapshots

#: Crash placement relative to the journal append.
CRASH_MODES = ("before", "after")

#: Simulation horizon of the scripted episode.
EPISODE_HORIZON = 120.0


class CrashingJournalStore(JournalStore):
    """A journal store that kills the broker at the Nth append.

    ``mode="before"`` loses the record (a torn write: the
    authoritative mutation that preceded the append survives, the
    journal never hears of it); ``mode="after"`` persists the record
    and dies immediately after.  The store disarms once it has fired,
    so post-recovery appends go through.
    """

    def __init__(self, *, crash_lsn: int = 0, mode: str = "before",
                 inner: Optional[JournalStore] = None) -> None:
        if mode not in CRASH_MODES:
            raise RecoveryError(
                f"crash mode must be one of {CRASH_MODES}: {mode!r}")
        if crash_lsn < 0:
            raise RecoveryError(f"crash_lsn must be >= 0: {crash_lsn}")
        self.inner = inner if inner is not None else MemoryJournalStore()
        self.crash_lsn = crash_lsn
        self.mode = mode
        self.appends = 0
        self.fired = False

    def append(self, data: bytes) -> None:
        self.appends += 1
        if (not self.fired and self.crash_lsn
                and self.appends == self.crash_lsn):
            self.fired = True
            if self.mode == "after":
                self.inner.append(data)
            raise BrokerCrash(
                f"broker killed at journal write point {self.crash_lsn} "
                f"({self.mode} the append became durable)")
        self.inner.append(data)

    def records(self) -> "Iterator[bytes]":
        return self.inner.records()


def crash(testbed) -> None:
    """Kill the broker process: its in-memory state is gone.

    Authoritative state — the GARA slot table and reservations, the
    NRM flow tables, the machine, launched jobs, the accounting
    ledger, the simulator's event queue and the journal's durable
    store — belongs to other processes and survives untouched.
    """
    broker = testbed.broker
    journal = testbed.journal
    _set_journal(testbed, None)
    try:
        broker.repository.restore(SLARepository())
        broker.allocation.reset()
        broker.verifier.reset_sessions()
        broker._closing.clear()  # noqa: SLF001 — same package family
        broker.partition.clear_holdings()
    finally:
        _set_journal(testbed, journal)


# ----------------------------------------------------------------------
# The scripted episode (touches every journal record type)
# ----------------------------------------------------------------------

def _guaranteed_request(client: str):
    from ..sla.negotiation import ServiceRequest
    return ServiceRequest(
        client=client, service_name="simulation-service",
        service_class=ServiceClass.GUARANTEED,
        specification=QoSSpecification.of(
            exact_parameter(Dimension.CPU, 4),
            exact_parameter(Dimension.MEMORY_MB, 64)),
        start=1.0, end=100.0,
        network=NetworkDemand(
            source_ip="135.200.50.101", dest_ip="192.200.168.33",
            bandwidth_mbps=10.0,
            packet_loss_bound=parse_bound("LessThan 10%")))


def _controlled_load_request(client: str):
    from ..sla.negotiation import ServiceRequest
    return ServiceRequest(
        client=client, service_name="visualization-service",
        service_class=ServiceClass.CONTROLLED_LOAD,
        specification=QoSSpecification.of(
            range_parameter(Dimension.CPU, 2, 6),
            range_parameter(Dimension.MEMORY_MB, 32, 128)),
        start=5.0, end=80.0)


def _advance_request(client: str):
    from ..sla.negotiation import ServiceRequest
    return ServiceRequest(
        client=client, service_name="data-transfer-service",
        service_class=ServiceClass.GUARANTEED,
        specification=QoSSpecification.of(
            exact_parameter(Dimension.CPU, 3)),
        start=50.0, end=90.0)


def schedule_episode(testbed) -> None:
    """Script the crash episode's workload onto the simulator.

    A guaranteed session with a network leg, a controlled-load session
    the adaptation layer can squeeze, an advance reservation that
    activates mid-run, a time-boxed best-effort demand, and a node
    failure/repair pair — together they drive every journal record
    type, so a crash sweep over this episode covers every write point
    the control plane has.
    """
    broker = testbed.broker
    sim = testbed.sim
    broker.verifier.start_polling(5.0)
    sim.schedule_at(
        1.0, lambda: broker.request_service(_guaranteed_request("user1")),
        label="episode:guaranteed")
    sim.schedule_at(
        2.0, lambda: broker.request_best_effort("batch", 2.0,
                                                duration=40.0),
        label="episode:best-effort")
    sim.schedule_at(
        5.0,
        lambda: broker.request_service(_controlled_load_request("user2")),
        label="episode:controlled-load")
    sim.schedule_at(
        8.0, lambda: broker.request_service(_advance_request("user3")),
        label="episode:advance")
    # 14 of 26 grid nodes: deep enough to force the adaptation layer
    # to squeeze (``modify`` records) and the verifier to see the
    # degradation (``violation``/``restoration`` records).
    sim.schedule_at(30.0, lambda: testbed.machine.fail_nodes(14),
                    label="episode:node-failure")
    sim.schedule_at(60.0, lambda: testbed.machine.repair_nodes(),
                    label="episode:node-repair")


@dataclass
class EpisodeResult:
    """One crash-episode run (or the no-crash baseline)."""

    testbed: object
    crashed: bool
    crash_lsn: Optional[int]
    mode: str
    report: Optional[RecoveryReport]

    @property
    def journal(self):
        return self.testbed.journal


def run_episode(*, crash_lsn: Optional[int] = None, mode: str = "before",
                seed: int = 0,
                snapshot_interval: float = 0.0) -> EpisodeResult:
    """Run the scripted episode, optionally crashing and recovering.

    With ``crash_lsn`` set, the broker dies at that journal write
    point (``mode`` places the death before or after the record is
    durable), is wiped with :func:`crash`, recovered with
    :func:`~repro.recovery.recover.recover`, and the episode then runs
    to its horizon.
    """
    from ..core.testbed import build_testbed
    testbed = build_testbed(seed=seed)
    store = CrashingJournalStore(crash_lsn=crash_lsn or 0, mode=mode)
    install_journal(testbed, store)
    if snapshot_interval > 0:
        start_snapshots(testbed, snapshot_interval)
    schedule_episode(testbed)
    crashed = False
    report: Optional[RecoveryReport] = None
    try:
        testbed.sim.run(until=EPISODE_HORIZON)
    except BrokerCrash:
        crashed = True
        crash(testbed)
        report = recover(testbed)
        testbed.sim.run(until=EPISODE_HORIZON)
    return EpisodeResult(testbed=testbed, crashed=crashed,
                         crash_lsn=crash_lsn, mode=mode, report=report)


def count_write_points(*, seed: int = 0,
                       snapshot_interval: float = 0.0) -> int:
    """Journal write points in one no-crash episode (its final LSN)."""
    baseline = run_episode(seed=seed, snapshot_interval=snapshot_interval)
    return baseline.journal.last_lsn


# ----------------------------------------------------------------------
# Invariant verification
# ----------------------------------------------------------------------

def verify_recovered(testbed) -> "List[str]":
    """Check the recovered system's invariants; returns violations.

    An empty list means the state is indistinguishable — by these
    invariants — from one that never crashed.
    """
    problems: "List[str]" = []
    broker = testbed.broker
    partition = broker.partition
    now = testbed.sim.now

    # Capacity conservation: the partition sums to what the machine
    # actually has.
    eff_g, eff_a, eff_b = partition.effective_sizes()
    expected_total = partition.total - partition.failed
    if abs((eff_g + eff_a + eff_b) - expected_total) > 1e-6:
        problems.append(
            f"capacity not conserved: Cg+Ca+Cb = "
            f"{eff_g + eff_a + eff_b:g} != C - failed = "
            f"{expected_total:g}")
    if partition.committed_total() > partition.cg + 1e-6:
        problems.append(
            f"commitments {partition.committed_total():g} exceed "
            f"Cg={partition.cg:g}")

    # The slot table holds exactly the live reservations' entries.
    gara = broker.compute_rm.gara
    table = gara.slot_table
    live_entries = {r.entry.entry_id for r in gara.live_reservations()}
    table_entries = {entry.entry_id for entry in table.entries()}
    for orphan in sorted(table_entries - live_entries):
        problems.append(f"slot entry {orphan} booked by no live "
                        f"reservation (leaked slot)")
    for missing in sorted(live_entries - table_entries):
        problems.append(f"live reservation entry {missing} missing "
                        f"from the slot table")
    # The index agrees with a naive recount over its own entries.
    entries = table.entries()
    for sample in (now, now + 1.0, now + 10.0, now + 40.0):
        naive = sum(entry.demand.cpu for entry in entries
                    if entry.active_at(sample))
        indexed = table.usage_at(sample).cpu
        if abs(naive - indexed) > 1e-6:
            problems.append(
                f"slot-table usage at t={sample:g} diverges from the "
                f"naive recount: {indexed:g} != {naive:g}")

    # Every active NRM flow belongs to exactly one recovered session.
    owned_flows: "List[int]" = []
    for resources in broker.allocation.open_sessions():
        composite = resources.reservation
        if composite is None:
            continue
        from ..core.reservation_system import booking_flow_ids
        owned_flows.extend(booking_flow_ids(composite.network_booking))
    duplicates = {f for f in owned_flows if owned_flows.count(f) > 1}
    for flow_id in sorted(duplicates):
        problems.append(f"flow {flow_id} owned by more than one session")
    owned = set(owned_flows)
    for flow in testbed.nrm.flows():
        if flow.flow_id not in owned:
            problems.append(f"active flow {flow.flow_id} owned by no "
                            f"session (leaked bandwidth)")

    # SLA atomicity: live SLAs are fully live, dead SLAs hold nothing.
    for sla in broker.repository.all():
        sla_id = sla.sla_id
        if sla.status.is_live:
            if not broker.allocation.has(sla_id):
                problems.append(f"live SLA {sla_id} has no session")
                continue
            composite = broker.allocation.get(sla_id).reservation
            if composite is None or not composite.confirmed:
                problems.append(f"live SLA {sla_id} has no confirmed "
                                f"composite")
                continue
            if composite.compute_handle is not None:
                state = gara.reservation_status(
                    composite.compute_handle).state
                if state not in (ReservationState.COMMITTED,
                                 ReservationState.BOUND):
                    problems.append(
                        f"live SLA {sla_id}'s reservation is "
                        f"{state.value}, not committed/bound")
            if (sla.status is SlaStatus.ACTIVE
                    and broker.partition_holding(sla_id) is None
                    and sla.floor_demand().cpu > 0):
                problems.append(f"active SLA {sla_id} holds no "
                                f"partition capacity")
        else:
            if broker.allocation.has(sla_id):
                problems.append(f"dead SLA {sla_id} still has an open "
                                f"session")
            if broker.partition_holding(sla_id) is not None:
                problems.append(f"dead SLA {sla_id} still holds "
                                f"partition capacity")

    # Partition holdings all belong to known owners.
    live_keys = {f"sla-{sla.sla_id}"
                 for sla in broker.repository.live()}
    for holding in partition.guaranteed_holdings():
        if holding.user not in live_keys:
            problems.append(f"guaranteed holding {holding.user!r} has "
                            f"no live SLA behind it")

    # The journal itself stayed coherent: LSNs strictly increase even
    # across the crash (a mode="after" crash persists the record but
    # loses the in-memory counter — recovery must resync it).
    if testbed.journal is not None:
        previous = 0
        for record in testbed.journal.records():
            if record.lsn <= previous:
                problems.append(
                    f"journal LSN not strictly increasing: {record.lsn} "
                    f"after {previous}")
            previous = record.lsn
    return problems


def sweep_crash_points(*, seed: int = 0, modes: "Tuple[str, ...]" = CRASH_MODES,
                       snapshot_interval: float = 0.0
                       ) -> "List[EpisodeResult]":
    """Crash the episode at every write point in turn and verify.

    Raises:
        RecoveryError: When any recovered run violates an invariant
            (the message names the crash point and the violations).
    """
    total = count_write_points(seed=seed,
                               snapshot_interval=snapshot_interval)
    results: "List[EpisodeResult]" = []
    for lsn in range(1, total + 1):
        for mode in modes:
            result = run_episode(crash_lsn=lsn, mode=mode, seed=seed,
                                 snapshot_interval=snapshot_interval)
            if not result.crashed:
                raise RecoveryError(
                    f"crash at LSN {lsn} ({mode}) never fired — the "
                    f"episode only has {total} write points")
            problems = verify_recovered(result.testbed)
            if problems:
                raise RecoveryError(
                    f"crash at LSN {lsn} ({mode}) broke invariants: "
                    + "; ".join(problems))
            results.append(result)
    return results
