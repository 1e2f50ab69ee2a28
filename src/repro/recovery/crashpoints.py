"""Crash-at-every-journal-write-point harness.

The chaos layer (PR 3) perturbs the *transport*; this module perturbs
the *broker process*: a :class:`CrashingJournalStore` kills the broker
at a chosen journal write point (before or after the record becomes
durable), :func:`crash` wipes everything the process held only in
memory, and :func:`repro.recovery.recover.recover` rebuilds it.
:func:`run_episode` drives one scripted episode, optionally with a
crash at a given write point, and :func:`repro.invariants.check`
holds the recovered system to every testbed invariant (the test suite
sweeps every write point of the episode this way).

Everything is a function of the seeds and the crash point, so a crash
run is as replayable as a chaos run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import BrokerCrash, RecoveryError
from ..qos.classes import ServiceClass
from ..qos.parameters import Dimension, exact_parameter, range_parameter
from ..qos.specification import QoSSpecification
from ..sla.document import NetworkDemand
from ..sla.repository import SLARepository
from ..units import parse_bound
from .journal import JournalStore, MemoryJournalStore
from .recover import (RecoveryReport, _set_journal, _wipe_volatile_state,
                      install_journal, recover)
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

    def __init__(self, *, crash_lsn: int = 0, mode: str = "before") -> None:
        if mode not in CRASH_MODES:
            raise RecoveryError(
                f"crash mode must be one of {CRASH_MODES}: {mode!r}")
        if crash_lsn < 0:
            raise RecoveryError(f"crash_lsn must be >= 0: {crash_lsn}")
        self.inner = MemoryJournalStore()
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
    journal = testbed.journal
    _set_journal(testbed, None)
    try:
        testbed.broker.repository.restore(SLARepository())
        _wipe_volatile_state(testbed)
    finally:
        _set_journal(testbed, journal)


# ----------------------------------------------------------------------
# The scripted episode (writes every record type the broker journals)
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
    failure/repair pair — together they write every record type a
    single broker journals outside recovery (26 write points: each
    SLA's establishment, activation and close, the partition passes,
    the squeeze's ``modify`` and re-written document, the verifier's
    violation and restoration, and the best-effort demand set and
    withdrawn), so a
    crash sweep over this episode covers every write point the control
    plane has. The delegation types are the federation episode's.
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
