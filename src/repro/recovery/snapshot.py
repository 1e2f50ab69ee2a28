"""Periodic checkpoints of the broker's durable state.

A snapshot captures what :func:`repro.recovery.recover.recover` would
otherwise fold from the journal's full history: the SLA repository
(through its own Table 4 XML codec, so the checkpoint and the wire
format cannot drift), the best-effort demands, and the legs of every
open session.  Recovery then becomes snapshot + tail replay — only
journal records with an LSN above the checkpoint's are re-applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import RecoveryError
from .journal import Journal


@dataclass(frozen=True)
class Snapshot:
    """One checkpoint of the broker's durable state.

    Attributes:
        time: Simulation time of the checkpoint.
        lsn: The journal LSN the checkpoint covers — every record with
            a lower-or-equal LSN is folded into this state.
        repository_xml: The full ``<SLA_Repository>`` document.
        partition: The best-effort demands (``best_effort``); the
            rest of the partition is re-derived from the machine and
            the restored sessions.
        composites: One entry per open session: SLA id, compute handle
            value and network flow ids.
    """

    time: float
    lsn: int
    repository_xml: str
    partition: "Mapping[str, object]" = field(default_factory=dict)
    composites: "Tuple[Mapping[str, object], ...]" = ()


def take_snapshot(broker, *, journal: Optional[Journal] = None) -> Snapshot:
    """Checkpoint a live broker.

    Args:
        broker: The :class:`~repro.core.broker.AQoSBroker` to capture.
        journal: The journal whose LSN the snapshot covers; defaults
            to the broker's installed journal.

    Raises:
        RecoveryError: When no journal is available to anchor the LSN.
    """
    journal = journal if journal is not None else broker.probe.journal
    if journal is None:
        raise RecoveryError(
            "cannot snapshot a broker without an installed journal")
    best_effort = [{"user": h.user, "demand": h.demand}
                   for h in broker.partition.best_effort_holdings()]
    composites: List[Dict[str, object]] = []
    for resources in broker.allocation.open_sessions():
        composite = resources.reservation
        if composite is None:
            continue
        composites.append({"sla_id": composite.sla_id, **composite.legs()})
    return Snapshot(
        time=broker.sim.now,
        lsn=journal.last_lsn,
        repository_xml=broker.repository.export_xml(),
        partition={"best_effort": best_effort},
        composites=tuple(composites),
    )


class SnapshotKeeper:
    """Holds the latest checkpoint and takes new ones on a timer.

    Built by :func:`start_snapshots`; recovery consults
    :attr:`latest` to shorten replay to the journal tail.
    """

    def __init__(self, broker, journal: Journal) -> None:
        self._broker = broker
        self._journal = journal  # qlint: disable=QLNT118 -- read side: the LSN anchor, never written through
        self.latest: Optional[Snapshot] = None
        self.taken = 0

    def checkpoint(self) -> Snapshot:
        """Take (and keep) a fresh snapshot now."""
        self.latest = take_snapshot(self._broker, journal=self._journal)
        self.taken += 1
        return self.latest


def start_snapshots(testbed, interval: float) -> SnapshotKeeper:
    """Schedule periodic checkpoints of the testbed's broker.

    Requires :func:`repro.recovery.recover.install_journal` to have
    run first (snapshots are anchored to journal LSNs).

    Raises:
        RecoveryError: Without a journal, or on a non-positive
            interval.
    """
    if testbed.journal is None:
        raise RecoveryError(
            "install_journal(testbed) must run before start_snapshots")
    if interval <= 0:
        raise RecoveryError(
            f"snapshot interval must be positive: {interval}")
    keeper = SnapshotKeeper(testbed.broker, testbed.journal)

    def tick() -> None:
        keeper.checkpoint()
        testbed.sim.schedule(interval, tick, label="recovery:snapshot")

    testbed.sim.schedule(interval, tick, label="recovery:snapshot")
    testbed.snapshots = keeper
    return keeper
