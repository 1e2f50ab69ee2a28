"""Periodic checkpoints of the broker's durable state.

A snapshot captures everything :func:`repro.recovery.recover.recover`
would otherwise reconstruct from the journal's full history: the SLA
repository (through its own Table 4 XML codec, so the checkpoint and
the wire format cannot drift), the capacity partition's configuration
and holdings, and the composite-reservation handles of every open
session.  Recovery then becomes snapshot + tail replay — only journal
records with an LSN above the checkpoint's are re-applied.
"""

from __future__ import annotations

import json
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
        partition: Partition configuration, failure level, guaranteed
            holdings and best-effort demands.
        composites: One entry per open session: SLA id, compute handle
            value, network flow ids and the confirmed flag.
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
    partition = broker.partition
    holdings = [{"user": h.user, "committed": h.committed,
                 "demand": h.demand}
                for h in partition.guaranteed_holdings()]
    best_effort = [{"user": h.user, "demand": h.demand}
                   for h in partition.best_effort_holdings()]
    composites: List[Dict[str, object]] = []
    for resources in broker.allocation.open_sessions():
        composite = resources.reservation
        if composite is None:
            continue
        handle = composite.compute_handle
        composites.append({
            "sla_id": composite.sla_id,
            "handle": handle.value if handle is not None else None,
            "flows": _booking_flow_ids(composite.network_booking),
            "confirmed": composite.confirmed,
        })
    return Snapshot(
        time=broker.sim.now,
        lsn=journal.last_lsn,
        repository_xml=broker.repository.export_xml(),
        partition={
            "cg": partition.cg, "ca": partition.ca, "cb": partition.cb,
            "best_effort_min": partition.best_effort_min,
            "failed": partition.failed,
            "holdings": holdings,
            "best_effort": best_effort,
        },
        composites=tuple(composites),
    )


def _booking_flow_ids(booking) -> "List[int]":
    """Flow ids behind a network booking (empty when there is none)."""
    if booking is None:
        return []
    segments = getattr(booking, "segments", None)
    if segments is not None:
        return [flow.flow_id for _nrm, flow in segments]
    return [booking.flow_id]


def encode_snapshot(snapshot: Snapshot) -> str:
    """Serialize a snapshot deterministically (sorted-key JSON)."""
    return json.dumps({
        "time": snapshot.time,
        "lsn": snapshot.lsn,
        "repository_xml": snapshot.repository_xml,
        "partition": dict(snapshot.partition),
        "composites": [dict(entry) for entry in snapshot.composites],
    }, sort_keys=True, separators=(",", ":"))


def decode_snapshot(text: str) -> Snapshot:
    """Rebuild a snapshot from :func:`encode_snapshot` output.

    Raises:
        RecoveryError: On malformed input.
    """
    try:
        body = json.loads(text)
        return Snapshot(
            time=float(body["time"]),
            lsn=int(body["lsn"]),
            repository_xml=str(body["repository_xml"]),
            partition=body.get("partition", {}),
            composites=tuple(body.get("composites", ())),
        )
    except (ValueError, KeyError, TypeError) as error:
        raise RecoveryError(f"unreadable snapshot: {error}")


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
