"""Crash consistency for the AQoS control plane.

The broker's durable truth lives in three places: the write-ahead
:mod:`journal <repro.recovery.journal>` (every state-changing event,
in LSN order), periodic :mod:`snapshots <repro.recovery.snapshot>`
(so replay starts from a checkpoint, not from the beginning of time),
and the authoritative resource managers themselves (GARA slot tables,
NRM flow tables, the machine).  After a crash,
:func:`repro.recovery.recover.recover` folds the first two together
and reconciles the result against the third.

Only the journal and snapshot layers are imported here: the core
broker modules import :mod:`repro.recovery.journal` for their write
hooks, so pulling :mod:`repro.recovery.recover` (which imports those
core modules back) into the package namespace would create an import
cycle.  Consumers import the recovery entry points explicitly::

    from repro.recovery.recover import install_journal, recover
"""

from __future__ import annotations

from .journal import (
    FileJournalStore,
    Journal,
    JournalRecord,
    JournalStore,
    MemoryJournalStore,
)
from .snapshot import (
    Snapshot,
    SnapshotKeeper,
    start_snapshots,
    take_snapshot,
)

__all__ = [
    "FileJournalStore",
    "Journal",
    "JournalRecord",
    "JournalStore",
    "MemoryJournalStore",
    "Snapshot",
    "SnapshotKeeper",
    "start_snapshots",
    "take_snapshot",
]
