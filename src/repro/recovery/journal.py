"""The write-ahead journal for the AQoS control plane.

The journal holds what only the broker knows: each SLA's Table 4
document, its lifecycle status and, once, the ids of its reservation
legs.  GARA and the NRM stay authoritative for what is booked, so
recovery (:mod:`repro.recovery.recover`) reads reservation state from
them, not from here.  Records are appended *after* the mutation they
describe; a crash in between leaves a booking no recovered session
owns, which recovery's sweep releases.  The remaining record types
(compute resize, capacity rebalance, violation transitions,
delegation steps) feed the flight recorder and federation
reconciliation.  Records carry the simulation time and a monotonic
log sequence number (LSN); recovery is snapshot plus tail replay.

Two stores ship: :class:`MemoryJournalStore` (tests and the in-process
crash harness) and :class:`FileJournalStore`, an append-only
length-prefixed binary log for the CLI's cold-restart path.  A torn
trailing record (crash mid-write) is tolerated and ignored on read,
which is exactly the write-ahead contract: an unreadable suffix means
the transition never durably happened.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
from typing import Callable, Iterator, List, Mapping, NamedTuple, Optional

from ..errors import RecoveryError

#: Record type for an SLA: its id and lifecycle status.  The record an
#: SLA is established with also carries the full Table 4 XML and its
#: legs (``handle``: the GARA handle value or null; ``flows``: the NRM
#: flow ids); a record written where the document's content changes
#: carries the XML; a status change carries the status alone.
SLA_SAVED = "sla_saved"
#: The compute leg was resized (adaptation squeeze/upgrade).
MODIFY = "modify"
#: The capacity partition re-ran its water-fill.
CAPACITY_REBALANCED = "capacity_rebalanced"
#: The verifier detected a new SLA violation.
VIOLATION = "violation"
#: The verifier saw a violating SLA return to conformance.
RESTORATION = "restoration"
#: A best-effort demand was set (or cleared at zero demand).
BEST_EFFORT_SET = "best_effort_set"
#: A recovery pass completed (payload: the reconciliation counters).
RECOVERED = "recovered"
#: A cross-domain delegation opened (home side: intent to delegate to
#: a peer; peer side: intent to admit on a home's behalf).  Written
#: *before* the first admission mutation, so a rejoining broker can
#: always tell a delegated booking from a local one.
DELEGATION_BEGIN = "delegation_begin"
#: The peer admitted the delegated request (payload links the
#: delegation id to the SLA the admission produced).
DELEGATION_ACCEPTED = "delegation_accepted"
#: The home domain confirmed the delegation end-to-end (both sides
#: write one; a booking without it is half-delegated and gets
#: cancelled by reconciliation on rejoin).
DELEGATION_CONFIRMED = "delegation_confirmed"
#: The delegation was abandoned — peer unreachable, confirm lost, or
#: reconciliation rolled back a half-delegated booking.
DELEGATION_CANCELLED = "delegation_cancelled"

#: Every record type the journal accepts.
RECORD_TYPES = frozenset({
    SLA_SAVED, MODIFY, CAPACITY_REBALANCED,
    VIOLATION, RESTORATION, BEST_EFFORT_SET, RECOVERED,
    DELEGATION_BEGIN, DELEGATION_ACCEPTED, DELEGATION_CONFIRMED,
    DELEGATION_CANCELLED,
})

#: Length prefix: 4-byte big-endian record size.
_LENGTH = struct.Struct(">I")


class JournalRecord(NamedTuple):
    """One journal entry.

    A ``NamedTuple`` rather than a dataclass: records are built on
    every journal write, and tuple construction is ~3x cheaper than a
    frozen dataclass's ``__init__``.

    Attributes:
        lsn: Monotonic log sequence number (1-based).
        time: Simulation time when the record was appended.
        type: One of :data:`RECORD_TYPES`.
        payload: JSON-safe record body (scalars and flat lists); never
            mutated after construction, so the shared default is safe.
    """

    lsn: int
    time: float
    type: str
    payload: "Mapping[str, object]" = {}


class DeferredValue:
    """A payload value rendered at encode time, not append time.

    Wraps a zero-argument callable over *immutable* (point-in-time
    snapshot) state; the result is memoized, so every encoding of the
    record yields identical bytes.  A store that defers byte-encoding
    (:class:`MemoryJournalStore`) never pays the rendering cost on the
    hot path; a durable store resolves it inside the append, so the
    write-ahead contract — bytes exist before the append returns — is
    unchanged.
    """

    __slots__ = ("_fn", "_value")

    def __init__(self, fn: "Callable[[], object]") -> None:
        self._fn = fn
        self._value: Optional[object] = None

    def resolve(self) -> object:
        if self._value is None:
            self._value = self._fn()
        return self._value


#: Shared encoder: ``json.dumps`` with non-default options builds a
#: fresh ``JSONEncoder`` on every call, which is measurable on the
#: admission hot path (an admission appends several records).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_record(record: JournalRecord) -> bytes:
    """Serialize a record deterministically (sorted-key JSON)."""
    payload = dict(record.payload)
    for key, value in payload.items():
        if isinstance(value, DeferredValue):
            payload[key] = value.resolve()
    body = {"lsn": record.lsn, "time": record.time, "type": record.type,
            "payload": payload}
    return _ENCODER.encode(body).encode("utf-8")


def decode_record(data: bytes) -> JournalRecord:
    """Rebuild a record from :func:`encode_record` output.

    Raises:
        RecoveryError: On malformed bytes or an unknown record type.
    """
    try:
        body = json.loads(data.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise RecoveryError(f"unreadable journal record: {error}")
    record_type = body.get("type")
    if record_type not in RECORD_TYPES:
        raise RecoveryError(f"unknown journal record type: {record_type!r}")
    return JournalRecord(lsn=int(body["lsn"]), time=float(body["time"]),
                         type=record_type, payload=body.get("payload", {}))


class JournalStore:
    """Abstract append-only byte-record store."""

    def append(self, data: bytes) -> None:
        """Durably append one encoded record."""
        raise RecoveryError(
            f"{type(self).__name__} does not implement append")

    def append_record(self, record: JournalRecord) -> None:
        """Append one typed record.

        The default encodes eagerly and delegates to :meth:`append`,
        which is the write-ahead contract a durable store needs: the
        bytes exist before the append returns.  A store whose records
        never leave process memory may override this to skip the
        encoding on the hot path.
        """
        self.append(encode_record(record))

    def append_group(self, records: "List[JournalRecord]") -> None:
        """Append a batch of typed records as one group commit.

        The default simply appends each record in order, so every
        store — including test harnesses that intercept single appends
        to inject crashes — sees the same per-record byte stream as a
        sequential caller.  Stores with a cheaper bulk path (one
        ``extend``, one file write) override this.
        """
        for record in records:
            self.append_record(record)

    def records(self) -> "Iterator[bytes]":
        """Yield every durable record, oldest first."""
        raise RecoveryError(
            f"{type(self).__name__} does not implement records")


class MemoryJournalStore(JournalStore):
    """In-memory store: the default for tests and the crash harness.

    Typed appends keep the record object and defer byte-encoding to
    :meth:`records` — for an in-process store "durable" already means
    "still referenced", so eager serialization would only tax the
    admission hot path.  Payloads must therefore be JSON-safe and
    never mutated after the append (every record the control plane
    writes is built from fresh scalars/strings).  Subclasses that
    intercept writes must override :meth:`append_record` too; byte
    appends only arrive via the eager base-class path.
    """

    def __init__(self) -> None:
        self._records: "List[bytes | JournalRecord]" = []
        # Typed appends go straight to ``list.append`` — no Python
        # frame on the hot path.  Only when the class itself doesn't
        # override ``append_record``: an instance attribute would
        # silently shadow a subclass's interception otherwise.
        if type(self).append_record is MemoryJournalStore.append_record:
            self.append_record = self._records.append  # type: ignore[method-assign]

    def append(self, data: bytes) -> None:
        self._records.append(data)

    def append_record(self, record: JournalRecord) -> None:
        self._records.append(record)

    def append_group(self, records: "List[JournalRecord]") -> None:
        # One C-level extend per group; encoding stays deferred. The
        # same subclass guard as ``append_record`` applies: a store
        # that intercepts appends inherits the per-record loop instead.
        if type(self).append_record is MemoryJournalStore.append_record:
            self._records.extend(records)
        else:
            super().append_group(records)

    def records(self) -> "Iterator[bytes]":
        # A shallow snapshot taken now, encoded one record at a time:
        # appends after the call are not seen, and a reader need not
        # hold every encoded record at once.
        snapshot = list(self._records)
        return (item if isinstance(item, bytes) else encode_record(item)
                for item in snapshot)

    def __len__(self) -> int:
        return len(self._records)


class FileJournalStore(JournalStore):
    """Append-only length-prefixed binary log on disk.

    Each record is ``>I`` (big-endian length) followed by the encoded
    body.  Reads tolerate a torn trailing record: a prefix or body cut
    short by a crash mid-write is silently dropped, never surfaced as
    a half-applied transition.  The first append after open truncates
    such a tail away, so the next frame is not framed inside it.
    """

    def __init__(self, path: "pathlib.Path | str") -> None:
        self.path = pathlib.Path(path)
        self._tail_checked = False

    def _write(self, frames: bytes) -> None:
        if not self._tail_checked and self.path.exists():
            raw = self.path.read_bytes()
            end = self._whole_frames(raw)[1]
            if end < len(raw):
                os.truncate(self.path, end)
        self._tail_checked = True
        with self.path.open("ab") as handle:
            handle.write(frames)

    def append(self, data: bytes) -> None:
        self._write(_LENGTH.pack(len(data)) + data)

    def append_group(self, records: "List[JournalRecord]") -> None:
        """Group commit: encode every record, then one write syscall.

        The frames are identical to per-record appends — a reader
        cannot tell a group from a sequence of singles — but the group
        reaches the file in a single ``write``, so a crash tears at
        most the trailing record of the group, never its middle.
        """
        frames = bytearray()
        for record in records:
            data = encode_record(record)
            frames += _LENGTH.pack(len(data))
            frames += data
        self._write(frames)

    @staticmethod
    def _whole_frames(raw: bytes) -> "tuple[List[bytes], int]":
        """The whole records in ``raw`` and the offset they end at."""
        out: List[bytes] = []
        offset = 0
        while offset + _LENGTH.size <= len(raw):
            (size,) = _LENGTH.unpack_from(raw, offset)
            start = offset + _LENGTH.size
            if start + size > len(raw):
                break  # torn trailing record — crash mid-write
            out.append(raw[start:start + size])
            offset = start + size
        return out, offset

    def records(self) -> "Iterator[bytes]":
        if not self.path.exists():
            return iter(())
        return iter(self._whole_frames(self.path.read_bytes())[0])


class Journal:
    """The typed write-ahead journal façade.

    Args:
        store: Record store; a fresh :class:`MemoryJournalStore` when
            omitted.  A non-empty store resumes the LSN after its
            highest durable record.
        now: Clock callable (the simulation clock in practice).
    """

    def __init__(self, store: Optional[JournalStore] = None, *,
                 now: "Callable[[], float]" = lambda: 0.0) -> None:
        self.store = store if store is not None else MemoryJournalStore()
        # Bound once: the admission path appends several records, and
        # the two attribute lookups per append add up.
        self._sink = self.store.append_record
        self._now = now
        self._lsn = 0
        self._group: "Optional[List[JournalRecord]]" = None
        for data in self.store.records():
            self._lsn = decode_record(data).lsn

    @property
    def last_lsn(self) -> int:
        """The highest LSN durably appended (0 when empty)."""
        return self._lsn

    def resync(self) -> int:
        """Re-read the store and resume the LSN after its durable tail.

        A crash *during* an append can leave the in-memory LSN behind
        the store (the bytes landed but the raise beat the counter
        update); recovery calls this before writing compensating
        records so LSNs stay unique.
        """
        self._lsn = 0
        for data in self.store.records():
            self._lsn = decode_record(data).lsn
        return self._lsn

    def append(self, record_type: str, **payload: object) -> JournalRecord:
        """Append one typed record and return it.

        The LSN only advances after the store accepts the bytes, so a
        store that crashes mid-append leaves the journal consistent.

        Raises:
            RecoveryError: On an unknown record type.
        """
        if record_type not in RECORD_TYPES:
            raise RecoveryError(
                f"unknown journal record type: {record_type!r}")
        group = self._group
        if group is not None:
            record = JournalRecord(self._lsn + 1 + len(group), self._now(),
                                   record_type, payload)
            group.append(record)
            return record
        record = JournalRecord(self._lsn + 1, self._now(), record_type,
                               payload)
        self._sink(record)
        self._lsn = record.lsn
        return record

    def begin_group(self) -> None:
        """Start buffering appends for one group commit.

        Records appended inside a group receive the same LSNs they
        would get from sequential appends — the numbering is fixed at
        append time — but nothing reaches the store until
        :meth:`commit_group`.  Groups do not nest.

        Raises:
            RecoveryError: When a group is already open.
        """
        if self._group is not None:
            raise RecoveryError("journal group commits do not nest")
        self._group = []

    def commit_group(self) -> "List[JournalRecord]":
        """Flush the buffered group to the store in one bulk append.

        The LSN advances once, after the store accepts the whole
        group.  A crash inside the store's bulk append therefore leaves
        the in-memory LSN behind the durable tail — the same torn state
        a crash inside a single append produces — and recovery's
        :meth:`resync` absorbs it.  Group mode always ends, even when
        the store raises, so the journal never sticks in buffering.

        Raises:
            RecoveryError: When no group is open.
        """
        group = self._group
        if group is None:
            raise RecoveryError("no journal group to commit")
        self._group = None
        if group:
            self.store.append_group(group)
            self._lsn = group[-1].lsn
        return group

    def records(self) -> "List[JournalRecord]":
        """Every durable record, oldest first."""
        return [decode_record(data) for data in self.store.records()]

    def __len__(self) -> int:
        return self._lsn
