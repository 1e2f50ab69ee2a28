"""Tests for the write-ahead journal (repro.recovery.journal)."""

from __future__ import annotations

import os
import struct

import pytest

from repro.errors import RecoveryError
from repro.recovery.journal import (
    CONFIRM,
    RECORD_TYPES,
    SLA_SAVED,
    FileJournalStore,
    Journal,
    JournalRecord,
    MemoryJournalStore,
    decode_record,
    encode_record,
)


class TestRecordCodec:
    def test_roundtrip(self):
        record = JournalRecord(lsn=7, time=12.5, type=CONFIRM,
                               payload={"sla_id": 1000})
        assert decode_record(encode_record(record)) == record

    def test_encoding_is_deterministic(self):
        a = JournalRecord(lsn=1, time=0.0, type=SLA_SAVED,
                          payload={"b": 2, "a": 1})
        b = JournalRecord(lsn=1, time=0.0, type=SLA_SAVED,
                          payload={"a": 1, "b": 2})
        assert encode_record(a) == encode_record(b)

    def test_garbage_rejected(self):
        with pytest.raises(RecoveryError):
            decode_record(b"not json")

    def test_missing_fields_rejected(self):
        with pytest.raises(RecoveryError):
            decode_record(b'{"lsn": 1}')


class TestJournal:
    def test_lsns_are_monotonic_and_timed(self):
        clock = {"now": 3.0}
        journal = Journal(now=lambda: clock["now"])
        first = journal.append(CONFIRM, sla_id=1)
        clock["now"] = 5.0
        second = journal.append(CONFIRM, sla_id=2)
        assert (first.lsn, second.lsn) == (1, 2)
        assert (first.time, second.time) == (3.0, 5.0)
        assert journal.last_lsn == 2
        assert len(journal) == 2

    def test_unknown_record_type_rejected(self):
        with pytest.raises(RecoveryError):
            Journal().append("made_up_type")
        assert CONFIRM in RECORD_TYPES

    def test_resumes_after_store_tail(self):
        store = MemoryJournalStore()
        Journal(store).append(CONFIRM, sla_id=1)
        resumed = Journal(store)
        assert resumed.last_lsn == 1
        assert resumed.append(CONFIRM, sla_id=2).lsn == 2

    def test_failed_append_does_not_advance_lsn(self):
        class ExplodingStore(MemoryJournalStore):
            def append_record(self, record) -> None:
                raise RuntimeError("disk gone")

        journal = Journal(ExplodingStore())
        with pytest.raises(RuntimeError):
            journal.append(CONFIRM, sla_id=1)
        assert journal.last_lsn == 0

    def test_resync_recovers_from_torn_counter(self):
        # A crash *after* the bytes land but *before* the counter
        # update leaves the in-memory LSN behind the store; resync
        # must realign so later appends keep LSNs unique.
        store = MemoryJournalStore()
        journal = Journal(store)
        journal.append(CONFIRM, sla_id=1)
        store.append(encode_record(JournalRecord(
            lsn=2, time=0.0, type=CONFIRM, payload={"sla_id": 2})))
        assert journal.last_lsn == 1
        assert journal.resync() == 2
        assert journal.append(CONFIRM, sla_id=3).lsn == 3


class TestMemoryStoreDeferredEncoding:
    def test_reads_back_the_eager_encoding(self):
        # The memory store keeps record objects and encodes on read;
        # the bytes must match what a durable store would have written
        # at append time.
        store = MemoryJournalStore()
        record = Journal(store).append(CONFIRM, sla_id=1)
        assert list(store.records()) == [encode_record(record)]

    def test_byte_and_typed_appends_interleave(self):
        store = MemoryJournalStore()
        first = JournalRecord(lsn=1, time=0.0, type=CONFIRM,
                              payload={"sla_id": 1})
        store.append(encode_record(first))
        second = Journal(store).append(CONFIRM, sla_id=2)
        assert [r.lsn for r in Journal(store).records()] == [1, 2]
        assert list(store.records())[1] == encode_record(second)

    def test_unencodable_payload_surfaces_on_read(self):
        # Deferral trades the eager type check for a read-time one;
        # the sweep and every recovery force a read, so a write point
        # with a non-JSON-safe payload still cannot hide.
        store = MemoryJournalStore()
        Journal(store).append(CONFIRM, handle=object())
        with pytest.raises(TypeError):
            list(store.records())


class TestFileJournalStore:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "wal.journal"
        journal = Journal(FileJournalStore(path))
        journal.append(SLA_SAVED, sla_id=1000, status="active")
        journal.append(CONFIRM, sla_id=1000)
        replayed = Journal(FileJournalStore(path)).records()
        assert [r.type for r in replayed] == [SLA_SAVED, CONFIRM]
        assert replayed[0].payload == {"sla_id": 1000, "status": "active"}

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "wal.journal"
        store = FileJournalStore(path)
        intact = encode_record(JournalRecord(
            lsn=1, time=0.0, type=CONFIRM, payload={"sla_id": 1}))
        store.append(intact)
        torn = encode_record(JournalRecord(
            lsn=2, time=0.0, type=CONFIRM, payload={"sla_id": 2}))
        with open(path, "ab") as handle:
            # Length prefix promises the full record; the crash cut
            # the body short.
            handle.write(struct.pack(">I", len(torn)))
            handle.write(torn[:len(torn) - 3])
        survivors = list(FileJournalStore(path).records())
        assert len(survivors) == 1
        assert decode_record(survivors[0]).lsn == 1
        # A journal over the torn store resumes cleanly after LSN 1.
        assert Journal(FileJournalStore(path)).last_lsn == 1

    @pytest.mark.parametrize("tear", ["prefix", "body", "mid-group"])
    def test_append_after_tear_roundtrips(self, tmp_path, tear):
        path = tmp_path / "wal.journal"
        journal = Journal(FileJournalStore(path))
        journal.append(SLA_SAVED, sla_id=1000, status="active")
        whole = path.stat().st_size
        if tear == "mid-group":
            journal.begin_group()
            for sla_id in (1, 2, 3):
                journal.append(CONFIRM, sla_id=sla_id)
            journal.commit_group()
            (first,) = struct.unpack_from(">I", path.read_bytes(), whole)
            # The crash cut the run inside the group's second frame.
            os.truncate(path, whole + 4 + first + 4 + 5)
            survivors = 2
        else:
            torn = encode_record(JournalRecord(
                lsn=2, time=0.0, type=CONFIRM, payload={"sla_id": 2}))
            frame = struct.pack(">I", len(torn)) + torn
            with open(path, "ab") as handle:
                handle.write(frame[:2] if tear == "prefix" else frame[:-3])
            survivors = 1
        reopened = Journal(FileJournalStore(path))
        assert reopened.last_lsn == survivors
        # Appending must not frame the new records inside the garbage.
        reopened.append(CONFIRM, sla_id=7)
        reopened.append(CONFIRM, sla_id=8)
        replayed = Journal(FileJournalStore(path)).records()
        assert [r.lsn for r in replayed] == list(range(1, survivors + 3))
        assert [r.payload["sla_id"] for r in replayed[-2:]] == [7, 8]

    def test_missing_file_reads_empty(self, tmp_path):
        store = FileJournalStore(tmp_path / "absent.journal")
        assert list(store.records()) == []
