"""Crash-at-every-write-point recovery tests (repro.recovery)."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RecoveryError
from repro.invariants import check
from repro.recovery.crashpoints import (
    CrashingJournalStore,
    count_write_points,
    run_episode,
)
from repro.recovery.journal import (
    DELEGATION_CANCELLED,
    RECORD_TYPES,
    RECOVERED,
)
from repro.recovery.recover import recover

from ..federation.conftest import run_delegation_episode
from .crash_sweep import grid, single_broker, sweep


class TestCrashingStore:
    def test_rejects_bad_mode(self):
        with pytest.raises(RecoveryError):
            CrashingJournalStore(crash_lsn=1, mode="sideways")

    def test_rejects_negative_crash_point(self):
        with pytest.raises(RecoveryError):
            CrashingJournalStore(crash_lsn=-1)

    def test_before_mode_loses_the_record(self):
        store = CrashingJournalStore(crash_lsn=1, mode="before")
        with pytest.raises(Exception):
            store.append(b"doomed")
        assert list(store.records()) == []

    def test_after_mode_keeps_the_record(self):
        store = CrashingJournalStore(crash_lsn=1, mode="after")
        with pytest.raises(Exception):
            store.append(b"durable")
        assert list(store.records()) == [b"durable"]

    def test_disarms_after_firing(self):
        store = CrashingJournalStore(crash_lsn=1, mode="before")
        with pytest.raises(Exception):
            store.append(b"one")
        store.append(b"two")
        assert list(store.records()) == [b"two"]


class TestEpisode:
    def test_no_crash_episode_exercises_every_record_family(self):
        result = run_episode()
        assert not result.crashed
        assert result.report is None
        assert check(result.testbed) == []
        delegation = run_delegation_episode()
        assert delegation.ok and not delegation.crashed
        journals = [result.journal] + [
            domain.testbed.journal
            for domain in delegation.plane.domains.values()]
        types = {record.type for journal in journals
                 for record in journal.records()}
        # The two swept episodes together must write every record type,
        # or the sweeps' coverage claim is hollow. Two types are left
        # out: only recovery writes ``recovered``, and only a
        # delegation that fails or that reconciliation rolls back
        # writes ``delegation_cancelled`` — neither happens in a clean
        # run.
        assert types == RECORD_TYPES - {RECOVERED, DELEGATION_CANCELLED}

    def test_write_point_count_is_stable(self):
        total = count_write_points()
        assert total == len(run_episode().journal.records())
        assert total > 20

    def test_recover_without_journal_rejected(self, testbed):
        with pytest.raises(RecoveryError):
            recover(testbed)


class TestCrashSweep:
    def test_every_write_point_recovers(self):
        # The tentpole property: kill the broker at EVERY journal
        # write point (26), in both crash modes, and require the
        # recovered system to satisfy the no-crash oracle's invariants.
        cells = sweep(single_broker())
        assert [(cell.target, cell.lsn, cell.mode) for cell in cells] \
            == grid({"broker": 26})
        assert [cell for cell in cells if not cell.ok] == []

    def test_every_write_point_recovers_with_snapshots(self):
        # Same property through the snapshot + tail-replay path.
        cells = sweep(single_broker(snapshot_interval=20.0))
        assert [(cell.target, cell.lsn, cell.mode) for cell in cells] \
            == grid({"broker": 26})
        assert [cell for cell in cells if not cell.ok] == []


class TestRecoveryDeterminism:
    def test_same_crash_point_same_outcome(self):
        first = run_episode(crash_lsn=9, mode="before")
        second = run_episode(crash_lsn=9, mode="before")
        assert first.report is not None and second.report is not None
        assert first.report.render() == second.report.render()
        outcome = lambda r: [(s.sla_id, s.status)  # noqa: E731
                             for s in r.testbed.broker.repository.all()]
        assert outcome(first) == outcome(second)

    def test_cli_reports_are_byte_identical(self, tmp_path):
        # The acceptance criterion: same seed + crash point must give
        # byte-identical recovered reports across two CLI processes.
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "quickstart",
                 "--crash", "7"],
                capture_output=True, text=True,
                env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
            assert proc.returncode == 0, proc.stderr
            runs.append(proc.stdout)
        assert runs[0] == runs[1]
        assert "recovery report" in runs[0]


@given(crash_seed=st.integers(min_value=0, max_value=10_000),
       snapshot_interval=st.sampled_from([0.0, 7.5, 20.0]))
@settings(max_examples=20, deadline=None)
def test_random_crash_points_recover_clean(crash_seed, snapshot_interval):
    """Property: any crash point, either mode, with or without
    snapshots, recovers to an invariant-clean state."""
    total = count_write_points(snapshot_interval=snapshot_interval)
    crash_lsn = (crash_seed % total) + 1
    mode = "after" if crash_seed % 2 else "before"
    result = run_episode(crash_lsn=crash_lsn, mode=mode,
                         snapshot_interval=snapshot_interval)
    assert result.crashed
    assert check(result.testbed) == []


class TestIdFloorAfterRecovery:
    """Recovery resumes SLA ids above the journal's highest, but never
    below the testbed's own id range."""

    def _crashed(self, first_id):
        from repro.core.testbed import build_testbed
        from repro.recovery.crashpoints import crash
        from repro.recovery.recover import install_journal
        testbed = build_testbed(sla_first_id=first_id)
        install_journal(testbed)
        crash(testbed)
        return testbed

    def test_empty_journal_keeps_the_first_id(self):
        testbed = self._crashed(5000)
        recover(testbed)
        assert testbed.broker.repository.next_id() == 5000

    def test_crash_alone_keeps_the_first_id(self):
        testbed = self._crashed(5000)
        assert testbed.broker.repository.next_id() == 5000
