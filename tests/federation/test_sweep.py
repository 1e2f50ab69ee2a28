"""The delegation crash-point sweep: every write point, both sides.

PR-5 proved single-broker recovery by crashing at every journal write;
here the same sweep (``tests/recovery/crash_sweep.py``) runs across the
*delegation protocol*: the under-provisioned home's journal (intents,
cancellations, confirms) and the landing peer's (begin, admission
commit, accepted link). Every cell must end with the federation
invariants intact after the crashed broker rejoins and reconciles.
"""

from __future__ import annotations

from ..recovery.crash_sweep import grid, sweep
from .conftest import (DELEGATION, EPISODE_WORKLOAD, delegation_write_points,
                       run_delegation_episode)


class TestCleanEpisode:
    def test_the_script_exercises_delegation(self):
        episode = run_delegation_episode(seed=0)
        assert episode.ok
        delegated = [o for o in episode.outcomes if o.delegated]
        assert len(delegated) >= 2, \
            "the scripted workload must force cross-domain delegation"
        assert len(episode.outcomes) == len(EPISODE_WORKLOAD)

    def test_both_swept_journals_have_write_points(self):
        assert delegation_write_points("d1") == 16
        assert delegation_write_points("d2") == 13


class TestFullSweep:
    def test_every_write_point_survives(self):
        cells = sweep(DELEGATION)
        # 16 write points on d1 and 13 on d2, each crashed both sides
        # of the append: 58 cells.
        assert [(cell.target, cell.lsn, cell.mode) for cell in cells] \
            == grid({"d1": 16, "d2": 13})
        # Every armed store fired, and every cell ended with the
        # invariants intact.
        assert [cell for cell in cells if not cell.ok] == []
