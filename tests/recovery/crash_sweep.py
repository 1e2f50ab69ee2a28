"""One crash-point sweep for every journaled episode.

Kill a process at every journal write point of a scripted episode,
before and after the append, and check the invariants of what comes
back. An :class:`Episode` says how: which journals can be armed
(``targets``), how many write points each sees in a clean run, and how
to run one armed cell. Two episodes use it:

* :func:`single_broker` — the scripted broker episode of
  :mod:`repro.recovery.crashpoints`, recovered from its journal at
  once and checked with :func:`repro.invariants.check`;
* ``DELEGATION`` in ``tests/federation/conftest.py`` — the delegation
  episode, whose crashed domain rejoins on schedule and is checked
  with ``federation_invariants``: the same ``check`` on every live
  domain, plus no double admission and no orphaned booking.

Every cell is a function of ``(target, lsn, mode)`` and the episode's
fixed seed, so a failing cell replays on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Sequence, Tuple

from repro.invariants import check
from repro.recovery.crashpoints import (CRASH_MODES, count_write_points,
                                        run_episode)


@dataclass(frozen=True)
class SweepCell:
    """One ``(target, lsn, mode)`` crash and what it left behind."""

    target: str
    lsn: int
    mode: str
    fired: bool
    problems: "Tuple[str, ...]"

    @property
    def ok(self) -> bool:
        """The armed store fired and every invariant held."""
        return self.fired and not self.problems


@dataclass(frozen=True)
class Episode:
    """A crash episode the sweep can arm.

    Attributes:
        targets: The journals that can be armed (a domain name, or
            ``"broker"`` for the single-broker episode).
        write_points: A target's write-point count in a clean run.
        run: Crash ``target`` at write point ``lsn`` (``mode``
            ``"before"`` or ``"after"`` the append) and return whether
            the crash fired and the invariant violations found.
    """

    targets: "Tuple[str, ...]"
    write_points: "Callable[[str], int]"
    run: "Callable[[str, int, str], Tuple[bool, Sequence[str]]]"


def grid(write_points: "Mapping[str, int]",
         modes: "Sequence[str]" = CRASH_MODES
         ) -> "List[Tuple[str, int, str]]":
    """Every ``(target, lsn, mode)`` cell, in sweep order."""
    return [(target, lsn, mode)
            for target, total in write_points.items()
            for lsn in range(1, total + 1)
            for mode in modes]


def sweep(episode: Episode) -> "List[SweepCell]":
    """Crash the episode at every write point of every target, in
    both modes, and report each cell."""
    cells: "List[SweepCell]" = []
    for target, lsn, mode in grid({target: episode.write_points(target)
                                   for target in episode.targets}):
        fired, problems = episode.run(target, lsn, mode)
        cells.append(SweepCell(target=target, lsn=lsn, mode=mode,
                               fired=fired, problems=tuple(problems)))
    return cells


def single_broker(snapshot_interval: float = 0.0) -> Episode:
    """The scripted single-broker episode, optionally snapshotting."""

    def run(_target: str, lsn: int, mode: str
            ) -> "Tuple[bool, Sequence[str]]":
        result = run_episode(crash_lsn=lsn, mode=mode,
                             snapshot_interval=snapshot_interval)
        return result.crashed, check(result.testbed)

    return Episode(
        targets=("broker",),
        write_points=lambda _target: count_write_points(
            snapshot_interval=snapshot_interval),
        run=run)
