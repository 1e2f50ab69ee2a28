"""The O(n) SLO evaluation, kept as the oracle for ``SloEngine``.

Every snapshot rebuilds each class's intervals from every session ever
started, sorted by SLA id, and sums them from scratch — the
implementation :class:`repro.obs.slo.SloEngine` replaced. The one
change is the satellite fix both share: open intervals run to the
snapshot's ``time``, not to the engine clock.

``tests/obs/test_slo_oracle.py`` drives both with the same generated
feed and compares whole snapshots with ``==``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.slo import DEFAULT_SLOS, SloSpec

_Intervals = List[Tuple[float, float]]


class _Track:
    def __init__(self, service_class: str, started: float) -> None:
        self.service_class = service_class
        self.started = started
        self.ended: Optional[float] = None
        self.active = True
        self.violation_since: Optional[float] = None
        self.bad: _Intervals = []


def _overlap(start: float, end: float, lo: float, hi: float) -> float:
    return max(0.0, min(end, hi) - max(start, lo))


class ReferenceSloEngine:
    """Feed hooks and :meth:`snapshot` with ``SloEngine``'s contract."""

    def __init__(self, now: "Callable[[], float]", *,
                 specs: "Optional[Tuple[SloSpec, ...]]" = None) -> None:
        self._now = now
        self._specs = {spec.service_class: spec
                       for spec in (DEFAULT_SLOS if specs is None
                                    else specs)}
        self._tracks: "Dict[int, _Track]" = {}

    def session_started(self, sla_id: int, service_class: str,
                        time: float) -> None:
        self._tracks[sla_id] = _Track(service_class, time)

    def session_ended(self, sla_id: int, time: float) -> None:
        track = self._tracks.get(sla_id)
        if track is None or not track.active:
            return
        if track.violation_since is not None:
            track.bad.append((track.violation_since, time))
            track.violation_since = None
        track.ended = time
        track.active = False

    def on_violation(self, sla_id: int, time: float) -> None:
        track = self._tracks.get(sla_id)
        if track is None or not track.active:
            return
        if track.violation_since is None:
            track.violation_since = time

    def on_restoration(self, sla_id: int, time: float) -> None:
        track = self._tracks.get(sla_id)
        if track is None:
            return
        if track.violation_since is not None:
            track.bad.append((track.violation_since, time))
            track.violation_since = None

    def _class_intervals(self, now: float
                         ) -> "Dict[str, Tuple[_Intervals, _Intervals]]":
        per_class: "Dict[str, Tuple[_Intervals, _Intervals]]" = {}
        for sla_id in sorted(self._tracks):
            track = self._tracks[sla_id]
            active, bad = per_class.setdefault(track.service_class,
                                               ([], []))
            end = now if track.active else (track.ended
                                            if track.ended is not None
                                            else now)
            active.append((track.started, end))
            bad.extend(track.bad)
            if track.violation_since is not None and track.active:
                bad.append((track.violation_since, now))
        return per_class

    def snapshot(self, time: Optional[float] = None
                 ) -> "Dict[str, Dict[str, Any]]":
        now = self._now() if time is None else time
        report: "Dict[str, Dict[str, Any]]" = {}
        for service_class, (active, bad) in sorted(
                self._class_intervals(now).items()):
            spec = self._specs.get(service_class)
            active_total = sum(hi - lo for lo, hi in active)
            bad_total = sum(hi - lo for lo, hi in bad)
            availability = (1.0 if active_total <= 0.0
                            else 1.0 - bad_total / active_total)
            entry: "Dict[str, Any]" = {
                "sessions": len(active),
                "active_time": round(active_total, 9),
                "bad_time": round(bad_total, 9),
                "availability": round(availability, 9),
            }
            if spec is not None:
                entry["objective"] = spec.availability
                entry["budget"] = round(spec.budget, 9)
                burn: "Dict[str, float]" = {}
                for window in spec.windows:
                    lo = now - window
                    active_w = sum(_overlap(start, end, lo, now)
                                   for start, end in active)
                    bad_w = sum(_overlap(start, end, lo, now)
                                for start, end in bad)
                    if active_w <= 0.0 or spec.budget <= 0.0:
                        rate = 0.0
                    else:
                        rate = (bad_w / active_w) / spec.budget
                    burn[f"{window:g}s"] = round(rate, 9)
                entry["burn_rate"] = burn
            report[service_class] = entry
        return report
