"""Declarative per-class SLOs with error budgets and burn rates.

The paper's availability objective ("the availability of the service
per month should not be lower than 96%", §3) is what the verifier's
conformance tests ultimately protect.  This module makes it explicit:
an :class:`SloSpec` names an availability target per service class,
the complement (``1 - availability``) is the **violation budget**, and
the :class:`SloEngine` evaluates, on the sim clock, what fraction of
that budget each class is burning and how fast.

Inputs are the existing signals — verifier violation/restoration
transitions and session start/end from the broker — accumulated as
per-SLA intervals.  ``burn_rate(window)`` is the classic multi-window
formulation: the fraction of active time spent in violation inside a
trailing window, divided by the budget, so 1.0 means "on track to
exactly exhaust the budget" and the default alert threshold of 2.0
fires when a class burns twice as fast as it can afford.  Alerts are
deterministic records, emitted only on the *transition* into burn so a
fixed seed always produces the same alert stream.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional, Tuple)

from ..telemetry.events import EventStream

__all__ = [
    "AlertRecord",
    "DEFAULT_SLOS",
    "SloEngine",
    "SloSpec",
]


@dataclass(frozen=True)
class SloSpec:
    """One service class's objective.

    Attributes:
        service_class: The class label (e.g. ``"Guaranteed"``), as in
            :attr:`repro.qos.parameters.ServiceClass.value`.
        availability: Target fraction of active session time that must
            be violation-free (``0 < availability < 1``).
        windows: Trailing burn-rate windows, in sim seconds,
            shortest first.
        burn_threshold: Burn rate at or above which an alert fires.
    """

    service_class: str
    availability: float
    windows: "Tuple[float, ...]" = (60.0, 300.0)
    burn_threshold: float = 2.0

    @property
    def budget(self) -> float:
        """The violation budget: allowed bad-time fraction."""
        return 1.0 - self.availability


#: Default objectives for the two monitored classes.  Best-effort has
#: no SLA and therefore no objective.
DEFAULT_SLOS: "Tuple[SloSpec, ...]" = (
    SloSpec(service_class="Guaranteed", availability=0.999),
    SloSpec(service_class="Controlled-load", availability=0.95),
)


@dataclass(frozen=True)
class AlertRecord:
    """A deterministic burn-rate alert (transition into burn)."""

    time: float
    service_class: str
    window: float
    burn_rate: float
    threshold: float
    budget: float


class _SlaTrack:
    """Per-SLA active/violating interval bookkeeping."""

    __slots__ = ("service_class", "started", "ended", "active",
                 "violation_since", "bad")

    def __init__(self, service_class: str, started: float) -> None:
        self.service_class = service_class
        self.started = started
        self.ended: Optional[float] = None
        self.active = True
        self.violation_since: Optional[float] = None
        self.bad: "List[Tuple[float, float]]" = []


_BY_ID = operator.itemgetter(1)


class _ClassBook:
    """One class's SLA ids in order (every sum runs in id order), and
    its closed tracks as ``(end, sla_id, start, bad)`` spans in end
    order. A closed track's intervals are final, so the sums over the
    leading closed tracks are kept: ``settled`` of them, folded to
    ``active`` and ``bad`` as ``sum()`` would have; a snapshot folds on
    from there, adding the same terms in the same order."""

    __slots__ = ("ids", "closed", "settled", "active", "bad")

    def __init__(self) -> None:
        self.ids: "List[int]" = []
        self.closed: "List[Tuple[float, int, float, list]]" = []
        self.settled = self.active = self.bad = 0  # as sum() starts

    def fold(self, tracks: "Dict[int, _SlaTrack]", now: float
             ) -> "Tuple[float, float, list]":
        """``(active, bad, open spans)`` totals, open ones to ``now``."""
        active, bad, opened = self.active, self.bad, []
        for sla_id in self.ids[self.settled:]:
            track = tracks[sla_id]
            intervals = track.bad
            if track.active:
                if track.violation_since is not None:
                    intervals = [*intervals, (track.violation_since, now)]
                opened.append((now, sla_id, track.started, intervals))
            active += (now if track.active else track.ended) - track.started
            for lo, hi in intervals:
                bad += hi - lo
            if not opened:
                self.settled += 1
                self.active, self.bad = active, bad
        return active, bad, opened

    def window(self, opened: list, now: float, lo: float
               ) -> "Tuple[float, float]":
        """``(active, bad)`` overlap with ``[lo, now]``, over the open
        spans and those closed after ``lo`` in id order. Each term is
        ``max(0.0, min(end, now) - max(start, lo))`` spelled without
        builtin calls; a 0.0 term is left out, which changes no bit."""
        closed = self.closed
        active = bad = 0  # as sum() starts
        for end, _sla_id, start, intervals in sorted(
                closed[bisect.bisect(closed, (lo, math.inf)):] + opened,
                key=_BY_ID):
            length = ((now if now < end else end)
                      - (lo if lo > start else start))
            if length > 0.0:
                active += length
            for since, until in intervals:
                length = ((now if now < until else until)
                          - (lo if lo > since else since))
                if length > 0.0:
                    bad += length
        return active, bad


class SloEngine:
    """Evaluates per-class SLO health from session and violation feeds.

    Args:
        now: Clock callable (``lambda: sim.now``).
        specs: Objectives to enforce; :data:`DEFAULT_SLOS` when
            omitted.  Classes without a spec are tracked but never
            alert.
        stream: Optional shared event stream; alerts are emitted there
            under the ``"slo"`` category.
        occupancy: Optional callable returning a capacity-occupancy
            summary (e.g. the ``repro_capacity_utilization``
            time-weighted mean) folded into snapshots for context.

    Feed hooks (:meth:`session_started`, :meth:`session_ended`,
    :meth:`on_violation`, :meth:`on_restoration`) are cheap interval
    bookkeeping; the trailing-window clipping happens only inside
    :meth:`snapshot` / :meth:`evaluate`.
    """

    def __init__(self, now: "Callable[[], float]", *,
                 specs: "Optional[Tuple[SloSpec, ...]]" = None,
                 stream: Optional[EventStream] = None,
                 occupancy: "Optional[Callable[[], Mapping[str, float]]]"
                 = None) -> None:
        self._now = now
        self._specs = {spec.service_class: spec
                       for spec in (DEFAULT_SLOS if specs is None
                                    else specs)}
        self._stream = stream
        self._occupancy = occupancy
        self._tracks: "Dict[int, _SlaTrack]" = {}
        self._books: "Dict[str, _ClassBook]" = {}
        self._alerts: "List[AlertRecord]" = []
        self._burning: "Dict[Tuple[str, float], bool]" = {}

    @property
    def alerts(self) -> "List[AlertRecord]":
        """All alerts fired so far, in emit order (a copy)."""
        return list(self._alerts)

    # ------------------------------------------------------------------
    # Feed hooks
    # ------------------------------------------------------------------

    def session_started(self, sla_id: int, service_class: str,
                        time: float) -> None:
        """An SLA's session went active."""
        old = self._tracks.get(sla_id)
        if old is not None:  # a restart: the old track leaves its class
            book = self._books[old.service_class]
            book.ids.remove(sla_id)
            book.closed = [span for span in book.closed
                           if span[1] != sla_id]
            book.settled = book.active = book.bad = 0
        self._tracks[sla_id] = _SlaTrack(service_class, time)
        book = self._books.get(service_class)
        if book is None:
            book = self._books[service_class] = _ClassBook()
        if book.ids and sla_id < book.ids[-1]:  # out of id order: refold
            bisect.insort(book.ids, sla_id)
            book.settled = book.active = book.bad = 0
        else:
            book.ids.append(sla_id)

    def session_ended(self, sla_id: int, time: float) -> None:
        """An SLA's session closed (violations close with it)."""
        track = self._tracks.get(sla_id)
        if track is None or not track.active:
            return
        if track.violation_since is not None:
            track.bad.append((track.violation_since, time))
            track.violation_since = None
        track.ended = time
        track.active = False
        closed = self._books[track.service_class].closed
        if closed and time < closed[-1][0]:
            bisect.insort(closed, (time, sla_id, track.started, track.bad))
        else:
            closed.append((time, sla_id, track.started, track.bad))

    def on_violation(self, sla_id: int, time: float) -> None:
        """The verifier saw this SLA transition into violation."""
        track = self._tracks.get(sla_id)
        if track is None or not track.active:
            return
        if track.violation_since is None:
            track.violation_since = time

    def on_restoration(self, sla_id: int, time: float) -> None:
        """The verifier saw this SLA restored to conformance."""
        track = self._tracks.get(sla_id)
        if track is None:
            return
        if track.violation_since is not None:
            track.bad.append((track.violation_since, time))
            track.violation_since = None

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def snapshot(self, time: Optional[float] = None
                 ) -> "Dict[str, Dict[str, Any]]":
        """Per-class SLO state at ``time`` (defaults to now).

        Each entry reports total active time, bad (violating) time,
        achieved availability, the budget, and the burn rate per
        configured window; plus the occupancy context when an
        occupancy callable was wired. Open intervals run to ``time``.
        """
        now = self._now() if time is None else time
        report: "Dict[str, Dict[str, Any]]" = {}
        for service_class in sorted(self._books):
            book = self._books[service_class]
            if not book.ids:
                continue
            spec = self._specs.get(service_class)
            active_total, bad_total, opened = book.fold(self._tracks, now)
            availability = (1.0 if active_total <= 0.0
                            else 1.0 - bad_total / active_total)
            entry: "Dict[str, Any]" = {
                "sessions": len(book.ids),
                "active_time": round(active_total, 9),
                "bad_time": round(bad_total, 9),
                "availability": round(availability, 9),
            }
            if spec is not None:
                entry["objective"] = spec.availability
                entry["budget"] = round(spec.budget, 9)
                burn: "Dict[str, float]" = {}
                for window in spec.windows:
                    active_w, bad_w = book.window(opened, now, now - window)
                    if active_w <= 0.0 or spec.budget <= 0.0:
                        rate = 0.0
                    else:
                        rate = (bad_w / active_w) / spec.budget
                    burn[f"{window:g}s"] = round(rate, 9)
                entry["burn_rate"] = burn
            report[service_class] = entry
        if self._occupancy is not None:
            occupancy = dict(self._occupancy())
            if occupancy:
                report["_occupancy"] = {key: round(float(value), 9)
                                        for key, value
                                        in sorted(occupancy.items())}
        return report

    def evaluate(self, time: Optional[float] = None
                 ) -> "List[AlertRecord]":
        """Compute burn rates and fire alerts on threshold transitions.

        Returns the alerts fired by *this* evaluation (often empty);
        an alert fires only when a ``(class, window)`` pair crosses
        from below to at-or-above the spec's threshold, so repeated
        evaluations inside a sustained burn produce exactly one alert.
        """
        now = self._now() if time is None else time
        snapshot = self.snapshot(now)
        fired: "List[AlertRecord]" = []
        for service_class in sorted(snapshot):
            entry = snapshot[service_class]
            spec = self._specs.get(service_class)
            if spec is None or "burn_rate" not in entry:
                continue
            for window in spec.windows:
                rate = entry["burn_rate"][f"{window:g}s"]
                key = (service_class, window)
                burning = rate >= spec.burn_threshold
                if burning and not self._burning.get(key, False):
                    alert = AlertRecord(time=now,
                                        service_class=service_class,
                                        window=window, burn_rate=rate,
                                        threshold=spec.burn_threshold,
                                        budget=round(spec.budget, 9))
                    self._alerts.append(alert)
                    fired.append(alert)
                    if self._stream is not None:
                        self._stream.emit(
                            now, "slo",
                            f"burn-rate alert: {service_class} "
                            f"{window:g}s window",
                            service_class=service_class, window=window,
                            burn_rate=rate,
                            threshold=spec.burn_threshold,
                            budget=round(spec.budget, 9))
                self._burning[key] = burning
        return fired
