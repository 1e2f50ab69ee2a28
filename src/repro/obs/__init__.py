"""Observability: decision provenance, SLO budgets, flight recorder.

PR-4 gave the control plane spans and metrics (*what happened*), PR-5
a write-ahead journal (*what durably changed*).  This package adds the
third surface — *why*:

* :mod:`repro.obs.decisions` — every admit/reject/degrade/rebalance
  path emits a :class:`DecisionRecord` carrying the candidate levels,
  per-pool headroom, the failing constraint or the accepted point,
  stamped with the active span id and the newest durable journal LSN;
* :mod:`repro.obs.slo` — declarative per-class availability
  objectives with error budgets, multi-window burn rates, and
  deterministic alerts, evaluated on the sim clock;
* :mod:`repro.obs.flight` — the query layer joining decisions, spans
  and journal into ``repro obs why|timeline|slo`` reports.

Components emit through :mod:`repro.probe`, so everything is a no-op
until installed (QLNT116: no reject/degrade path skips the emit).
"""

from __future__ import annotations

from .decisions import DecisionLog, DecisionRecord, point_payload
from .flight import FlightRecorder
from .slo import DEFAULT_SLOS, AlertRecord, SloEngine, SloSpec

__all__ = [
    "AlertRecord",
    "DEFAULT_SLOS",
    "DecisionLog",
    "DecisionRecord",
    "FlightRecorder",
    "SloEngine",
    "SloSpec",
    "point_payload",
]
