"""Deterministic telemetry: spans, metrics, and exporters.

The :class:`Telemetry` hub bundles the three surfaces behind one
handle, installed behind the testbed's :class:`repro.probe.Probe`:

* :attr:`Telemetry.tracer` — sim-clock spans with parent/child
  causality that propagates across bus legs (see
  :mod:`repro.telemetry.spans`);
* :attr:`Telemetry.metrics` — the counters/gauges registry
  (see :mod:`repro.telemetry.metrics`);
* :attr:`Telemetry.stream` — the shared append-only event log behind
  both the legacy trace and the span export (see
  :mod:`repro.telemetry.events`).

The hub *adopts* existing infrastructure rather than replacing it —
pass the broker's registry and the trace recorder's stream so there is
exactly one counting mechanism and one event log per testbed.
"""

from __future__ import annotations

from typing import Callable, Optional

from .capacity import CapacityGauges
from .events import EventStream, TelemetryEvent
from .export import (events_jsonl, figure6_report, prometheus_snapshot,
                     span_tree)
from .metrics import Counter, Gauge, MetricsRegistry, TimeWeightedGauge
from .spans import Span, Tracer

__all__ = [
    "CapacityGauges",
    "Counter",
    "EventStream",
    "Gauge",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "TelemetryEvent",
    "TimeWeightedGauge",
    "Tracer",
    "events_jsonl",
    "figure6_report",
    "prometheus_snapshot",
    "span_tree",
]


class Telemetry:
    """The telemetry hub: one tracer, one registry, one event stream.

    Args:
        now: Clock callable (``lambda: sim.now``).
        stream: Existing event stream to adopt (e.g. the testbed trace
            recorder's); a fresh one is created when omitted.
        metrics: Existing registry to adopt (e.g. the broker's); a
            fresh one is created when omitted.
    """

    def __init__(self, now: Callable[[], float], *,
                 stream: Optional[EventStream] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.now = now
        self.stream = stream if stream is not None else EventStream()
        self.metrics = (metrics if metrics is not None
                        else MetricsRegistry(now=now))
        self.tracer = Tracer(now, stream=self.stream)
        self.capacity = CapacityGauges(self.metrics)

    def report(self, *, title: str = "telemetry") -> str:
        """The combined Figure-6-style activity report."""
        return figure6_report(self, title=title)
