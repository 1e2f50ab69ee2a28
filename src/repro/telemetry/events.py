"""The shared telemetry event stream.

One :class:`EventStream` is the single append-only log behind the
whole observability surface: every trace row the components record,
every finished span the tracer closes, lands here as a
:class:`TelemetryEvent`. The legacy
:class:`~repro.sim.trace.TraceRecorder` is a thin view over this
stream (it aliases :class:`TelemetryEvent` as ``TraceEntry``), so
there is exactly one log, not a bespoke trace plus a parallel
telemetry feed.

Timestamps are **simulation** time — the stream never touches the
wall clock, which is what keeps the exported JSONL byte-deterministic
for a fixed seed.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, NamedTuple


class TelemetryEvent(NamedTuple):
    """One event row (an immutable tuple).

    Attributes:
        time: Simulation time of the action.
        category: Coarse grouping, e.g. ``"negotiation"``, ``"gara"``,
            ``"span"``.
        message: Human-readable description.
        details: Structured payload for programmatic assertions.
    """

    time: float
    category: str
    message: str
    details: Dict[str, Any]


class EventStream:
    """An append-only, shareable log of telemetry events."""

    def __init__(self) -> None:
        self._events: List[TelemetryEvent] = []

    def emit(self, time: float, category: str, message: str,
             **details: Any) -> TelemetryEvent:
        """Append a new event and return it."""
        return self.append(TelemetryEvent(time, category, message, details))

    def append(self, event: TelemetryEvent) -> TelemetryEvent:
        """Append a built event and return it; a row keeps the details
        dict its builder made, without a copy."""
        self._events.append(event)
        return event

    @property
    def events(self) -> List[TelemetryEvent]:
        """All events, in order (a copy; safe to mutate)."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TelemetryEvent]:
        return iter(self._events)

    def clear(self) -> None:
        """Drop all recorded events."""
        self._events.clear()

    def to_jsonl(self) -> str:
        """Render the stream as one JSON object per line.

        Keys are sorted and non-JSON detail values are stringified, so
        equal streams always serialize to equal bytes.
        """
        lines = []
        for event in self._events:
            lines.append(json.dumps(
                {"time": event.time, "category": event.category,
                 "message": event.message, "details": event.details},
                sort_keys=True, default=str))
        return "\n".join(lines)
