"""Structured trace recording.

Experiments and the Figure 2 sequence-diagram reproduction need an
auditable record of "who did what when". Components append rows to a
shared :class:`TraceRecorder`; the experiment harness renders them as
the broker activity log (the paper's Figure 6 screenshot) or filters
them for assertions.

The recorder is a thin view over the telemetry
:class:`~repro.telemetry.events.EventStream` — there is exactly one
append-only log per testbed, shared with the span layer, and
``TraceEntry`` is an alias of
:class:`~repro.telemetry.events.TelemetryEvent`.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional

from ..telemetry.events import EventStream, TelemetryEvent

#: Backwards-compatible alias: trace rows ARE telemetry events.
TraceEntry = TelemetryEvent


class TraceRecorder:
    """An append-only, filterable log of simulation activity.

    Args:
        stream: Event stream to record into; owns a fresh one when
            omitted. Pass the telemetry hub's stream to interleave
            component trace rows with finished spans in one log.
    """

    def __init__(self, stream: Optional[EventStream] = None) -> None:
        self._stream = stream if stream is not None else EventStream()

    @property
    def stream(self) -> EventStream:
        """The underlying shared event stream."""
        return self._stream

    def record(self, time: float, category: str, message: str,
               **details: Any) -> TraceEntry:
        """Append a row and return it."""
        return self._stream.append(
            TelemetryEvent(time, category, message, details))

    def __len__(self) -> int:
        return len(self._stream)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self._stream)

    @property
    def entries(self) -> List[TraceEntry]:
        """All rows, in order (a copy; safe to mutate)."""
        return self._stream.events

    def filter(self, category: Optional[str] = None,
               contains: Optional[str] = None) -> List[TraceEntry]:
        """Rows matching a category and/or a message substring."""
        result: List[TraceEntry] = self._stream.events
        if category is not None:
            result = [entry for entry in result if entry.category == category]
        if contains is not None:
            result = [entry for entry in result if contains in entry.message]
        return list(result)

    def categories(self) -> List[str]:
        """Distinct categories, in first-seen order."""
        seen: "dict[str, None]" = {}
        for entry in self._stream:
            seen.setdefault(entry.category, None)
        return list(seen)

    def render(self, *, width: int = 78) -> str:
        """Render the log as text (the Figure 6 'broker activities' view)."""
        lines = []
        for entry in self._stream:
            prefix = f"[{entry.time:10.3f}] {entry.category:<14} "
            body = entry.message
            lines.append((prefix + body)[:width * 4])
        return "\n".join(lines)

    def clear(self) -> None:
        """Drop all recorded rows."""
        self._stream.clear()
