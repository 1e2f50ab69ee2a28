"""Time-ordered event queue for the discrete-event engine.

Events are ordered by ``(time, priority, sequence)``: earlier times
first, then lower priority numbers, then insertion order. The sequence
tiebreak makes simulations fully deterministic — two events scheduled
for the same instant always fire in the order they were scheduled.

The heap itself holds flat ``(time, priority, seq)`` tuples, not
:class:`Event` objects: tuple comparisons run at C speed and the sift
operations never call back into Python, which matters when the broker
schedules tens of thousands of window-end events. The ``seq`` component
keys a side table mapping back to the :class:`Event` handle; cancelling
an event removes it from the side table, so dead heap entries are
discarded on pop/peek without touching the handle again.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError

#: Priority for ordinary events.
PRIORITY_NORMAL = 0
#: Priority for bookkeeping that must run before normal events at an instant.
PRIORITY_HIGH = -10
#: Priority for sampling/metric events that must observe a settled instant.
PRIORITY_LOW = 10


class Event:
    """A scheduled callback.

    Attributes:
        time: Simulation time at which the event fires.
        priority: Lower numbers fire first within the same instant.
        seq: Insertion sequence number (engine-assigned tiebreak).
        action: Zero-argument callable run when the event fires.
        label: Human-readable tag for traces and debugging.
        cancelled: Whether the event was cancelled before firing.
    """

    __slots__ = ("time", "priority", "seq", "action", "label", "cancelled")

    def __init__(self, time: float, priority: int, seq: int,
                 action: Callable[[], Any], label: str = "",
                 cancelled: bool = False) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it is popped."""
        self.cancelled = True

    def __repr__(self) -> str:
        return (f"Event(time={self.time!r}, priority={self.priority!r}, "
                f"seq={self.seq!r}, action={self.action!r}, "
                f"label={self.label!r}, cancelled={self.cancelled!r})")


class EventQueue:
    """A binary-heap event queue with lazy cancellation.

    The heap stores bare ``(time, priority, seq)`` tuples; ``_events``
    maps each live ``seq`` to its :class:`Event`. Cancellation removes
    the side-table entry and leaves the tuple in the heap — pop and
    peek skip tuples whose ``seq`` is no longer mapped (or whose event
    was cancelled directly via :meth:`Event.cancel`).
    """

    def __init__(self) -> None:
        self._heap: "List[Tuple[float, int, int]]" = []
        self._events: "Dict[int, Event]" = {}
        self._next_seq = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) events."""
        return self._live

    def push(self, time: float, action: Callable[[], Any], *,
             priority: int = PRIORITY_NORMAL, label: str = "") -> Event:
        """Schedule ``action`` at ``time`` and return the event handle."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, priority, seq, action, label)
        self._events[seq] = event
        heapq.heappush(self._heap, (time, priority, seq))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (no-op if already cancelled)."""
        if not event.cancelled:
            event.cancel()
            self._events.pop(event.seq, None)
            self._live -= 1

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises:
            SimulationError: If the queue is empty.
        """
        heap = self._heap
        events = self._events
        while heap:
            seq = heapq.heappop(heap)[2]
            event = events.pop(seq, None)
            if event is None or event.cancelled:
                continue
            self._live -= 1
            return event
        raise SimulationError("pop from an empty event queue")

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` when empty."""
        heap = self._heap
        events = self._events
        while heap:
            head = heap[0]
            event = events.get(head[2])
            if event is not None and not event.cancelled:
                return head[0]
            heapq.heappop(heap)
            if event is not None:
                del events[head[2]]
        return None
