"""The discrete-event simulator.

A :class:`Simulator` owns the clock and the event queue. Components
(broker, resource managers, workload generators) schedule callbacks via
:meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`, and the test
or experiment harness drives the run with :meth:`Simulator.run`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..errors import SimulationError
from .events import Event, EventQueue, PRIORITY_NORMAL
from .trace import TraceRecorder


class Simulator:
    """A deterministic discrete-event simulator.

    Args:
        start_time: Initial value of the simulation clock.
        trace: Optional :class:`TraceRecorder`; when given, every fired
            event with a label is recorded.
    """

    def __init__(self, start_time: float = 0.0,
                 trace: Optional[TraceRecorder] = None) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self.trace = trace

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def running(self) -> bool:
        """Whether :meth:`run` is currently on the call stack."""
        return self._running

    def advance(self, delta: float) -> int:
        """Let ``delta`` time units pass, firing any due events.

        Equivalent to ``run(until=now + delta)``: the clock always ends
        at ``now + delta``. Used by synchronous callers that need to
        wait on the simulation clock (e.g. a retry backoff) while the
        rest of the world keeps moving.

        Raises:
            SimulationError: On a negative delta or when called from
                inside a running event (use :attr:`running` to guard).
        """
        if delta < 0:
            raise SimulationError(f"negative advance: {delta}")
        return self.run(until=self._now + delta)

    def __len__(self) -> int:
        """Number of pending events."""
        return len(self._queue)

    def schedule(self, delay: float, action: Callable[[], Any], *,
                 priority: int = PRIORITY_NORMAL, label: str = "") -> Event:
        """Schedule ``action`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self._queue.push(self._now + delay, action,
                                priority=priority, label=label)

    def schedule_at(self, time: float, action: Callable[[], Any], *,
                    priority: int = PRIORITY_NORMAL, label: str = "") -> Event:
        """Schedule ``action`` to fire at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self._now}")
        return self._queue.push(time, action, priority=priority, label=label)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        self._queue.cancel(event)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run the simulation.

        Args:
            until: Stop once the clock would pass this time; the clock is
                left at ``until``. When ``None``, run until the queue
                drains.
            max_events: Safety cap on the number of events processed.

        Returns:
            The number of events processed.

        Raises:
            SimulationError: On re-entrant ``run`` calls or when
                ``max_events`` is exceeded.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        processed = 0
        queue = self._queue
        try:
            while len(queue) > 0:
                next_time = queue.peek_time()
                assert next_time is not None
                if until is not None and next_time > until:
                    break
                event = queue.pop()
                self._now = event.time
                if self.trace is not None and event.label:
                    self.trace.record(self._now, "event", event.label)
                event.action()
                processed += 1
                if max_events is not None and processed >= max_events:
                    if len(self._queue) > 0:
                        raise SimulationError(
                            f"exceeded max_events={max_events} with "
                            f"{len(self._queue)} events still pending")
                    break
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return processed
