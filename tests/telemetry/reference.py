"""Earlier instrument implementations, kept as differential oracles.

* :class:`TimeWeightedMetrics` — exact integrals of several
  piecewise-constant signals over one shared window; the experiment
  harness integrated through it before it moved onto one
  :class:`~repro.telemetry.metrics.TimeWeightedGauge` per signal.
* :class:`ReferenceTimeWeightedGauge` — the time gauge as a window of
  :class:`TimeWeightedMetrics` (``observe(time, value=...)`` per set),
  which :class:`~repro.telemetry.metrics.TimeWeightedGauge` replaced
  with a running integral it keeps itself.
* :func:`reference_jsonify` — the decision-payload normaliser before
  its exact-type fast path: every value through the ``Enum`` /
  ``typing.Mapping`` ABC checks.

``test_instrument_oracles.py`` and ``tests/experiments/test_metrics.py``
hold the new code to these bit for bit.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Dict, Mapping, Optional

from repro.errors import ValidationError


class TimeWeightedMetrics:
    """Exact integrals of piecewise-constant signals.

    The harness's integral before it moved onto per-signal
    :class:`~repro.telemetry.metrics.TimeWeightedGauge` windows. Two
    semantics are explicit: a signal first observed at ``t > start`` is
    zero-filled over ``[start, t)`` (:meth:`first_observed` and
    :meth:`zero_filled` expose the gap), and a window closes exactly
    once (a second :meth:`finalize` or a later :meth:`observe` raises
    :class:`~repro.errors.ValidationError`).

    Usage::

        metrics = TimeWeightedMetrics(start=0.0)
        metrics.observe(t1, utilization=0.5, violation=0.0)
        metrics.observe(t2, utilization=0.8, violation=1.0)
        metrics.finalize(horizon)
        metrics.mean("utilization")
    """

    def __init__(self, start: float = 0.0) -> None:
        self._start = start
        self._last_time = start
        self._last_values: Dict[str, float] = {}
        self._integrals: Dict[str, float] = {}
        self._first_seen: Dict[str, float] = {}
        self._finalized = False

    def observe(self, time: float, **signals: float) -> None:
        """Record the signal values holding from ``time`` onwards.

        A signal appearing here for the first time after ``start`` is
        zero-filled over the preceding gap (see the module docstring);
        the gap is queryable via :meth:`zero_filled`.

        Raises:
            ValidationError: When ``time`` precedes the last
                observation, or the window is already finalized.
        """
        if self._finalized:
            raise ValidationError(
                f"window closed at {self._last_time}; cannot observe "
                f"at {time}")
        if time < self._last_time:
            raise ValidationError(
                f"observation at {time} precedes last at {self._last_time}")
        span = time - self._last_time
        for name, value in self._last_values.items():
            self._integrals[name] = self._integrals.get(name, 0.0) \
                + value * span
        self._last_time = time
        self._last_values.update(signals)
        for name in signals:
            self._integrals.setdefault(name, 0.0)
            self._first_seen.setdefault(name, time)

    def finalize(self, end: float) -> None:
        """Close the window at ``end`` (integrating the last values).

        Raises:
            ValidationError: On a second ``finalize`` — the window
                boundary is part of every reported mean, so moving it
                silently would corrupt already-read results.
        """
        if self._finalized:
            raise ValidationError(
                f"window already finalized at {self._last_time}; "
                f"cannot re-finalize at {end}")
        self.observe(end)
        self._finalized = True

    @property
    def finalized(self) -> bool:
        """Whether the window has been closed."""
        return self._finalized

    @property
    def elapsed(self) -> float:
        """Window length so far."""
        return self._last_time - self._start

    def first_observed(self, name: str) -> Optional[float]:
        """When the signal was first observed (``None`` if never)."""
        return self._first_seen.get(name)

    def zero_filled(self, name: str) -> float:
        """Length of the zero-filled lead-in gap ``[start, first)``.

        0 for signals present from the window start (and for signals
        never observed, whose integral is 0 anyway).
        """
        first = self._first_seen.get(name)
        if first is None:
            return 0.0
        return max(0.0, first - self._start)

    def integral(self, name: str) -> float:
        """The signal's integral over the window."""
        return self._integrals.get(name, 0.0)

    def mean(self, name: str) -> float:
        """Time-average of the signal (0 for an empty window)."""
        if self.elapsed <= 0:
            return 0.0
        return self.integral(name) / self.elapsed



class ReferenceTimeWeightedGauge:
    """``TimeWeightedGauge``'s contract over ``TimeWeightedMetrics``."""

    def __init__(self, now: Callable[[], float]) -> None:
        self._now = now
        self._window: Optional[TimeWeightedMetrics] = None
        self.value = 0.0

    def set(self, value: float) -> None:
        time = self._now()
        if self._window is None:
            self._window = TimeWeightedMetrics(start=time)
        self._window.observe(time, value=float(value))
        self.value = float(value)

    def mean(self) -> float:
        if self._window is None:
            return 0.0
        self._window.observe(self._now())
        return self._window.mean("value")


def reference_jsonify(value: Any) -> Any:
    """Recursively re-key enums and stringify exotic values."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        return {(reference_jsonify(key) if not isinstance(key, str)
                 else key):
                reference_jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonify(item) for item in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)
