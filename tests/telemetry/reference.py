"""Earlier instrument implementations, kept as differential oracles.

* :class:`ReferenceTimeWeightedGauge` — the time gauge as a window of
  the multi-signal :class:`~repro.telemetry.TimeWeightedMetrics`
  (``observe(time, value=...)`` per set), which
  :class:`~repro.telemetry.metrics.TimeWeightedGauge` replaced with a
  running integral it keeps itself.
* :func:`reference_jsonify` — the decision-payload normaliser before
  its exact-type fast path: every value through the ``Enum`` /
  ``typing.Mapping`` ABC checks.

``test_instrument_oracles.py`` holds the new code to these bit for bit.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Mapping, Optional

from repro.telemetry import TimeWeightedMetrics


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
