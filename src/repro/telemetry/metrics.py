"""The metrics registry: counters, gauges and time-weighted gauges,
keyed by ``(name, labels)``.

Naming follows the Prometheus conventions: ``repro_<subsystem>_<what>``
with ``_total`` suffixing monotone counters; labels hold the low-
cardinality dimensions (pool, tier, action, op). The registry is the
*single* counting mechanism for cross-cutting operational stats —
components must not keep private ``self.foo += 1`` counters for them
(enforced by lint rule QLNT113).

Time-weighted gauges integrate in place, so the exported means are
exact integrals of the piecewise-constant signal on the *simulation*
clock, not sample averages. A lookup is two dict reads: a call's
signature (name, label names, stringified values) is validated once
per process into its series key, in a table every registry shares.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ValidationError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_LabelTuple = Tuple[Tuple[str, str], ...]
_Key = Tuple[str, _LabelTuple]

#: Call signature -> validated series key (as many as distinct label
#: sets a process emits: few, by the low-cardinality convention).
_SERIES: "Dict[Tuple[str, ...], _Key]" = {}


def _key(signature: "Tuple[str, ...]", labels: "Dict[str, Any]") -> _Key:
    """Validate a call signature's series key and remember it."""
    name = signature[0]
    if not _NAME_RE.match(name):
        raise ValidationError(f"invalid metric name: {name!r}")
    for label in labels:
        if not _LABEL_RE.match(label):
            raise ValidationError(f"invalid label name: {label!r}")
    key = _SERIES[signature] = name, tuple(sorted(
        (label, str(value)) for label, value in labels.items()))
    return key


class Counter:
    """A monotone counter."""

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValidationError(
                f"counter increments must be >= 0: {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value."""

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def add(self, delta: float) -> None:
        """Adjust the current value by ``delta``."""
        self.value += delta


class TimeWeightedGauge:
    """A gauge whose mean is an exact time-weighted integral.

    The window opens lazily at the first :meth:`set`, so a gauge
    created late does not dilute its mean with a zero-filled lead-in
    (open it with ``set_at(start, 0.0)`` to zero-fill instead). The
    running integral adds ``value * span`` at every set and read, in
    time order, so a gauge stepped at every instant of a multi-signal
    window holds that window's exact integral bit for bit.
    """

    __slots__ = ("_now", "_start", "_last", "_integral", "value")

    def __init__(self, now: Callable[[], float]) -> None:
        self._now = now
        self._start: Optional[float] = None
        self._last = 0.0
        self._integral = 0.0
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the value holding from now onwards."""
        self.set_at(self._now(), value)

    def set_at(self, time: float, value: float) -> None:
        """Record the value holding from ``time``, a reading of this
        gauge's clock the caller already took (gauges written at one
        instant can share one reading)."""
        if self._start is None:
            self._start = time
        elif time < self._last:
            raise ValidationError(
                f"observation at {time} precedes last at {self._last}")
        else:
            self._integral += self.value * (time - self._last)
        self._last = time
        self.value = float(value)

    def integral(self) -> float:
        """Time-weighted integral from the first set to now."""
        if self._start is not None:
            self.set_at(self._now(), self.value)
        return self._integral

    def mean(self) -> float:
        """Time-weighted mean from the first set to now."""
        integral = self.integral()
        elapsed = 0.0 if self._start is None else self._last - self._start
        return 0.0 if elapsed <= 0 else integral / elapsed


class MetricsRegistry:
    """Counters, gauges and time-weighted gauges keyed by ``(name, labels)``.

    Args:
        now: Clock callable feeding the time-weighted gauges; a
            registry built without one treats every instant as ``t=0``
            (plain counters and gauges are unaffected). Readable as
            :attr:`now`.
    """

    def __init__(self, now: Optional[Callable[[], float]] = None) -> None:
        self.now = now if now is not None else (lambda: 0.0)
        self._kinds: Dict[str, str] = {}
        self._counters: "Dict[_Key, Counter]" = {}
        self._gauges: "Dict[_Key, Gauge]" = {}
        self._time_gauges: "Dict[_Key, TimeWeightedGauge]" = {}

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------

    def _series(self, name: str, kind: str, labels: "Dict[str, Any]"
                ) -> _Key:
        """The validated series key, with ``name`` held to one kind."""
        signature = (name, *labels, *map(str, labels.values()))
        key = _SERIES.get(signature) or _key(signature, labels)
        declared = self._kinds.setdefault(name, kind)
        if declared != kind:
            raise ValidationError(
                f"metric {name!r} already registered as a {declared}, "
                f"cannot reuse it as a {kind}")
        return key

    def _get(self, table: "Dict[_Key, Any]", kind: str, name: str,
             labels: "Dict[str, Any]", factory: Callable[..., Any],
             *args: Any) -> Any:
        """Get or create. A key already in ``table`` passed the kind
        check when it was put there, so a hit needs no other test."""
        instrument = table.get(_SERIES.get(
            (name, *labels, *map(str, labels.values()))))
        if instrument is None:
            key = self._series(name, kind, labels)
            instrument = table.get(key)
            if instrument is None:
                instrument = table[key] = factory(*args)
        return instrument

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create a counter."""
        return self._get(self._counters, "counter", name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get or create a gauge."""
        return self._get(self._gauges, "gauge", name, labels, Gauge)

    def time_gauge(self, name: str, **labels: Any) -> TimeWeightedGauge:
        """Get or create a time-weighted gauge."""
        return self._get(self._time_gauges, "timegauge", name, labels,
                         TimeWeightedGauge, self.now)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        """A counter's value (0 when never incremented)."""
        key = self._series(name, "counter", labels)
        instrument = self._counters.get(key)
        return instrument.value if instrument is not None else 0.0

    def as_dict(self) -> "Dict[str, float]":
        """Flat snapshot ``"name{a=b}" -> value`` for assertions."""
        data: Dict[str, float] = {}
        for (name, labels), counter in self._counters.items():
            data[_flat(name, labels)] = counter.value
        for (name, labels), gauge in self._gauges.items():
            data[_flat(name, labels)] = gauge.value
        for (name, labels), tw in self._time_gauges.items():
            data[_flat(name, labels)] = tw.value
            data[_flat(name + "_timeweighted_mean", labels)] = tw.mean()
        return data

    def render_prometheus(self) -> str:
        """Prometheus text-exposition snapshot (sorted, deterministic).

        Time-weighted gauges export two series: the current value under
        their own name and the exact time-weighted mean under
        ``<name>_timeweighted_mean``.
        """
        families: "Dict[str, Tuple[str, List[str]]]" = {}

        def row(family: str, kind: str, name: str, labels: _LabelTuple,
                value: float) -> None:
            rendered = name
            if labels:
                body = ",".join(f'{label}="{_escape(text)}"'
                                for label, text in labels)
                rendered = f"{name}{{{body}}}"
            families.setdefault(family, (kind, []))[1].append(
                f"{rendered} {value:g}")

        for (name, labels), counter in sorted(self._counters.items()):
            row(name, "counter", name, labels, counter.value)
        for (name, labels), gauge in sorted(self._gauges.items()):
            row(name, "gauge", name, labels, gauge.value)
        for (name, labels), tw in sorted(self._time_gauges.items()):
            row(name, "gauge", name, labels, tw.value)
            row(name + "_timeweighted_mean", "gauge",
                name + "_timeweighted_mean", labels, tw.mean())

        lines: List[str] = []
        for family in sorted(families):
            kind, rows = families[family]
            lines.append(f"# TYPE {family} {kind}")
            lines.extend(rows)
        return "\n".join(lines)


def _flat(name: str, labels: _LabelTuple) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{label}={value}" for label, value in labels)
    return f"{name}{{{rendered}}}"


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))
