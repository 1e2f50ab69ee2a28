"""Bounded idempotency caches for at-least-once delivery.

With fault injection (or plain client retries) an endpoint can see the
same logical request more than once: a duplicated delivery reuses the
envelope's ``message_id``; a retry carries ``retry_of``. Either way the
:attr:`~repro.xmlmsg.envelope.Envelope.dedup_key` identifies the one
logical operation, and a :class:`DedupCache` remembers its outcome so
re-deliveries are answered without re-executing the handler — a
duplicated ``create`` must never double-reserve capacity.

The cache is bounded (FIFO eviction) so a long-lived endpoint cannot
grow without limit; the capacity only needs to cover the retry window,
not the session's lifetime.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Optional, TypeVar

from ..errors import ValidationError
from ..telemetry.metrics import MetricsRegistry

V = TypeVar("V")

#: Default number of remembered operations per endpoint.
DEFAULT_CAPACITY = 256


class DedupCache(Generic[V]):
    """A bounded mapping from idempotency key to cached outcome.

    Hit and eviction counts live in a :class:`MetricsRegistry` — a
    private one by default, or the control plane's shared registry
    after :meth:`bind_metrics` — so they show up in the telemetry
    snapshot instead of as shadow attributes.

    Args:
        capacity: Maximum number of remembered keys; the oldest entry
            is evicted first (insertion order, deterministic).
        metrics: Registry for the counters (private when omitted).
        **labels: Labels for the counters (e.g. ``endpoint="aqos"``).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *,
                 metrics: Optional[MetricsRegistry] = None,
                 **labels: str) -> None:
        if capacity < 1:
            raise ValidationError(
                f"dedup capacity must be at least 1: {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, V]" = OrderedDict()
        self.bind_metrics(metrics if metrics is not None
                          else MetricsRegistry(), **labels)

    def bind_metrics(self, metrics: MetricsRegistry,
                     **labels: str) -> None:
        """Re-point the counters at a shared registry, carrying the
        counts accrued so far into the new home."""
        hits, evictions = getattr(self, "_hits", None), \
            getattr(self, "_evictions", None)
        self._hits = metrics.counter("repro_dedup_hits_total", **labels)
        self._evictions = metrics.counter("repro_dedup_evictions_total",
                                          **labels)
        if hits is not None and hits.value:
            self._hits.inc(hits.value)
        if evictions is not None and evictions.value:
            self._evictions.inc(evictions.value)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def seen(self, key: str) -> bool:
        """Whether ``key`` was already executed (counts as a hit)."""
        if key in self._entries:
            self._hits.inc()
            return True
        return False

    def get(self, key: str) -> Optional[V]:
        """The cached outcome for ``key`` (``None`` when unknown)."""
        return self._entries.get(key)

    def put(self, key: str, value: V) -> V:
        """Remember the outcome of one executed operation."""
        if key not in self._entries and len(self._entries) >= self.capacity:
            evicted_key = next(iter(self._entries))
            del self._entries[evicted_key]
            self._evictions.inc()
        self._entries[key] = value
        return value
