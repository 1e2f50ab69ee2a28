"""Decision provenance: *why* the control plane did what it did.

PR-4 spans record *that* an admission or adaptation happened; the PR-5
journal records *what* state it durably changed.  Neither records the
inputs of the choice — which candidate levels were considered, how much
head-room each pool had at that instant, which constraint refused the
request, what the accepted point earns.  A :class:`DecisionRecord`
captures exactly that, one record per admit/reject/degrade/rebalance
verdict, stamped with the active span and the newest durable journal
LSN so the three surfaces join into one causal episode.

Components emit through :meth:`repro.probe.Probe.decide`, a no-op
until this log is installed; sites that build an expensive payload
gate on ``probe.explaining`` (QLNT116 enforces that no reject/degrade
path skips the call).  Records are JSON-safe at emit
time — operating points keyed by :class:`~repro.qos.parameters.Dimension`
are re-keyed by the dimension's unit name — and flow into the shared
:class:`~repro.telemetry.EventStream` under the ``"decision"``
category, so the JSONL export stays the single byte-deterministic log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..telemetry.events import EventStream, TelemetryEvent
from ..telemetry.spans import Span

__all__ = [
    "DecisionLog",
    "DecisionRecord",
    "point_payload",
]


def point_payload(point: "Mapping[Any, float]") -> "Dict[str, float]":
    """An operating point as a JSON-safe dict (unit-name keys, sorted).

    Accepts both raw ``{Dimension: value}`` points and already-string
    keyed dicts, so emit sites can pass whichever they hold.
    """
    flat = {}
    for dimension, value in point.items():
        key = dimension.value if isinstance(dimension, Enum) else str(dimension)
        flat[key] = value
    return {key: flat[key] for key in sorted(flat)}


#: Exact types :func:`_jsonify` returns as they are. Being exactly these
#: builtins, none is an Enum or a Mapping, so they skip the ABC checks.
_PLAIN = frozenset({str, int, float, bool, type(None)})


def _jsonify(value: Any) -> Any:
    """Recursively re-key enums and stringify exotic values."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is dict:
        return {(key if isinstance(key, str) else _jsonify(key)):
                (item if type(item) in _PLAIN else _jsonify(item))
                for key, item in value.items()}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        return {(_jsonify(key) if not isinstance(key, str) else key):
                _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


@dataclass(frozen=True)
class DecisionRecord:
    """One control-plane verdict with its full context.

    Attributes:
        decision_id: Monotonic per-log sequence number.
        time: Simulation time of the verdict.
        action: What kind of choice this was (``"admission"``,
            ``"best_effort"``, ``"activation"``, ``"optimizer"``,
            ``"rebalance"``, ``"violation"``, ``"restoration"``,
            ``"adaptation"``, ``"promotion"``, ``"renegotiation"``).
        outcome: The verdict (``"accept"``, ``"reject"``, ``"grant"``,
            ``"squeeze"``, ``"detected"``, ...).
        subject: Who the verdict is about — a client name for
            pre-SLA rejects, ``"sla-<id>"`` afterwards,
            ``"partition"`` for rebalances.
        sla_id: The owning SLA id when one exists.
        constraint: The specific constraint that failed on a reject
            (``"discovery"``, ``"capacity"``, ``"negotiation"``,
            ``"reservation"``, ...); empty on success.
        reason: Human-readable explanation.
        candidates: The quality levels that were on the table, each a
            JSON-safe dict (point, demand, revenue rate).
        chosen: The accepted point/level with its revenue value
            (``None`` on rejects).
        headroom: Per-pool capacity context at decision time (only
            non-flushing partition reads — see :class:`DecisionLog`).
        trace_id / span_id: The enclosing PR-4 span, empty strings
            when no span was open.
        lsn: The newest durably-appended PR-5 journal LSN at emit time
            (0 when no journal is installed).
    """

    decision_id: int
    time: float
    action: str
    outcome: str
    subject: str = ""
    sla_id: Optional[int] = None
    constraint: str = ""
    reason: str = ""
    candidates: "Tuple[Dict[str, Any], ...]" = ()
    chosen: "Optional[Dict[str, Any]]" = None
    headroom: "Dict[str, float]" = field(default_factory=dict)
    trace_id: str = ""
    span_id: str = ""
    lsn: int = 0

    def to_dict(self) -> "Dict[str, Any]":
        """The record as a plain JSON-safe dict."""
        return {
            "decision_id": self.decision_id,
            "time": self.time,
            "action": self.action,
            "outcome": self.outcome,
            "subject": self.subject,
            "sla_id": self.sla_id,
            "constraint": self.constraint,
            "reason": self.reason,
            "candidates": list(self.candidates),
            "chosen": self.chosen,
            "headroom": dict(self.headroom),
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "lsn": self.lsn,
        }


class DecisionLog:
    """The append-only decision-provenance log.

    Args:
        now: Clock callable (``lambda: sim.now``).
        stream: Optional shared event stream; every record is also
            emitted there under the ``"decision"`` category so the
            JSONL export carries the provenance feed.

    Emit sites must pass only **non-flushing** capacity reads in
    ``headroom`` (``effective_sizes()``, ``committed_total()``, the
    nominal pool sizes) — a flushing read (``idle_capacity()``,
    ``snapshot()``) would settle a deferred batch rebalance mid-batch
    and change the journal record sequence.
    """

    def __init__(self, now: "Callable[[], float]", *,
                 stream: Optional[EventStream] = None) -> None:
        self._now = now
        self._stream = stream
        self._records: "List[DecisionRecord]" = []

    @property
    def records(self) -> "List[DecisionRecord]":
        """All records, in emit order (a copy)."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def decide(self, action: str, outcome: str, *, subject: str = "",
               sla_id: Optional[int] = None, constraint: str = "",
               reason: str = "",
               candidates: "Sequence[Mapping[str, Any]]" = (),
               chosen: "Optional[Mapping[str, Any]]" = None,
               headroom: "Optional[Mapping[str, float]]" = None,
               span: Optional[Span] = None, lsn: int = 0
               ) -> DecisionRecord:
        """Append one verdict and return the stamped record.

        The probe supplies the stamps: ``span`` is the innermost open
        span and ``lsn`` the newest *durable* journal LSN at emit time
        (inside a PR-6 group commit the buffered group records have not
        reached the store yet).
        """
        record = DecisionRecord(
            len(self._records) + 1, self._now(), action, outcome, subject,
            sla_id, constraint, reason,
            tuple(_jsonify(dict(candidate)) for candidate in candidates),
            _jsonify(dict(chosen)) if chosen is not None else None,
            {key: float(value) for key, value in (headroom or {}).items()},
            "" if span is None else span.trace_id,
            "" if span is None else span.span_id, lsn)
        self._records.append(record)
        if self._stream is not None:
            # The stream row: built once, handed over without a copy.
            row = record.to_dict()
            del row["time"]  # the event carries it positionally
            self._stream.append(TelemetryEvent(
                record.time, "decision",
                f"{action} {outcome}: {subject or sla_id or '?'}", row))
        return record

    # ------------------------------------------------------------------
    # Query helpers (the flight recorder's substrate)
    # ------------------------------------------------------------------

    def for_sla(self, sla_id: int) -> "List[DecisionRecord]":
        """Records about one SLA (by id or ``sla-<id>`` subject)."""
        key = f"sla-{sla_id}"
        return [record for record in self._records
                if record.sla_id == sla_id or record.subject == key]

    def for_subject(self, subject: str) -> "List[DecisionRecord]":
        """Records about one subject (client name, user key, ...)."""
        return [record for record in self._records
                if record.subject == subject]

    def by_action(self, action: str) -> "List[DecisionRecord]":
        """Records of one action kind, in emit order."""
        return [record for record in self._records
                if record.action == action]
