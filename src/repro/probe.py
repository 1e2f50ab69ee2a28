"""The instrumentation seam: one :class:`Probe` per testbed.

Tracing, journaling, decision provenance and SLO accounting are not
policy. Every component is handed the testbed's probe at construction
and reports through its verbs; an installer drops a backend into the
matching field, and a verb whose backend is missing does nothing:

* :attr:`~Probe.telemetry` — ``span`` ``current_span`` ``count``
  ``gauge`` ``adopt`` ``rebalanced``
* :attr:`~Probe.journal` — ``append`` ``group``
* :attr:`~Probe.decisions` — ``decide``
* :attr:`~Probe.slo` — ``session_started`` ``session_ended``
  ``on_violation`` ``on_restoration``

A component never asks which backends exist. The predicates
(``measuring``, ``journaling``, ``explaining``) gate sites whose
*payload* is expensive to build — an f-string reason, a candidate
list, a rendered SLA document, a slot-table walk. They are plain
attributes, kept current when a backend field is set, so a silent
site costs one attribute load.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ContextManager, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - the backends import the core
    from .obs import DecisionLog, SloEngine
    from .recovery.journal import Journal
    from .telemetry import Span, Telemetry

_NO_SPAN: "ContextManager[None]" = nullcontext()
#: Backend field -> the predicate that says it is installed.
_PREDICATES = {"telemetry": "measuring", "journal": "journaling",
               "decisions": "explaining"}


@dataclass(eq=False)
class Probe:
    """Where a testbed's components report (see module docs)."""

    #: Set by :func:`repro.core.testbed.install_telemetry`;
    #: ``measuring`` is true while spans and hub counts are recorded.
    telemetry: "Optional[Telemetry]" = None
    #: Set by :func:`repro.recovery.recover.install_journal`;
    #: ``journaling`` is true while :meth:`append` reaches it.
    journal: "Optional[Journal]" = None
    #: Both set by :func:`repro.core.testbed.install_observability`;
    #: ``explaining`` is true while :meth:`decide` records anything.
    decisions: "Optional[DecisionLog]" = None
    slo: "Optional[SloEngine]" = None

    def __setattr__(self, name: str, value: Any) -> None:
        object.__setattr__(self, name, value)
        if name in _PREDICATES:
            object.__setattr__(self, _PREDICATES[name], value is not None)

    # -- telemetry -----------------------------------------------------

    def span(self, name: str, component: str, **attributes: Any
             ) -> "ContextManager[Optional[Span]]":
        """A span context; yields ``None`` while telemetry is off."""
        if self.telemetry is None:
            return _NO_SPAN
        return self.telemetry.tracer.span(name, component=component,
                                          **attributes)

    def current_span(self) -> "Optional[Span]":
        """The innermost open span (``None`` when off or at a root)."""
        if self.telemetry is None:
            return None
        return self.telemetry.tracer.current()

    def count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """Bump a counter in the hub's registry."""
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name, **labels).inc(amount)

    def gauge(self, name: str, value: float, **labels: str) -> None:
        """Set a gauge in the hub's registry."""
        if self.telemetry is not None:
            self.telemetry.metrics.gauge(name, **labels).set(value)

    def adopt(self, counted: Any, **labels: str) -> None:
        """Re-home a component's private counters (anything with
        ``bind_metrics``) in the hub's registry."""
        if self.telemetry is not None:
            counted.bind_metrics(self.telemetry.metrics, **labels)

    def rebalanced(self, partition: Any, report: Any) -> None:
        """One capacity-partition rebalance pass completed."""
        if self.telemetry is not None:
            self.telemetry.capacity.on_rebalance(partition, report)

    # -- journal -------------------------------------------------------

    def append(self, record_type: str, **payload: object) -> None:
        """Append one typed write-ahead record."""
        if self.journal is not None:
            self.journal.append(record_type, **payload)

    @contextmanager
    def group(self) -> "Iterator[None]":
        """Group-commit every record appended inside the block."""
        journal = self.journal
        if journal is None:
            yield
            return
        journal.begin_group()
        try:
            yield
        finally:
            journal.commit_group()

    # -- decision provenance and SLO accounting ------------------------

    def decide(self, action: str, outcome: str, **context: Any) -> None:
        """Record one verdict, stamped with the innermost open span
        and the newest durable journal LSN."""
        if self.decisions is not None:
            lsn = 0 if self.journal is None else self.journal.last_lsn
            self.decisions.decide(action, outcome, lsn=lsn,
                                  span=self.current_span(), **context)

    def session_started(self, sla_id: int, service_class: str,
                        time: float) -> None:
        """An SLA's session went live (availability accrues from now)."""
        if self.slo is not None:
            self.slo.session_started(sla_id, service_class, time)

    def session_ended(self, sla_id: int, time: float) -> None:
        """An SLA's session closed."""
        if self.slo is not None:
            self.slo.session_ended(sla_id, time)

    def on_violation(self, sla_id: int, time: float) -> None:
        """SLA-Verif found a conformant session violating (bad time)."""
        if self.slo is not None:
            self.slo.on_violation(sla_id, time)

    def on_restoration(self, sla_id: int, time: float) -> None:
        """A violating session tested conformant again."""
        if self.slo is not None:
            self.slo.on_restoration(sla_id, time)
