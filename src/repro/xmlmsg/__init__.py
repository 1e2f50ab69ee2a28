"""XML messaging: all G-QoSM component interactions are XML messages.

The paper's components exchange XML over SOAP/HTTP (Figure 5). The
reproduction keeps the encoding — every SLA, offer and conformance
report round-trips through real XML (Tables 1, 3, 4) — and replaces the
socket with an in-process :class:`~repro.xmlmsg.bus.MessageBus` whose
delivery can be delayed on the simulation clock.

* :mod:`repro.xmlmsg.document` — small helpers over ``xml.etree`` and
  the single-pass writer of the indented wire form.
* :mod:`repro.xmlmsg.envelope` — SOAP-style envelopes.
* :mod:`repro.xmlmsg.bus` — the in-process transport (with dead
  letters and per-endpoint idempotency).
* :mod:`repro.xmlmsg.codec` — encoders/decoders for the paper's
  message schemas.
* :mod:`repro.xmlmsg.faults` — seeded fault injection (chaos layer).
* :mod:`repro.xmlmsg.idempotency` — bounded dedup caches.
* :mod:`repro.xmlmsg.resilient` — retry/timeout/backoff + breaker.
"""

from .bus import DeadLetter, Endpoint, MessageBus
from .document import (
    child_text,
    element,
    parse_xml,
    pretty_xml,
    require_child,
    subelement,
    write_xml,
)
from .envelope import Envelope
from .faults import FaultDecision, FaultPlan, FaultRule, FaultStats
from .idempotency import DEFAULT_CAPACITY, DedupCache
from .resilient import CallerStats, ResilientCaller, RetryPolicy

__all__ = [
    "CallerStats",
    "DEFAULT_CAPACITY",
    "DeadLetter",
    "DedupCache",
    "Endpoint",
    "Envelope",
    "FaultDecision",
    "FaultPlan",
    "FaultRule",
    "FaultStats",
    "MessageBus",
    "ResilientCaller",
    "RetryPolicy",
    "child_text",
    "element",
    "parse_xml",
    "pretty_xml",
    "require_child",
    "subelement",
    "write_xml",
]
