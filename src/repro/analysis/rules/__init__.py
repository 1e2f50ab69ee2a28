"""Project-specific rules for the ``repro`` static-analysis engine.

Importing this package registers every rule with the global registry
in :mod:`repro.analysis.core`.  Rule identifiers:

========  ==============================================================
QLNT101   Wall-clock or stdlib randomness outside ``repro.sim.random``
QLNT102   Float ``==``/``!=`` on capacity/time expressions
QLNT103   Raw QoS quantity string literal outside ``repro.units``
QLNT104   Broad/bare ``except`` without re-raise or logging
QLNT105   Raised exception not rooted in ``repro.errors``
QLNT106   ``__all__`` drift (missing declaration or phantom export)
QLNT107   State-field assignment outside the declared transition table
QLNT108   Mutable default argument
QLNT109   Iteration over an unordered set / shared registry
QLNT110   Unused import
QLNT111   Debug ``print`` in library code
QLNT112   Raw ``bus.request()`` outside the transport layer
QLNT113   Private mutable counter shadowing the metrics registry
QLNT114   Journaled state mutated outside the journal API
QLNT115   Object allocation in a DES/slot-table/partition/wire/emit hot loop
QLNT116   Reject/degrade path without a decision record
QLNT117   Raw bus send inside ``repro.federation``
QLNT118   Instrumentation side-channel beside the probe
========  ==============================================================
"""

from __future__ import annotations

from . import (  # noqa: F401  (imported for registration side effects)
    determinism,
    exceptions,
    exports,
    federation,
    floats,
    hotpaths,
    hygiene,
    journaling,
    messaging,
    provenance,
    quantities,
    states,
    telemetry,
)

__all__ = [
    "determinism",
    "exceptions",
    "exports",
    "federation",
    "floats",
    "hotpaths",
    "hygiene",
    "journaling",
    "messaging",
    "provenance",
    "quantities",
    "states",
    "telemetry",
]
