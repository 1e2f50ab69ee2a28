"""Reproduction of "QoS Adaptation in Service-Oriented Grids"
(Al-Ali, Hafid, Rana, Walker — Middleware 2003).

The package implements the G-QoSM framework on a simulated Grid
substrate: a discrete-event engine, a GARA-like advance-reservation
layer, compute and network resource managers, a UDDIe-style registry,
SLA negotiation and monitoring, and — the paper's contribution — the
capacity-partition adaptation algorithm (Algorithm 1) and the
revenue-optimization heuristic (Section 5.3), orchestrated by the AQoS
broker.

Quickstart::

    from repro import build_testbed

    testbed = build_testbed(total_cpu=26, guaranteed_cpu=15,
                            adaptive_cpu=6, best_effort_cpu=5)
    broker = testbed.broker
    offer = broker.request_service(...)

See :mod:`repro.experiments.quickstart` (``python -m repro quickstart``)
for the full walkthrough.
"""

__version__ = "1.0.0"

from .qos import (
    Dimension,
    PricingPolicy,
    QoSParameter,
    QoSSpecification,
    ResourceVector,
    ServiceClass,
    discrete_parameter,
    exact_parameter,
    range_parameter,
)

__all__ = [
    "Dimension",
    "PricingPolicy",
    "QoSParameter",
    "QoSSpecification",
    "ResourceVector",
    "ServiceClass",
    "__version__",
    "build_testbed",
    "discrete_parameter",
    "exact_parameter",
    "range_parameter",
]


def build_testbed(*args, **kwargs):
    """Build a fully wired single-domain testbed (lazy import).

    See :func:`repro.core.testbed.build_testbed` for parameters.
    """
    from .core.testbed import build_testbed as _build
    return _build(*args, **kwargs)
