"""The QoS model: parameters, specifications, classes, pricing.

Section 5.3 of the paper formalises a service's QoS as a set
``Q = {q1 .. qn}`` where each parameter is recorded either as a range
(``Lq <= q <= Hq``) or as a discrete list of acceptable values, and each
carries a cost weight ``w_i`` so that ``cost(q_i) = q_i * w_i``. This
package implements that model:

* :mod:`repro.qos.parameters` — dimensions, parameter forms, admissibility.
* :mod:`repro.qos.specification` — QoS sets, comparison, demand vectors.
* :mod:`repro.qos.classes` — the guaranteed / controlled-load /
  best-effort service classes (Section 5.1).
* :mod:`repro.qos.cost` — pricing policies and revenue computation.
* :mod:`repro.qos.vector` — resource demand vectors used by the
  reservation and adaptation layers.
* :mod:`repro.qos.mapping` — the Figure 3 *QoS Mapping* function:
  application-level metrics translated into resource-level QoS.
"""

from .classes import ServiceClass
from .cost import PricingPolicy
from .mapping import ApplicationProfile, MetricRule
from .parameters import (
    DIMENSIONS,
    Dimension,
    QoSParameter,
    discrete_parameter,
    exact_parameter,
    range_parameter,
)
from .specification import QoSSpecification
from .vector import ResourceVector

__all__ = [
    "ApplicationProfile",
    "DIMENSIONS",
    "Dimension",
    "MetricRule",
    "PricingPolicy",
    "QoSParameter",
    "QoSSpecification",
    "ResourceVector",
    "ServiceClass",
    "discrete_parameter",
    "exact_parameter",
    "range_parameter",
]
