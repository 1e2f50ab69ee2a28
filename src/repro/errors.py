"""Exception hierarchy for the G-QoSM reproduction.

Every error raised by the library derives from :class:`GQoSMError`, so
callers embedding the broker in a larger system can catch one base type.
The hierarchy mirrors the subsystems: reservation failures come from the
GARA layer, admission failures from the adaptation core, negotiation
failures from the SLA layer, and so on.
"""

from __future__ import annotations


class GQoSMError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class UnitError(GQoSMError, ValueError):
    """A quantity string could not be parsed or converted."""


class ValidationError(GQoSMError, ValueError):
    """A constructor or configuration argument is outside its domain.

    Derives from :class:`ValueError` as well, so call sites written
    against the stdlib type before the hierarchy was unified keep
    working unchanged.
    """


class SimulationError(GQoSMError):
    """The discrete-event engine was driven incorrectly.

    Examples: scheduling an event in the past, or running a simulator
    that was already stopped.
    """


class MessageError(GQoSMError):
    """An XML message could not be encoded or decoded."""


class TransientMessageError(MessageError):
    """A delivery failure that a retry may cure.

    Base class for the failures the chaos layer injects on the message
    bus; :class:`~repro.xmlmsg.resilient.ResilientCaller` retries these
    (and only these) with backoff.
    """


class MessageDropped(TransientMessageError):
    """An envelope was lost in flight (request or reply leg).

    The synchronous caller observes the loss as a timeout on the
    simulation clock; an asynchronous notification lands in the bus's
    dead-letter record instead.
    """


class RemoteFaultError(TransientMessageError):
    """The remote endpoint answered with a transport-level fault.

    Models a SOAP fault / HTTP 5xx: the handler may or may not have
    run, so recovery requires an idempotent retry.
    """


class CircuitOpenError(MessageError):
    """Retries against an endpoint are exhausted; the circuit is open.

    Raised immediately (without touching the bus) until the breaker's
    cooldown expires, so a dead dependency cannot stall every caller.
    """


class RSLError(GQoSMError, ValueError):
    """A Globus RSL resource-specification string failed to parse."""


class QoSSpecificationError(GQoSMError, ValueError):
    """A QoS parameter or specification is malformed.

    Examples: a range whose low bound exceeds its high bound, or a
    discrete value list that is empty.
    """


class SLAError(GQoSMError):
    """Base class for SLA-layer errors."""


class NegotiationError(SLAError):
    """The negotiation protocol was driven out of order or failed."""


class LifecycleError(SLAError):
    """An illegal QoS-session phase transition was attempted."""


class ReservationError(GQoSMError):
    """Base class for GARA reservation-layer errors."""


class ReservationNotFound(ReservationError, KeyError):
    """The reservation handle does not refer to a live reservation."""


class ReservationStateError(ReservationError):
    """The reservation is in the wrong state for the requested call."""


class CapacityError(ReservationError):
    """There is not enough capacity to satisfy a reservation/claim."""


class AdmissionError(GQoSMError):
    """The adaptation core rejected an allocation request."""


class RegistryError(GQoSMError):
    """A registry (UDDIe) operation failed."""


class ServiceNotFound(RegistryError, KeyError):
    """No registered service matches the requested key or query."""


class ResourceError(GQoSMError):
    """A resource-manager (compute or network) operation failed."""


class NetworkError(ResourceError):
    """A network-resource-manager operation failed.

    Examples: no path between endpoints, or a bandwidth allocation on
    an unknown link.
    """


class MonitoringError(GQoSMError):
    """A monitoring subsystem (sensor / MDS / verifier) call failed."""


class InstantNotFound(GQoSMError, KeyError):
    """A worked-example timeline lookup named an unknown instant."""


class AnalysisError(GQoSMError):
    """The static-analysis engine was driven incorrectly.

    Examples: analysing a path that contains no Python modules, or
    loading a baseline file with an unknown schema version.
    """


class RecoveryError(GQoSMError):
    """The recovery layer was driven incorrectly.

    Examples: recovering a testbed that has no journal installed, or
    decoding a journal/snapshot record with an unknown type.
    """


class FederationError(GQoSMError):
    """The federated control plane was driven incorrectly.

    Examples: routing a request to an unknown home domain, crashing a
    domain that is already down, or declaring a partition whose window
    ends before it starts.
    """


class BrokerCrash(GQoSMError):
    """A simulated crash of the broker process.

    Raised by the crash-point injection layer at a chosen journal
    write; everything the broker holds only in memory is considered
    lost at the point this propagates, while the authoritative
    GARA/NRM state and the journal survive.
    """
