"""The UDDIe registry.

Services register with a name, a provider, free-form properties, and an
advertised QoS *capability* (a :class:`~repro.qos.QoSSpecification`
describing what the provider can deliver). Discovery returns the
records whose name, properties and capability match a
:class:`~repro.registry.query.ServiceQuery` — the "list of matching
services" the AQoS receives in Figure 2.

Every registry carries a *validator* naming its current contents.
Records are read-only once registered, so only :meth:`register` and
:meth:`unregister` change what :meth:`UddieRegistry.find` answers, and
both draw a fresh validator. Validators come from one process-wide
counter, as record ids do, so no two registry states — of one instance
or of two — ever share one: an unchanged validator means an unchanged
answer to any query (the conditional discovery of DESIGN §9).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional

from ..errors import RegistryError, ServiceNotFound
from ..qos.specification import QoSSpecification
from .query import PropertyValue, ServiceQuery

_record_counter = itertools.count(1)
_validator_counter = itertools.count(1)


@dataclass(frozen=True)
class ServiceRecord:
    """One registered service.

    Attributes:
        record_id: Registry-assigned id (the UDDI serviceKey analogue).
        name: Service name.
        provider: Owning business/provider name.
        endpoint: Logical bus endpoint handling invocations.
        capability: Advertised QoS the provider can deliver.
        properties: Free-form QoS/metadata properties (UDDIe pages),
            held as a read-only copy of the mapping given.
    """

    record_id: int
    name: str
    provider: str
    endpoint: str
    capability: QoSSpecification
    properties: "Mapping[str, PropertyValue]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "properties",
                           MappingProxyType(dict(self.properties)))


class UddieRegistry:
    """An in-memory UDDIe instance."""

    def __init__(self) -> None:
        self._records: Dict[int, ServiceRecord] = {}
        self._validator = str(next(_validator_counter))

    def __len__(self) -> int:
        return len(self._records)

    @property
    def validator(self) -> str:
        """The current contents' validator; any registration or removal
        replaces it with one no registry has carried before."""
        return self._validator

    def register(self, name: str, provider: str, *,
                 endpoint: str = "",
                 capability: Optional[QoSSpecification] = None,
                 properties: Optional[Mapping[str, PropertyValue]] = None
                 ) -> ServiceRecord:
        """Register a service and return its record.

        Raises:
            RegistryError: On a duplicate (name, provider) pair.
        """
        for record in self._records.values():
            if record.name == name and record.provider == provider:
                raise RegistryError(
                    f"service {name!r} by {provider!r} already registered")
        record = ServiceRecord(
            record_id=next(_record_counter), name=name, provider=provider,
            endpoint=endpoint,
            capability=capability or QoSSpecification.of(),
            properties=properties or {})
        self._records[record.record_id] = record
        self._validator = str(next(_validator_counter))
        return record

    def unregister(self, record_id: int) -> None:
        """Remove a registration.

        Raises:
            ServiceNotFound: When the record does not exist.
        """
        if record_id not in self._records:
            raise ServiceNotFound(f"no service record {record_id}")
        del self._records[record_id]
        self._validator = str(next(_validator_counter))

    def get(self, record_id: int) -> ServiceRecord:
        """Look up a record by id."""
        record = self._records.get(record_id)
        if record is None:
            raise ServiceNotFound(f"no service record {record_id}")
        return record

    def find(self, query: ServiceQuery) -> List[ServiceRecord]:
        """All records matching a query, ordered by record id.

        A record matches when its name matches the pattern, every
        property constraint holds, and its advertised capability
        dominates the query's QoS floor (when one is given).
        """
        matches: List[ServiceRecord] = []
        for record_id in sorted(self._records):
            record = self._records[record_id]
            if not query.matches_name(record.name):
                continue
            if not all(constraint.matches(record.properties.get(constraint.name))
                       for constraint in query.constraints):
                continue
            if query.qos is not None and not record.capability.dominates(query.qos):
                continue
            matches.append(record)
        return matches

    def records(self) -> List[ServiceRecord]:
        """All registrations, ordered by id."""
        return [self._records[record_id] for record_id in sorted(self._records)]
