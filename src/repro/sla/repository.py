"""The SLA repository.

"Once the proposed SLA is approved by the client/application, the AQoS
establishes a final SLA document and saves it in the SLA repository for
subsequent reference" (Section 3.1). The repository also hands out SLA
ids (the paper's example conformance reply references ``SLA-ID 1055``)
and answers the adaptation function's query for "the list of currently
active services" (Scenario 1).
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import SLAError
from .document import ServiceSLA, SlaStatus

#: Statuses the readers keep, as tuples: membership is an identity
#: test, where a frozenset would hash each member in Python.
_LIVE = tuple(status for status in SlaStatus if status.is_live)
#: Terminal statuses. ``ServiceSLA``'s transitions never leave them,
#: so a document seen in one can leave the open index for good.
_CLOSED = (SlaStatus.COMPLETED, SlaStatus.TERMINATED, SlaStatus.EXPIRED)


class SLARepository:
    """In-memory store of SLA documents.

    Beside the full store it keeps the *open index*: every document not
    known to be closed, keyed and ordered by id. The readers of live
    state (:meth:`live`, :meth:`active` and the filters over them) walk
    the index, so a scan costs what is open, not every SLA ever stored.
    A scan that meets a closed document drops it from the index; the
    terminal statuses are absorbing, so it can never be wanted again.

    Args:
        first_id: First SLA id to assign (default 1000, so ids look
            like the paper's 1055). It stays the counter's floor
            through :meth:`resume_ids` and :meth:`restore`.
    """

    def __init__(self, first_id: int = 1000) -> None:
        self._first_id = first_id
        self._next = first_id
        self._slas: Dict[int, ServiceSLA] = {}
        self._open: Dict[int, ServiceSLA] = {}
        # The highest id ever put in the index: a fresh id lands above
        # it and keeps the index in order.
        self._top = float("-inf")
        # False once an id arrived below ``_top``; the next scan
        # re-sorts.
        self._ordered = True

    def next_id(self) -> int:
        """Allocate a fresh SLA id."""
        sla_id = self._next
        self._next = sla_id + 1
        return sla_id

    def save(self, sla: ServiceSLA) -> ServiceSLA:
        """Store (or overwrite) an SLA document."""
        sla_id = sla.sla_id
        self._slas[sla_id] = sla
        if sla_id > self._top:
            self._top = sla_id
            self._open[sla_id] = sla
        elif sla_id in self._open:
            self._open[sla_id] = sla
        elif sla.status not in _CLOSED:
            self._open[sla_id] = sla
            self._ordered = False
        return sla

    def get(self, sla_id: int) -> ServiceSLA:
        """Look up an SLA by id.

        Raises:
            SLAError: When the id is unknown.
        """
        sla = self._slas.get(sla_id)
        if sla is None:
            raise SLAError(f"no SLA with id {sla_id}")
        return sla

    def __len__(self) -> int:
        return len(self._slas)

    def all(self) -> List[ServiceSLA]:
        """Every stored SLA, ordered by id."""
        return [self._slas[sla_id] for sla_id in sorted(self._slas)]

    def _index(self) -> Dict[int, ServiceSLA]:
        if not self._ordered:
            self._open = dict(sorted(self._open.items()))
            self._ordered = True
        return self._open

    def _prune(self) -> None:
        index = self._open
        for sla_id in [sla_id for sla_id, sla in index.items()
                       if sla.status in _CLOSED]:
            del index[sla_id]

    def live(self) -> List[ServiceSLA]:
        """SLAs still governing resources (established or active),
        ordered by id."""
        index = self._index()
        slas = [sla for sla in index.values() if sla.status in _LIVE]
        if len(slas) != len(index):
            self._prune()
        return slas

    def active(self) -> List[ServiceSLA]:
        """SLAs whose sessions are running, ordered by id."""
        index = self._index()
        slas = [sla for sla in index.values()
                if sla.status is SlaStatus.ACTIVE]
        if len(slas) != len(index):
            self._prune()
        return slas

    def degradable(self) -> List[ServiceSLA]:
        """Active SLAs whose adaptation options allow squeezing.

        This is Scenario 1's filter: "the list is filtered to include
        only those services whose SLAs indicate willingness to accept a
        degraded QoS and/or termination of service".
        """
        return [sla for sla in self.active() if sla.adaptation.is_degradable]

    def degraded(self) -> List[ServiceSLA]:
        """Active SLAs currently delivering below their agreed point.

        Scenario 2 upgrades these first when capacity frees up.
        """
        return [sla for sla in self.active() if sla.is_degraded()]

    # ------------------------------------------------------------------
    # Persistence ("saves it in the SLA repository for subsequent
    # reference", Section 3.1) — documents round-trip through the
    # Table 4 XML schema.
    # ------------------------------------------------------------------

    def resume_ids(self, after: int) -> None:
        """Resume id allocation above ``after``.

        Journal replay rebuilds documents out of band and must leave
        the counter past every id it saw, so post-recovery requests
        never collide with a pre-crash SLA. The counter never drops
        below ``first_id``, the floor of this repository's id range.
        """
        self._next = max(after + 1, self._first_id)

    def restore(self, other: "SLARepository") -> None:
        """Replace this repository's contents in place.

        Crash recovery rebuilds a repository from journal/snapshot XML
        and then swaps it *into* the live object, so every component
        holding a reference (verifier, gateway, broker) keeps working
        without rewiring. The id counter resumes where ``other``'s
        stands, but never below this repository's own ``first_id``.
        """
        self._slas.clear()
        self._slas.update(other._slas)
        self._open = dict(other._open)
        self._top = other._top
        self._ordered = other._ordered
        self._next = max(other._next, self._first_id)

    def export_xml(self) -> str:
        """Serialize every stored SLA as one ``<SLA_Repository>``
        document (statuses included).

        Compact string assembly over :func:`render_service_sla` —
        snapshots export the whole repository, so at 10k live SLAs the
        tree-build-then-serialize route dominates the snapshot cost.
        A property test pins the output byte-identical to
        ``ET.tostring`` of the equivalent element tree;
        :meth:`from_xml` parses both this and the older indented form.
        """
        from ..xmlmsg.codec import render_service_sla
        slas = self.all()
        if not slas:
            return "<SLA_Repository />"
        out = ["<SLA_Repository>"]
        for sla in slas:
            out.append(f'<Entry status="{sla.status.value}">')
            out.append(render_service_sla(sla))
            out.append("</Entry>")
        out.append("</SLA_Repository>")
        return "".join(out)

    @classmethod
    def from_xml(cls, text: str) -> "SLARepository":
        """Rebuild a repository from :meth:`export_xml` output.

        Statuses are restored verbatim; the id counter resumes after
        the highest stored id (never below the default ``first_id``).
        """
        from ..errors import MessageError
        from ..xmlmsg.codec import decode_service_sla
        from ..xmlmsg.document import parse_xml
        root = parse_xml(text)
        if root.tag != "SLA_Repository":
            raise MessageError(
                f"expected <SLA_Repository>, got <{root.tag}>")
        repository = cls()
        for entry in root.findall("Entry"):
            documents = entry.findall("Service_SLA")
            if len(documents) != 1:
                raise MessageError(
                    "<Entry> must hold exactly one <Service_SLA>")
            sla = decode_service_sla(documents[0])
            status = SlaStatus(entry.get("status", "proposed"))
            # The persisted status, set before the document is saved,
            # so the open index sees it on arrival.
            sla.status = status  # qlint: disable=QLNT107 -- persisted
            repository.save(sla)
        if repository._slas:
            repository.resume_ids(max(repository._slas))
        return repository
