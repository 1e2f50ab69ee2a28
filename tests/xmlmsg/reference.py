"""The three-walk renderer the wire writer replaced, kept as its oracle.

Test-only (the ``NaiveSlotTable`` / ``NaiveCapacityPartition``
pattern): indent the tree in place, then let ``ElementTree`` serialise
it, and build an envelope as real ``Envelope/Header/Body`` elements
first. The differential tests in ``test_writer_oracle.py`` pin
:func:`repro.xmlmsg.document.write_xml`, ``pretty_xml`` and
``Envelope.to_xml`` to these byte for byte. The old renderer wrote its
layout into the tree it was given; both functions here work on a deep
copy so a test can render the same tree both ways.
"""

from __future__ import annotations

import copy
from xml.etree import ElementTree as ET

from repro.xmlmsg.envelope import Envelope

INDENT = "  "


def _indent_in_place(node: ET.Element, depth: int) -> None:
    children = list(node)
    if not children:
        return
    node.text = "\n" + INDENT * (depth + 1)
    for index, child in enumerate(children):
        _indent_in_place(child, depth + 1)
        if index == len(children) - 1:
            child.tail = "\n" + INDENT * depth
        else:
            child.tail = "\n" + INDENT * (depth + 1)


def reference_pretty_xml(node: ET.Element) -> str:
    """What ``pretty_xml`` returned before the single-pass writer."""
    node = copy.deepcopy(node)
    _indent_in_place(node, 0)
    return ET.tostring(node, encoding="unicode")


def reference_envelope_xml(envelope: Envelope) -> str:
    """What ``Envelope.to_xml`` returned before the single-pass writer
    (with ``SentAt`` in the codec's ``%.12g``)."""
    root = ET.Element("Envelope")
    header = ET.SubElement(root, "Header")
    sent_at = (None if envelope.sent_at is None
               else f"{envelope.sent_at:.12g}")
    for tag, value in (("MessageID", envelope.message_id),
                       ("Sender", envelope.sender),
                       ("Recipient", envelope.recipient),
                       ("Action", envelope.action)):
        ET.SubElement(header, tag).text = value
    for tag, value in (("InReplyTo", envelope.in_reply_to),
                       ("RetryOf", envelope.retry_of),
                       ("SentAt", sent_at),
                       ("TraceID", envelope.trace_id),
                       ("SpanID", envelope.span_id)):
        if value is not None:
            ET.SubElement(header, tag).text = value
    ET.SubElement(root, "Body").append(copy.deepcopy(envelope.body))
    _indent_in_place(root, 0)
    return ET.tostring(root, encoding="unicode")
