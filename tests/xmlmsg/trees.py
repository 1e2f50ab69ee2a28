"""Ad-hoc ``xml.etree`` helpers for the tests.

The control plane writes every message from its field table
(:mod:`repro.xmlmsg.schema`) and parses with
:func:`repro.xmlmsg.document.parse_xml`; it never builds or walks a
tree by hand. The tests do: they build bodies to send, mutate and
compare (:func:`element`, :func:`subelement`), read the tree-codec
oracle's fields back (:func:`require_child`, :func:`child_text`), and
render a tree in the paper-table layout (:func:`pretty_xml`, over the
production :func:`~repro.xmlmsg.document.write_xml`).
"""

from __future__ import annotations

from typing import List, Optional
from xml.etree import ElementTree as ET

from repro.errors import MessageError
from repro.xmlmsg.document import _escape_text, write_xml


def element(tag: str, text: Optional[str] = None,
            **attributes: str) -> ET.Element:
    """Create a root element with optional text and attributes."""
    node = ET.Element(tag, dict(attributes))
    if text is not None:
        node.text = text
    return node


def subelement(parent: ET.Element, tag: str, text: Optional[str] = None,
               **attributes: str) -> ET.Element:
    """Create and attach a child element."""
    node = ET.SubElement(parent, tag, dict(attributes))
    if text is not None:
        node.text = text
    return node


def require_child(parent: ET.Element, tag: str) -> ET.Element:
    """The unique child with ``tag``; raises MessageError when missing."""
    node = parent.find(tag)
    if node is None:
        raise MessageError(
            f"<{parent.tag}> is missing required child <{tag}>")
    return node


def child_text(parent: ET.Element, tag: str,
               default: Optional[str] = None) -> str:
    """Stripped text of the child with ``tag``.

    Raises:
        MessageError: When the child is absent (or has no text) and no
            default was supplied.
    """
    node = parent.find(tag)
    if node is None or node.text is None:
        if default is not None:
            return default
        raise MessageError(
            f"<{parent.tag}> is missing text child <{tag}>")
    return node.text.strip()


def pretty_xml(node: ET.Element) -> str:
    """Render an element tree with indentation (paper-table style)."""
    parts: "List[str]" = []
    write_xml(parts.append, node, "\n")
    if node.tail:
        parts.append(_escape_text(node.tail))
    return "".join(parts)
