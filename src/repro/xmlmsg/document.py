"""Thin helpers over ``xml.etree.ElementTree``.

Parsing is ``ElementTree``'s (expat, :func:`parse_xml`). The messages
the control plane sends are written straight from their objects by
:mod:`~repro.xmlmsg.schema`; :func:`write_xml` writes a parsed tree
back (an envelope body received and sent on), compact or in the
indented style of the paper's tables. The escapes and the number
format every writer shares live here too.
"""

from __future__ import annotations

from typing import Callable
from xml.etree import ElementTree as ET

from ..errors import MessageError

#: One level of indentation in the rendered form.
_INDENT = "  "


def parse_xml(text: str) -> ET.Element:
    """Parse an XML document, wrapping parse failures in MessageError."""
    try:
        return ET.fromstring(text)
    except ET.ParseError as error:
        raise MessageError(f"malformed XML: {error}") from error


def _number(value: float) -> str:
    """Format a numeric field without visible precision loss."""
    return f"{value:.12g}"


def _escape_text(value: str) -> str:
    """Escape element text exactly as ``ElementTree`` serialization
    does (``&``, ``<``, ``>``; quotes stay literal in text)."""
    if "&" in value:
        value = value.replace("&", "&amp;")
    if "<" in value:
        value = value.replace("<", "&lt;")
    if ">" in value:
        value = value.replace(">", "&gt;")
    return value


def _escape_attribute(value: str) -> str:
    """Escape an attribute value exactly as ``ElementTree`` does: the
    text escapes plus the quote, and CR/LF/TAB as character references
    so attribute-value normalization cannot fold them on re-parse."""
    value = _escape_text(value)
    if '"' in value:
        value = value.replace('"', "&quot;")
    if "\r" in value:
        value = value.replace("\r", "&#13;")
    if "\n" in value:
        value = value.replace("\n", "&#10;")
    if "\t" in value:
        value = value.replace("\t", "&#09;")
    return value


def write_xml(write: "Callable[[str], object]", node: ET.Element,
              pad: str) -> None:
    """Emit ``node`` in one pass: compact when ``pad`` is ``""``, else
    in the indented paper-table form.

    ``write`` receives the pieces in document order (a list's
    ``append``; the caller joins). ``pad`` is the line break plus the
    indentation ``node`` itself sits at — ``"\\n"`` for a root — and
    every child goes one indentation step deeper. The tree is only read:
    a node with children gets the layout whitespace (none when compact)
    where its own text and its children's tails would be, a leaf keeps
    its text verbatim (whitespace-only included) and an empty leaf
    closes as ``<Tag />``. ``node``'s own tail is the caller's business.
    Tags are written as they are: the wire has no namespaces, comments
    or processing instructions (a foreign ``{uri}tag`` that was parsed
    and is sent on fails typed at the receiver's parse).
    """
    tag = node.tag
    head = "<" + tag
    for name, value in node.items():
        head += f' {name}="{_escape_attribute(value)}"'
    if len(node):
        write(head + ">")
        inner = pad + _INDENT if pad else pad
        for child in node:
            write(inner)
            write_xml(write, child, inner)
        write(pad + "</" + tag + ">")
    elif node.text:
        write(head + ">" + _escape_text(node.text) + "</" + tag + ">")
    else:
        write(head + " />")
