"""Thin helpers over ``xml.etree.ElementTree``.

These keep the codec modules readable: building nested elements,
requiring children by tag, and pretty-printing in the indented style of
the paper's tables.

Parsing is ``ElementTree``'s (expat); rendering is :func:`write_xml`,
one recursive pass that reads the tree and writes the indented form
straight into the caller's buffer. It is the only renderer: the
envelope, the codec's :func:`~repro.xmlmsg.codec.render` and
:func:`pretty_xml` all go through it, and the escapes and the number
format every codec shares live beside it.
"""

from __future__ import annotations

from typing import Callable, List, Optional
from xml.etree import ElementTree as ET

from ..errors import MessageError

#: One level of indentation in the rendered form.
_INDENT = "  "


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


def parse_xml(text: str) -> ET.Element:
    """Parse an XML document, wrapping parse failures in MessageError."""
    try:
        return ET.fromstring(text)
    except ET.ParseError as error:
        raise MessageError(f"malformed XML: {error}") from error


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
    """Emit ``node`` in the indented paper-table form, in one pass.

    ``write`` receives the pieces in document order (a list's
    ``append``; the caller joins). ``pad`` is the line break plus the
    indentation ``node`` itself sits at — ``"\\n"`` for a root — and
    every child goes one indentation step deeper. The tree is only read:
    a node with children gets the layout whitespace where its own text
    and its children's tails would be, a leaf keeps its text verbatim
    (whitespace-only included) and an empty leaf closes as ``<Tag />``.
    ``node``'s own tail is the caller's business. Tags are written as
    they are: the wire has no namespaces, comments or processing
    instructions (a foreign ``{uri}tag`` that was parsed and is sent
    on fails typed at the receiver's parse).
    """
    tag = node.tag
    head = "<" + tag
    for name, value in node.items():
        head += f' {name}="{_escape_attribute(value)}"'
    if len(node):
        write(head + ">")
        inner = pad + _INDENT
        for child in node:
            write(inner)
            write_xml(write, child, inner)
        write(pad + "</" + tag + ">")
    elif node.text:
        write(head + ">" + _escape_text(node.text) + "</" + tag + ">")
    else:
        write(head + " />")


def pretty_xml(node: ET.Element) -> str:
    """Render an element tree with indentation (paper-table style)."""
    parts: "List[str]" = []
    write_xml(parts.append, node, "\n")
    if node.tail:
        parts.append(_escape_text(node.tail))
    return "".join(parts)
