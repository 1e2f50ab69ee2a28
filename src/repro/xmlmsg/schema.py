"""Messages declared as data: one writer, one reader.

Every control-plane message is a :class:`Message`: its tag and a table
of :class:`Field` rows, each naming the field's tag, whether it is an
attribute, a child element or the element's own text, its kind (a
:class:`Kind` — text, int, number, enum, ``Accept``/``Decline``, a unit
— or a nested :class:`Message`), whether it is optional or repeated,
and how the writer gets its value.

:meth:`Message.write` goes from an object straight to text, with no
tree in between: compact for :data:`WIRE` (the bus and the journal),
indented for :data:`DISPLAY` (byte for byte what indenting the
equivalent ``ElementTree`` gives). :meth:`Message.read` maps a parsed
element back in one pass over its attributes and children, by tag, and
hands the values to the table's ``build``. A field it cannot convert, a
missing required field and a value ``build`` rejects with a
``ValueError``, ``ArithmeticError``, ``LookupError`` or ``TypeError``
raise :class:`~repro.errors.MessageError` naming the element (what the
built object's own checks raise is a ``GQoSMError`` already). Unknown
children are ignored, a repeated single-valued child replaces the
first, and an empty leaf reads as ``""`` for text and as absent for
every other kind.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence
from xml.etree import ElementTree as ET

from ..errors import GQoSMError, MessageError
from .document import _INDENT, _escape_attribute, _escape_text, _number

#: ``pad`` of the compact form: the wire and the journal.
WIRE = ""
#: ``pad`` of the indented paper-table form, for display.
DISPLAY = "\n"


class Kind(NamedTuple):
    """How a leaf value becomes text and back."""

    name: str
    render: Callable[[Any], str]
    parse: Callable[[str], Any]


#: Free text, escaped on the way out; an empty leaf reads as ``""``.
TEXT = Kind("text", str, str)
INT = Kind("int", str, int)
NUMBER = Kind("number", _number, float)
ACCEPT = Kind("Accept/Decline", lambda flag: "Accept" if flag else "Decline",
              lambda text: text == "Accept")
YES_NO = Kind("yes/no", lambda flag: "yes" if flag else "no",
              lambda text: text == "yes")


def enum_kind(enum: type, parse: "Optional[Callable[[str], Any]]" = None
              ) -> Kind:
    """An enum written as its value and read by ``parse`` (the enum
    constructor unless given)."""
    return Kind(enum.__name__, attrgetter("_value_"),
                parse if parse is not None else enum)


def identity(obj: Any) -> Any:
    """The ``get`` of a field written from the object itself."""
    return obj


_REQUIRED = object()


class Field:
    """One row of a message table.

    Args:
        tag: Element or attribute name; ``None`` for the element's own
            text.
        kind: A :class:`Kind`, or a :class:`Message` for a nested
            element.
        name: Key of the value :meth:`Message.read` hands to ``build``;
            ``None`` for a field that is written but not read back.
        get: How the writer gets the value (the attribute ``name``
            unless given); a ``None`` value is not written.
        attribute: An attribute of the element, not a child.
        optional: When absent on read, ``name`` is left out.
        repeated: Written from an iterable, read back as a tuple.
        default: What an absent field reads as (makes it optional).
    """

    __slots__ = ("tag", "kind", "name", "get", "attribute", "optional",
                 "repeated", "default")

    def __init__(self, tag: Optional[str], kind: Any, name: Any = None,
                 *, get: "Optional[Callable[[Any], Any]]" = None,
                 attribute: bool = False, optional: bool = False,
                 repeated: bool = False, default: Any = _REQUIRED) -> None:
        self.tag = tag
        self.kind = kind
        self.name = name
        self.get = get if get is not None else attrgetter(name)
        self.attribute = attribute
        self.optional = optional or default is not _REQUIRED
        self.repeated = repeated
        self.default = default


def _convert(field: Field, text: str, node: ET.Element) -> Any:
    """``field``'s value from ``text``, or a typed failure naming it."""
    try:
        return field.kind.parse(text)
    except ValueError as error:
        where = f" {field.tag}=..." if field.attribute else ""
        raise MessageError(f"<{node.tag}{where}> cannot read {text!r} as "
                           f"{field.kind.name}: {error}") from error


class Message:
    """A message (or a nested element) declared as a field table.

    Args:
        tag: The element's tag (a nesting field may rename it).
        fields: The rows, children in document order.
        build: Turns the values :meth:`read` collected (a dict keyed
            by field ``name``) into the object; the dict itself when
            ``None``.
    """

    __slots__ = ("tag", "build", "_attributes", "_content", "_writes",
                 "_reads", "_start", "_repeated", "_required")

    def __init__(self, tag: str, fields: "Sequence[Field]",
                 build: "Optional[Callable[[Dict[Any, Any]], Any]]" = None
                 ) -> None:
        self.tag = tag
        self.build = build
        self._attributes = [field for field in fields if field.attribute]
        contents = [field for field in fields if field.tag is None]
        self._content = contents[0] if contents else None
        children = [field for field in fields
                    if not field.attribute and field.tag is not None]
        # Per child, unpacked in one step: a nested element's writer or
        # reader, or a leaf's renderer (text escaped) or parser.
        self._writes = [
            (field.get, isinstance(field.kind, Message), field.repeated,
             field.tag, field.kind._write if isinstance(field.kind, Message)
             else _escape_text if field.kind is TEXT else field.kind.render,
             f"<{field.tag}>", f"</{field.tag}>", f"<{field.tag} />")
            for field in children]
        self._reads = {
            field.tag: (field.name, isinstance(field.kind, Message),
                        field.repeated, field.kind is TEXT,
                        field.kind._read if isinstance(field.kind, Message)
                        else field.kind.parse, field)
            for field in children if field.name is not None}
        named = [field for field in fields if field.name is not None]
        # A read starts from the defaults and ``()`` per repeated field.
        self._start = {field.name: () if field.repeated else field.default
                       for field in named if field.repeated
                       or field.default is not _REQUIRED}
        self._repeated = [field.name for field in named if field.repeated]
        self._required = [
            (field.name, f"is missing required "
             f"{'attribute' if field.attribute else 'child'} <{field.tag}>")
            for field in named if not field.optional and not field.repeated]

    def write(self, obj: Any, pad: str = WIRE) -> str:
        """``obj`` as this message's XML: compact for :data:`WIRE`,
        indented for :data:`DISPLAY`."""
        out: "List[str]" = []
        self._write(out, obj, self.tag, "", pad)
        return "".join(out)

    def _write(self, out: "List[str]", obj: Any, tag: str, lead: str,
               pad: str) -> None:
        """Append ``obj`` as element ``tag``: ``lead`` goes before it,
        ``pad`` before its closing tag, its children one indentation
        step deeper (no whitespace at all in the compact form). An
        element that writes nothing inside closes as ``<Tag />``."""
        head = lead + "<" + tag
        for field in self._attributes:
            value = field.get(obj)
            if value is not None:
                text = field.kind.render(value)
                if field.kind is TEXT:
                    text = _escape_attribute(text)
                head += f' {field.tag}="{text}"'
        field = self._content
        if field is not None:
            value = field.get(obj)
            text = "" if value is None else field.kind.render(value)
            if field.kind is TEXT:
                text = _escape_text(text)
            out.append(f"{head}>{text}</{tag}>" if text else head + " />")
            return
        out.append(head + ">")
        mark = len(out)
        inner = pad + _INDENT if pad else pad
        for get, nested, repeated, child, render, open_, close, empty \
                in self._writes:
            value = get(obj)
            if value is None:
                continue
            if nested:
                if repeated:
                    for item in value:
                        render(out, item, child, inner, inner)
                else:
                    render(out, value, child, inner, inner)
            elif repeated:
                for item in value:
                    text = render(item)
                    out.append(f"{inner}{open_}{text}{close}" if text
                               else inner + empty)
            else:
                text = render(value)
                out.append(f"{inner}{open_}{text}{close}" if text
                           else inner + empty)
        if len(out) == mark:
            out[mark - 1] = head + " />"
        else:
            out.append(pad + "</" + tag + ">")

    def read(self, node: ET.Element) -> Any:
        """Map a parsed ``node`` back to the object.

        Raises:
            MessageError: When ``node`` is not this message, or a field
                is missing or cannot be converted.
        """
        if node.tag != self.tag:
            raise MessageError(f"expected <{self.tag}>, got <{node.tag}>")
        return self._read(node)

    def _read(self, node: ET.Element) -> Any:
        """One pass over ``node``'s attributes and children."""
        values = self._start.copy()
        for field in self._attributes:
            text = node.get(field.tag)
            if text is not None and field.name is not None:
                values[field.name] = _convert(field, text, node)
        field = self._content
        if field is not None and field.name is not None:
            text = node.text or ""
            if text or field.kind is TEXT:
                values[field.name] = _convert(field, text, node)
        reads = self._reads
        for child in node:
            read = reads.get(child.tag)
            if read is None:
                continue
            name, nested, repeated, free, parse, field = read
            if nested:
                value = parse(child)
            else:
                text = child.text
                if not text:
                    if not free:
                        continue
                    text = ""
                try:
                    value = parse(text)
                except ValueError:  # the cold path names the field
                    value = _convert(field, text, child)
            if not repeated:
                values[name] = value
            elif values[name]:
                values[name].append(value)
            else:
                values[name] = [value]
        for name in self._repeated:
            values[name] = tuple(values[name])
        for name, missing in self._required:
            if name not in values:
                raise MessageError(f"<{node.tag}> {missing}")
        if self.build is None:
            return values
        try:
            return self.build(values)
        except GQoSMError:
            raise
        except (ArithmeticError, LookupError, TypeError,
                ValueError) as error:
            raise MessageError(f"<{node.tag}> does not hold a valid "
                               f"{self.tag}: {error!r}") from error
