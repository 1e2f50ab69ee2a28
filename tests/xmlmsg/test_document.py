"""Tests for XML helpers (repro.xmlmsg.document)."""

from __future__ import annotations

import pytest

from repro.errors import MessageError
from repro.xmlmsg.document import (
    child_text,
    element,
    parse_xml,
    pretty_xml,
    require_child,
    subelement,
)


class TestBuilding:
    def test_element_with_text_and_attributes(self):
        node = element("Tag", "hello", attr="1")
        assert node.tag == "Tag"
        assert node.text == "hello"
        assert node.get("attr") == "1"

    def test_subelement_attaches(self):
        root = element("Root")
        child = subelement(root, "Child", "x")
        assert list(root) == [child]


class TestParsing:
    def test_round_trip(self):
        root = element("Root")
        subelement(root, "A", "1")
        subelement(root, "B", "2")
        parsed = parse_xml(pretty_xml(root))
        assert child_text(parsed, "A") == "1"
        assert child_text(parsed, "B") == "2"

    def test_malformed_xml_raises_message_error(self):
        with pytest.raises(MessageError):
            parse_xml("<unclosed>")

    def test_require_child_missing(self):
        with pytest.raises(MessageError):
            require_child(element("Root"), "Missing")

    def test_child_text_default(self):
        assert child_text(element("Root"), "Missing", default="d") == "d"

    def test_child_text_missing_raises(self):
        with pytest.raises(MessageError):
            child_text(element("Root"), "Missing")

    def test_child_text_strips_whitespace(self):
        root = parse_xml("<R><A>  padded  </A></R>")
        assert child_text(root, "A") == "padded"


class TestPrettyPrinting:
    def test_nested_indentation(self):
        root = element("Outer")
        inner = subelement(root, "Inner")
        subelement(inner, "Leaf", "v")
        text = pretty_xml(root)
        lines = text.splitlines()
        assert lines[0] == "<Outer>"
        assert lines[1].startswith("  <Inner>")
        assert lines[2].startswith("    <Leaf>")

    def test_leaf_element_unchanged(self):
        assert pretty_xml(element("Leaf", "v")) == "<Leaf>v</Leaf>"

    def test_rendering_does_not_write_layout_into_the_tree(self):
        root = element("Outer", "ignored text")
        inner = subelement(root, "Inner")
        leaf = subelement(inner, "Leaf", "v")
        leaf.tail = "kept"
        pretty_xml(root)
        assert root.text == "ignored text" and root.tail is None
        assert inner.text is None and inner.tail is None
        assert leaf.text == "v" and leaf.tail == "kept"

    def test_wire_tree_renders_the_same_twice(self):
        root = element("Outer")
        subelement(subelement(root, "Inner"), "Leaf", "  ")
        subelement(root, "Empty")
        parsed = parse_xml(pretty_xml(root))
        first = pretty_xml(parsed)
        assert first == pretty_xml(parsed) == pretty_xml(root)
        assert "<Leaf>  </Leaf>" in first and "<Empty />" in first
