"""Tests for the RSL parser (repro.rsl.parser / ast)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import RSLError
from repro.rsl.ast import RSLExpression, RSLRelation
from repro.rsl.parser import parse_rsl


class TestBasicParsing:
    def test_conjunction(self):
        expression = parse_rsl("&(count=10)(memory=2048)")
        assert expression.operator == "&"
        assert len(expression.relations) == 2
        assert expression.attributes() == {"count": 10.0, "memory": 2048.0}

    def test_bare_relations_default_to_conjunction(self):
        expression = parse_rsl("(count=10)(memory=64)")
        assert expression.operator == "&"

    def test_comparison_operators(self):
        expression = parse_rsl("&(memory>=64)(disk<1000)(count!=0)")
        operators = {r.attribute: r.operator for r in expression.relations}
        assert operators == {"memory": ">=", "disk": "<", "count": "!="}

    def test_string_values(self):
        expression = parse_rsl("&(executable=/bin/app)(os=linux)")
        assert expression.attributes()["executable"] == "/bin/app"

    def test_quoted_strings(self):
        expression = parse_rsl('&(label="my service (v2)")')
        assert expression.attributes()["label"] == "my service (v2)"

    def test_quote_escaping(self):
        expression = parse_rsl('&(label="say ""hi""")')
        assert expression.attributes()["label"] == 'say "hi"'

    def test_value_lists(self):
        expression = parse_rsl("&(arguments=a b c)")
        assert expression.attributes()["arguments"] == ("a", "b", "c")

    def test_parenthesised_list_value(self):
        expression = parse_rsl("&(hosts=(h1 h2))")
        assert expression.attributes()["hosts"] == ("h1", "h2")

    def test_whitespace_insensitive(self):
        a = parse_rsl("&(count=10)(memory=64)")
        b = parse_rsl("  &  ( count = 10 )  ( memory = 64 )  ")
        assert a.attributes() == b.attributes()


class TestNesting:
    def test_disjunction(self):
        expression = parse_rsl("|(count=10)(count=20)")
        assert expression.operator == "|"
        assert [relation.value for relation in expression.relations] \
            == [10.0, 20.0]

    def test_nested_expression(self):
        expression = parse_rsl("&(count=10)(|(os=linux)(os=irix))")
        (child,) = expression.children
        assert [relation.value for relation in expression.relations] \
            == [10.0]
        assert child.operator == "|"
        assert [relation.value for relation in child.relations] \
            == ["linux", "irix"]

    def test_multirequest(self):
        expression = parse_rsl("+(&(count=10))(&(bandwidth=45))")
        assert expression.operator == "+"
        assert len(expression.children) == 2


class TestErrors:
    @pytest.mark.parametrize("text", [
        "",
        "&",
        "&(count)",
        "&(count=)",
        "&(=10)",
        "&(count=10",
        '&(label="unterminated)',
        "&(count!10)",
        "&(count=10)trailing",
    ])
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(RSLError):
            parse_rsl(text)

    def test_unknown_operator_in_relation(self):
        with pytest.raises(RSLError):
            RSLRelation("a", "~", 1.0)

    def test_unknown_combinator(self):
        with pytest.raises(RSLError):
            RSLExpression(operator="^")


class TestRenderRoundTrip:
    def test_simple_round_trip(self):
        original = "&(count=10)(memory=2048)(start-time=0)(end-time=100)"
        expression = parse_rsl(original)
        assert parse_rsl(expression.render()).attributes() == \
            expression.attributes()

    @pytest.mark.parametrize("text", [
        "+(&(count=10))(&(bandwidth=45))",
        "&(count=1)(+(&(a=1))(&(b=2)))",       # nested multi-request
        "&(count=10)(|(os=linux)(os=irix))",   # nested disjunction
        "|(&(a=1)(b=2))(&(c=3))",
    ])
    def test_nested_structures_round_trip(self, text):
        expression = parse_rsl(text)
        rendered = expression.render()
        reparsed = parse_rsl(rendered)
        # Idempotent from the first render onward.
        assert reparsed.render() == rendered
        assert reparsed.operator == expression.operator
        assert len(reparsed.children) == len(expression.children)

    @given(st.dictionaries(
        st.text(alphabet="abcdefgh-", min_size=1, max_size=8)
          .filter(lambda s: not s.startswith("-")),
        st.floats(min_value=0, max_value=1e9, allow_nan=False,
                  allow_infinity=False),
        min_size=1, max_size=6))
    def test_numeric_attribute_round_trip(self, attributes):
        relations = tuple(RSLRelation(name, "=", value)
                          for name, value in attributes.items())
        rendered = RSLExpression("&", relations=relations).render()
        parsed = parse_rsl(rendered).attributes()
        assert set(parsed) == set(attributes)
        for name, value in attributes.items():
            assert parsed[name] == pytest.approx(value, rel=1e-9)
