"""Differential oracle for the RSL leg.

``tests/rsl/rsl_reference.py`` keeps the seed's character scanner and
renderer. The production parser (one compiled lexer, DESIGN §12) must
give the same verdict and the same AST on every string — RSL generated
from the grammar and character soup alike — the production renderer
must write the same bytes wherever the seed's output read back as what
was rendered, and ``vector_from_rsl`` must return the same tuple or
raise the same error. Hypothesis runs derandomized, so the suite is
deterministic.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import RSLError, ValidationError
from repro.qos.vector import ResourceVector
from repro.rsl import (RSLExpression, RSLRelation, parse_rsl,
                       reservation_rsl, vector_from_rsl)

from . import rsl_reference as seed


def _settings(examples: int) -> settings:
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=examples)


# ----------------------------------------------------------------------
# RSL text from the grammar
# ----------------------------------------------------------------------

#: Whitespace ``str.isspace`` accepts, including two non-ASCII ones.
_SPACE = st.sampled_from(["", "", " ", "\t", "\n ", "\xa0", "\u2003",
                          "\r\x0b\x0c"])
#: Attributes GARA reads, and tokens a combinator sits inside or opens
#: (after ``(``, a leading one makes the clause a nested expression).
_ATTRIBUTES = st.sampled_from(
    ["count", "memory", "disk", "bandwidth", "start-time", "end-time",
     "label", "a&b", "x+", "os", "+x", "|os"])
_OPERATORS = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
#: The six operators as text, and the near misses the grammar rejects.
_OPERATOR_TEXT = st.one_of(_OPERATORS, st.sampled_from(
    ["!", "! =", "< =", "> =", "==", "=!"]))
_COMBINATORS = st.sampled_from(["&", "|", "+"])
#: Token characters, the combinators among them.
_TOKENS = st.text(alphabet="ab-_./&|+019eEinfaNIt", min_size=1, max_size=6)
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["inf", "-inf", "+inf", "nan", "-nan", "Infinity",
                     "1_000", "1e3", ".5", "5.", "-0"]))
#: Quoted strings, with ``""`` escapes and everything a token cannot hold.
_QUOTED = st.one_of(
    st.text(alphabet='ab "()=<>!\t\n', max_size=6),
    st.sampled_from(['"', 'say "hi"', '""x""', ' " '])).map(
    lambda body: '"' + body.replace('"', '""') + '"')
_LEAF_TEXT = st.one_of(_TOKENS, _NUMBERS, _QUOTED)
_LIST_TEXT = st.builds(
    lambda spaces, items: "(" + spaces + " ".join(items) + ")",
    _SPACE, st.lists(_LEAF_TEXT, max_size=3))
#: A value: a leaf, or a bracketed list nesting at most two deep.
_VALUE_TEXT = st.one_of(
    _LEAF_TEXT, _LIST_TEXT,
    st.lists(st.one_of(_LEAF_TEXT, _LIST_TEXT), max_size=2).map(
        lambda items: "(" + " ".join(items) + ")"))


@st.composite
def _relation(draw):
    values = draw(st.lists(_VALUE_TEXT, min_size=1, max_size=2))
    glue = draw(st.sampled_from([" ", "  ", "\t", "\n "]))
    return (draw(_SPACE) + draw(_ATTRIBUTES) + draw(_SPACE)
            + draw(_OPERATOR_TEXT) + draw(_SPACE) + glue.join(values)
            + draw(_SPACE))


@st.composite
def _expression(draw, depth=0):
    head = draw(_COMBINATORS) if depth else draw(
        st.sampled_from(["&", "|", "+", ""]))
    clauses = []
    for _ in range(draw(st.integers(1, 3 - depth))):
        if depth < 2 and draw(st.integers(0, 2)) == 0:
            inner = draw(_expression(depth + 1))
        else:
            inner = draw(_relation())
        clauses.append("(" + inner + ")" + draw(_SPACE))
    return draw(_SPACE) + head + draw(_SPACE) + "".join(clauses)


#: The characters the grammar gives a meaning to, and a few token ones.
_SOUP_ALPHABET = '&|+()=!<>" \tab1.e'


@st.composite
def _mutated(draw):
    """Generated RSL with one to three character edits: most land near
    a valid string, where the two parsers are easiest to tell apart."""
    text = draw(_expression())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(_SOUP_ALPHABET))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            text = text[:at] + char + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + char + text[at + 1:]
    return text


_TEXTS = st.one_of(_expression(), _mutated(),
                   st.text(alphabet=_SOUP_ALPHABET, max_size=30))


def _parsed(parse, text):
    """The AST as its repr (so NaN values compare), or the error."""
    try:
        return repr(parse(text))
    except RSLError as error:
        return f"RSLError: {error}"


def _extracted(extract, text):
    try:
        return repr(extract(text))
    except (RSLError, ValidationError) as error:
        return f"{type(error).__name__}: {error}"


# ----------------------------------------------------------------------
# The parser
# ----------------------------------------------------------------------

#: Strings on the edges the lexer must keep exact.
EDGE_CASES = [
    "", " \t\n", "&", "&(", "&()", "(", "()", "((a=1))", "(a=1)",
    "&(a=1)(b=2)", " & ( a = 1 ) ( b = 2 ) ", "\xa0& (a=1)",
    "&x(a=1)", "&&(a=1)", "+2", "(+2=3)", "&(+(a=1))", "&(a&b=1)",
    "&(a=&b)", "&(a=+2)", "&(a=(&b))", "&(a=(b=c))", "&(a=1(2))",
    "&(a=1(b=c))", "&(a!=1)", "&(a!1)", "&(a! =1)", "&(a<=1)",
    "&(a< =1)", "&(a<==1)", "&(a==1)", "&(a=<1)", "&(a>= 1)",
    '&(a="x")', '&(a="")', '&(a="say ""hi""")', '&(a="x"y)',
    '&(a=x"y")', '&(a="a"")', '&(a="a""b"")', '&(a="(b=c)")',
    '&(a="x""', '&(a="x""")', '&(a="""")',
    '&("a"=1)', "&(a=())", "&(a=(1 (2 3)) 4)", "&(a=nan)",
    "&(a=-inf)(b=1_000)", "&(a=1)trailing", "&(a=1) trailing",
    "&(a=1))", "&(a=1) )", "&(a=1)(", "&(a=1)(b=2", "&(a", "&(a=",
    "&(a b=1)", "&(a=1 2)(b)",
    "|(&(a=1)(b=2))(&(c=3))", "&(count=1)(+(&(a=1))(&(b=2)))",
]


class TestParser:
    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_cases_match_the_scanner(self, text):
        assert _parsed(parse_rsl, text) == _parsed(seed.parse_rsl, text)

    @_settings(250)
    @given(_TEXTS)
    def test_same_verdict_and_ast(self, text):
        assert _parsed(parse_rsl, text) == _parsed(seed.parse_rsl, text)

    def test_whitespace_is_what_isspace_says(self):
        for char in ("\x1c", "\x85", "\u2028", "\u3000"):
            assert char.isspace()
            assert parse_rsl(f"&{char}(a{char}={char}1)") == \
                parse_rsl("&(a=1)")
        # A zero-width space is not whitespace: it is a token character.
        assert parse_rsl("&(a=\u200b)").attributes() == {"a": "\u200b"}


# ----------------------------------------------------------------------
# The renderer
# ----------------------------------------------------------------------

_STRINGS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "10", "1e3", "inf", "nan", "-", "a b", "x\ty",
                     "simulation-service", 'q"q', "\u0661\u0662"]))
_LEAVES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**9, 10**9).map(float),
    _STRINGS)


def _lists_of(leaves):
    """A leaf, or a list of leaves and lists of leaves."""
    flat = st.lists(leaves, max_size=3).map(tuple)
    return st.one_of(leaves, flat, st.lists(st.one_of(leaves, flat),
                                            max_size=2).map(tuple))


_NAMES = st.sampled_from(["a", "count", "end-time", "x_1", "b.c"])


@st.composite
def _ast(draw, values, depth=0):
    relations = tuple(
        RSLRelation(draw(_NAMES), draw(_OPERATORS), draw(values))
        for _ in range(draw(st.integers(1, 3 - depth))))
    children = ()
    if depth < 2:
        children = tuple(draw(_ast(values, depth + 1))
                         for _ in range(draw(st.integers(0, 1))))
    return RSLExpression(draw(_COMBINATORS), relations, children)


class TestRenderer:
    @_settings(150)
    @given(_ast(_lists_of(_LEAVES)))
    def test_renders_match_the_seed_where_it_round_trips(self, expression):
        rendered = seed.render_expression(expression)
        if _parsed(seed.parse_rsl, rendered) == repr(expression):
            assert expression.render() == rendered

    def test_numbers_of_other_types_render_as_before(self):
        for value in (5, -3, True, 2 ** 70):
            relation = RSLRelation("a", "=", value)
            assert relation.render() == \
                f"(a={seed.render_value(value)})" == f"(a={value})"

    @_settings(200)
    @given(st.floats(0, 1e9), st.floats(0, 1e6), st.floats(0, 1e6),
           st.floats(0, 1e4), st.floats(-1e6, 1e6), st.floats(0, 1e6),
           st.one_of(st.none(), st.just("simulation-service"), _STRINGS))
    def test_reservations_match_the_seed_where_it_round_trips(
            self, cpu, memory, disk, bandwidth, start, length, name):
        demand = ResourceVector(cpu, memory, disk, bandwidth)
        end = start + length
        rendered = seed.reservation_rsl(demand, start, end,
                                        service_name=name)
        wanted = repr((demand, start, end, name or None))
        # A label must read back as the string itself: "inf" came back
        # as a float the extraction only happened to print the same.
        label = seed.parse_rsl(rendered).attributes().get("label")
        if _extracted(seed.vector_from_rsl, rendered) == wanted \
                and repr(label) == repr(name or None):
            assert reservation_rsl(demand, start, end,
                                   service_name=name) == rendered

    @_settings(300)
    @example("svc\t1")
    @example("line\nbreak")
    @example("10")
    @example("1e3")
    @example("inf")
    @example("nan")
    @example('say "hi"')
    @example("\xa0")
    @example("\u0661")
    @given(st.text(min_size=1))
    def test_any_service_name_round_trips(self, name):
        rendered = reservation_rsl(ResourceVector(cpu=1), 0.0, 10.0,
                                   service_name=name)
        assert vector_from_rsl(rendered)[3] == name

    @_settings(80)
    @given(_ast(_lists_of(_STRINGS)))
    def test_string_values_round_trip(self, expression):
        assert parse_rsl(expression.render()) == expression


# ----------------------------------------------------------------------
# The extraction
# ----------------------------------------------------------------------

_RESERVATION_ATTRIBUTES = st.sampled_from(
    ["count", "memory", "disk", "bandwidth", "start-time", "end-time",
     "label", "os"])


@st.composite
def _reservation_text(draw):
    """Reservation-shaped RSL: the attributes GARA reads, any values."""
    clauses = []
    for _ in range(draw(st.integers(0, 7))):
        operator = draw(st.sampled_from(["=", "=", "=", "<=", "!="]))
        values = draw(st.lists(_VALUE_TEXT, min_size=1, max_size=2))
        clause = (f"({draw(_RESERVATION_ATTRIBUTES)}{operator}"
                  f"{' '.join(values)})")
        if draw(st.integers(0, 5)) == 0:
            clause = f"(&{clause})"
        clauses.append(clause)
    return "&" + "".join(clauses)


class TestExtraction:
    @_settings(150)
    @given(st.one_of(_reservation_text(), _TEXTS))
    def test_same_result_or_same_error(self, text):
        assert _extracted(vector_from_rsl, text) == \
            _extracted(seed.vector_from_rsl, text)

    @pytest.mark.parametrize("text, message", [
        ("&(end-time=1)", "missing required attribute 'start-time'"),
        ("&(start-time=0)(end-time=x)", "'end-time' is not numeric"),
        ("&(start-time=0)(end-time=nan)", "'end-time' is not numeric"),
        ("&(count=(1 2))(start-time=0)(end-time=1)",
         "'count' is not numeric"),
        ("&(start-time=2)(end-time=1)", "ends"),
        ("&(start-time=0)(end-time=1)(label=a b)", "'label' is a list"),
        ("&(start-time=0)(end-time=1)(label=(a))", "'label' is a list"),
    ])
    def test_every_check_holds(self, text, message):
        with pytest.raises(RSLError, match=message):
            vector_from_rsl(text)

    def test_later_bindings_and_nested_clauses(self):
        demand, start, end, label = vector_from_rsl(
            "&(count=x)(&(memory=2)(count=1))(count=3)(start-time=-inf)"
            "(end-time=inf)(label=10)(disk<=9)")
        assert demand == ResourceVector(cpu=3, memory_mb=2)
        assert (start, end) == (-math.inf, math.inf)
        assert label == "10.0"  # a client's bare number, as before
