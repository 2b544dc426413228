"""The one-pass form reader `algdsl.parse_form` against the tree parser and
term-map elaboration of `fraction_forms`, which it replaced.

On valid expressions the two must give the same type, degree, denominator and
term maps with their keys in the same order (`legendrian.comass_sample` sums
floats in that order). On malformed ones they must give the same error text:
every syntax error before any elaboration error, and the first of each kind.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilgeo.algdsl import MAX_FORM_DEPTH, MAX_WEDGE_PAIRS, parse_form
from nilgeo.errors import InputError
from nilgeo.exterior import ComplexKForm, KForm

from .fraction_forms import parse_form_maps

LONG = "9" * 101  # one digit over exterior.MAX_LITERAL_DIGITS


def shape(value):
    """(type, degree, [(den, terms in order)] of each part) of a parsed form."""
    parts = (value.re, value.im) if isinstance(value, ComplexKForm) else (value,)
    return type(value).__name__, value.degree, [(part.den, list(part.nums.items())) for part in parts]


def outcome(parse, text, dim):
    try:
        return shape(parse(text, dim))
    except InputError as exc:
        return "InputError", str(exc)


def same(text, dim):
    got = outcome(parse_form, text, dim)
    assert got == outcome(parse_form_maps, text, dim)
    return got


def atoms(dim):
    generators = st.integers(0, dim + 2).map(lambda k: f"e{k}")
    compact = st.lists(st.integers(1, 9), min_size=2, max_size=3).map(lambda ks: "e" + "".join(map(str, ks)))
    rationals = st.tuples(st.integers(0, 12), st.integers(1, 6)).map(lambda pq: f"{pq[0]}/{pq[1]}")
    return st.one_of(generators, compact, rationals, st.sampled_from(("i", "0", "1", "2", "3")))


def combine(children):
    pair = st.tuples(children, children, st.sampled_from(("+", "-", "^", "*", " + ", " - ", " ^ ")))
    return st.one_of(
        pair.map(lambda abo: f"{abo[0]}{abo[2]}{abo[1]}"),
        pair.map(lambda abo: f"({abo[0]}){abo[2]}({abo[1]})"),
        children.map(lambda a: f"-({a})"),
        children.map(lambda a: f"+{a}"),
        children.map(lambda a: f"({a}) - ({a})"),  # a sum that cancels
    )


@st.composite
def expressions(draw):
    dim = draw(st.sampled_from((3, 5, 7, 9, 12)))
    return draw(st.recursive(atoms(dim), combine, max_leaves=10)), dim


PIECES = ("(", ")", "+", "-", "^", "*", "/", " ", "$", "e", "i", "0", "1/0", "e99", LONG, "e" + LONG, "e1^e2")


@st.composite
def malformed(draw):
    text, dim = draw(expressions())
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(text)))
        if text and draw(st.booleans()):
            text = text[:pos] + text[pos + 1 :]
        else:
            text = text[:pos] + draw(st.sampled_from(PIECES)) + text[pos:]
    return text, dim


@given(expressions())
@example(("2*e3", 3))
@example(("0*e1 + e1^e2", 3))
@example(("e1 - e1 + e2^e3", 3))
@example(("-e1 + 1/2*e2 - 1/3*e3", 3))
@example(("e1 + e2^e3 - e2^e3", 3))
@example(("(3/5+4/5*i)*((e1+i*e2))", 3))
@example(("(3/5+4/5*i)*(e1+i*e2)^(e3+i*e4)^(e5+i*e6)", 7))
@example(("(e1 + i*e2)^(e3 - i*e4) + i*e1^e3 + e2^e4", 5))
@example(("e12 + 3/5*e3^e1 - e123", 3))
@example(("1 + i - 1 - i", 3))
@settings(max_examples=150, deadline=None)
def test_the_reader_matches_the_tree_elaboration_and_its_term_order(case):
    same(*case)


@given(malformed())
@example(("e9 + (", 3))
@example(("e9 + e1^e2 + 1/0", 3))
@example(("e9 + e1^e2", 3))
@example(("2*e3 ", 3))
@example((" 2*e3", 3))
@example(("   ", 3))
@example(("", 3))
@example(("1/0*e1", 3))
@example((f"{LONG}*e1", 3))
@example((f"e{LONG}", 3))
@example(("e1 + e2^e3 + e9", 3))
@example(("e1 + e9 + e2^e3", 3))
@example(("(e1 + e2", 3))
@example(("e1 e2", 3))
@example(("1/e2", 3))
@example(("e1 + $", 3))
@settings(max_examples=150, deadline=None)
def test_malformed_expressions_report_the_errors_of_the_tree_parser(case):
    same(*case)


def test_error_precedence_examples():
    assert same("e9 + (", 3) == ("InputError", "unexpected end of expression")
    assert same("e9 + e1^e2 + 1/0", 3)[1].startswith("not an exact rational")
    assert same("2*e3 ", 3) == ("InputError", "syntax error at ' '")
    assert same(" 2*e3", 3)[0] == "KForm"
    assert same("e1 + e2^e3 + e9", 3) == ("InputError", "mixed degrees in a sum: 1 and 2")


def complex_one_form(indices):
    """A 1-form whose every term has a real and an imaginary part."""
    return "(" + " + ".join(f"(1+i)*e{k}" for k in indices) + ")"


def test_the_wedge_bound_counts_real_and_imaginary_terms_at_its_edge():
    side = complex_one_form(range(1, 65))  # 64 terms in re and in im: 128
    assert 128 * 128 == MAX_WEDGE_PAIRS
    assert same(f"{side}^{side}", 70)[0] == "ComplexKForm"  # vanishes, but is expanded
    wider = side[:-1] + " + e65)"  # 129
    refused = f"expression too large: a wedge of 128 by 129 terms exceeds {MAX_WEDGE_PAIRS} term pairs"
    assert same(f"{side}^{wider}", 70) == ("InputError", refused)
    # the refusal is held: a later syntax error wins, a later generator does not
    assert same(f"{side}^{wider} + e99", 70) == ("InputError", refused)
    assert same(f"{side}^{wider} + (", 70) == ("InputError", "unexpected end of expression")


def nested(depth, inner="e1"):
    return "(" * depth + inner + ")" * depth


def test_nesting_up_to_the_depth_limit_reads_as_the_tree_parser_does():
    assert same(nested(MAX_FORM_DEPTH), 3) == outcome(parse_form, "e1", 3)


@pytest.mark.parametrize("depth", [MAX_FORM_DEPTH + 1, 330, 5000])
def test_deeper_nesting_is_a_syntax_error(depth):
    deep = f"expression too deep: parentheses nested more than {MAX_FORM_DEPTH} levels"
    assert outcome(parse_form, nested(depth), 3) == ("InputError", deep)
    # it comes before any elaboration error, and after the token scan
    assert outcome(parse_form, "e9 + " + nested(depth), 3) == ("InputError", deep)
    assert outcome(parse_form, nested(depth) + " $", 3) == ("InputError", "syntax error at ' $'")


def test_a_real_expression_is_a_kform_and_a_complex_one_keeps_both_parts():
    assert isinstance(parse_form("2*e3", 3), KForm)
    value = parse_form("e1 + i*e2 - i*e2", 3)
    assert isinstance(value, ComplexKForm) and value.im.is_zero
