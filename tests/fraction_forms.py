"""Reference parses of form expressions, as a syntax tree elaborated two
ways, and the reference parse of algebra specs as per-monomial KForm sums.

The tree (`Gen`, `Rat`, `Imag`, `Wedge`, `Sum`), its parser and its term-map
elaboration `_elaborate` are what `algdsl` ran before it read expressions in
one pass; `parse_form_maps` gives their form, with the same error texts and
the same key order of the term maps. In `elaborate`, each tree node becomes a
validated ComplexKForm and every product and sum is a ComplexKForm operation,
as `algdsl` elaborated expressions before it combined term maps. Each pair
term of an algebra spec becomes one validated monomial KForm, added to the
sum of the earlier ones, as `algdsl` parsed algebras before it added up term
maps. The tests compare `parse_form` and `parse_algebra` against them; the
tree parser also on malformed expressions.

`serialize_algebra_json` writes any algebra in the JSON notation, the small
ones too, for the parsers' round-trip tests. `scaled` and `covector` give a
Fraction table as ints over one denominator and a 1-form's values as
Fractions, for the Fraction references. `render` and `render_vector`
write forms and vectors from their Fraction views, as `str` did before it
rendered from the stored ints.
"""

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from nilgeo import linalg
from nilgeo.algdsl import MAX_WEDGE_PAIRS
from nilgeo.errors import InputError
from nilgeo.exterior import ComplexKForm, KForm, add_terms, covectors, literal, rat, wedge_terms


def scaled(table) -> tuple[list, int]:
    """(numerators, den): a rectangular nested table of rationals as Python
    ints of the same nesting over den, the lcm of its denominators."""
    flat, shape = table, []
    while flat and isinstance(flat[0], (list, tuple)):
        shape.append(len(flat[0]))
        flat = [x for row in flat for x in row]
    out, den = linalg.over_lcm([Fraction(x).as_integer_ratio() for x in flat])
    for size in reversed(shape):
        out = [out[k : k + size] for k in range(0, len(out), size)]
    return out, den


def covector(a: KForm) -> list[Fraction]:
    """The values a(X_1), ..., a(X_n) of a real 1-form."""
    (row,), den = covectors([a])
    return [Fraction(x, den) for x in row]


def _signed_sum(parts) -> str:
    return (parts[0] + "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:])) if parts else "0"


def render(form) -> str:
    parts = []
    for idx in sorted(form.terms):
        c = form.terms[idx]
        if idx:
            gen = "e" + "".join(str(k) for k in idx) if form.dim <= 9 else "^".join(f"e{k}" for k in idx)
            parts.append(gen if c == 1 else f"-{gen}" if c == -1 else f"{c}*{gen}")
        else:
            parts.append(str(c))
    return _signed_sum(parts)


def render_vector(v) -> str:
    parts = []
    for i, c in enumerate(v.coeffs, start=1):
        if c:
            parts.append(f"X{i}" if c == 1 else f"-X{i}" if c == -1 else f"{c}*X{i}")
    return _signed_sum(parts)


def serialize_algebra_json(alg) -> str:
    d = {}
    for k, form in enumerate(alg.d1, start=1):
        if not form.is_zero:
            d[str(k)] = [[str(c), i, j] for (i, j), c in sorted(form.terms.items())]
    return json.dumps({"dim": alg.dim, "d": d})


_PAIR_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*)?(\d)(\d)")


@dataclass(frozen=True)
class Gen:
    index: int


@dataclass(frozen=True)
class Rat:
    p: int
    q: int  # > 0, in lowest terms


@dataclass(frozen=True)
class Imag:
    pass


@dataclass(frozen=True)
class Wedge:
    factors: tuple


@dataclass(frozen=True)
class Sum:
    # (sign, node) pairs
    terms: tuple


_TOKEN = re.compile(r"\s*(e[0-9]+|[0-9]+|[i+\-*^/()])")


def _tokenize_form(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise InputError(f"syntax error at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _FormParser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.saw_imag = False

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise InputError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse_expr(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        terms = [(sign, self.parse_term())]
        while self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
            terms.append((sign, self.parse_term()))
        return Sum(tuple(terms))

    def parse_term(self):
        factors = [self.parse_atom()]
        while self.peek() in ("^", "*"):
            self.take()
            factors.append(self.parse_atom())
        return Wedge(tuple(factors)) if len(factors) > 1 else factors[0]

    def parse_atom(self):
        tok = self.take()
        if tok == "(":
            inner = self.parse_expr()
            if self.peek() != ")":
                raise InputError("missing closing parenthesis")
            self.take()
            return inner
        if tok == "i":
            self.saw_imag = True
            return Imag()
        if tok.startswith("e"):
            return Gen(literal(tok[1:])[0])
        if tok.isdigit():
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not den.isdigit():
                    raise InputError(f"bad rational denominator {den!r}")
                tok = f"{tok}/{den}"
            return Rat(*literal(tok))
        raise InputError(f"unexpected token {tok!r}")


def parse_form_expr(text: str):
    """Parse a form expression to its syntax tree (no dimension yet)."""
    parser = _FormParser(_tokenize_form(text))
    tree = parser.parse_expr()
    if parser.peek() is not None:
        raise InputError(f"trailing input at {parser.peek()!r}")
    return tree, parser.saw_imag


def _elaborate(node, dim: int) -> tuple[int, dict, dict, int]:
    """(degree, re, im, den): term maps of nonzero ints over den; degrees as in ComplexKForm."""
    if isinstance(node, Gen):
        if 1 <= node.index <= dim:
            return 1, {(node.index,): 1}, {}, 1
        # compact monomials like e12 = e1^e2 (only unambiguous for dim <= 9)
        digits = tuple(int(ch) for ch in str(node.index))
        if (
            dim <= 9
            and len(digits) >= 2
            and all(1 <= k <= dim for k in digits)
            and all(a < b for a, b in zip(digits, digits[1:]))
        ):
            return len(digits), {digits: 1}, {}, 1
        raise InputError(f"generator e{node.index} out of range for dimension {dim}")
    if isinstance(node, Rat):
        return 0, {(): node.p} if node.p else {}, {}, node.q
    if isinstance(node, Imag):
        return 0, {}, {(): 1}, 1
    if isinstance(node, Wedge):
        degree, re, im, den = _elaborate(node.factors[0], dim)
        for factor in node.factors[1:]:
            fdeg, fre, fim, fden = _elaborate(factor, dim)
            left, right = len(re) + len(im), len(fre) + len(fim)
            if left * right > MAX_WEDGE_PAIRS:
                too_large = f"a wedge of {left} by {right} terms exceeds {MAX_WEDGE_PAIRS} term pairs"
                raise InputError(f"expression too large: {too_large}")
            # (a + ib) ^ (c + id) = (ac - bd) + i(ad + bc)
            re, im = ({key: c for key, c in add_terms(wedge_terms(u, v), sign, wedge_terms(x, y)).items() if c}
                      for u, v, sign, x, y in ((re, fre, -1, im, fim), (re, fim, 1, im, fre)))
            degree, den = degree + fdeg, den * fden
        return degree, re, im, den
    if isinstance(node, Sum):
        degree, re, im, den = 0, {}, {}, 1
        for sign, term in node.terms:
            tdeg, tre, tim, tden = _elaborate(term, dim)
            if not (re or im):
                degree = tdeg
            elif (tre or tim) and tdeg != degree:
                raise InputError(f"mixed degrees in a sum: {degree} and {tdeg}")
            scale = math.lcm(den, tden)
            a, b = scale // den, sign * scale // tden
            re, im = ({key: c for key, c in add_terms(add_terms({}, a, x), b, y).items() if c}
                      for x, y in ((re, tre), (im, tim)))
            den = scale
        return degree, re, im, den
    raise InputError(f"unknown node {node!r}")


def parse_form_maps(text: str, dim: int):
    """The form of an expression elaborated as term maps, as `algdsl` read
    it before it read expressions in one pass."""
    tree, saw_imag = parse_form_expr(text)
    degree, re, im, den = _elaborate(tree, dim)
    re, im = KForm._of(dim, degree, re, den), KForm._of(dim, degree, im, den)
    if saw_imag:
        return ComplexKForm(re, im)
    if not im.is_zero:
        raise InputError("internal: imaginary part without i token")
    return re


def elaborate(node, dim: int) -> ComplexKForm:
    if isinstance(node, Gen):
        if 1 <= node.index <= dim:
            return ComplexKForm.from_real(KForm.monomial(dim, (node.index,)))
        digits = tuple(int(ch) for ch in str(node.index))
        if (
            dim <= 9
            and len(digits) >= 2
            and all(1 <= k <= dim for k in digits)
            and all(a < b for a, b in zip(digits, digits[1:]))
        ):
            return ComplexKForm.from_real(KForm.monomial(dim, digits))
        raise InputError(f"generator e{node.index} out of range for dimension {dim}")
    if isinstance(node, Rat):
        return ComplexKForm.from_real(KForm.scalar(dim, Fraction(node.p, node.q)))
    if isinstance(node, Imag):
        return ComplexKForm(KForm.zero(dim, 0), KForm.scalar(dim, 1))
    if isinstance(node, Wedge):
        out = elaborate(node.factors[0], dim)
        for factor in node.factors[1:]:
            value = elaborate(factor, dim)
            left, right = (len(f.re.terms) + len(f.im.terms) for f in (out, value))
            if left * right > MAX_WEDGE_PAIRS:
                too_large = f"a wedge of {left} by {right} terms exceeds {MAX_WEDGE_PAIRS} term pairs"
                raise InputError(f"expression too large: {too_large}")
            out = out.wedge(value)
        return out
    if isinstance(node, Sum):
        total = None
        for sign, term in node.terms:
            value = elaborate(term, dim)
            if sign < 0:
                value = -value
            if total is None:
                total = value
            else:
                if not total.is_zero and not value.is_zero and total.degree != value.degree:
                    raise InputError(f"mixed degrees in a sum: {total.degree} and {value.degree}")
                total = total + value
        return total
    raise InputError(f"unknown node {node!r}")


def parse_form(text: str, dim: int):
    """The form of an expression: a ComplexKForm when it contains "i"."""
    tree, saw_imag = parse_form_expr(text)
    value = elaborate(tree, dim)
    if saw_imag:
        return value
    if not value.im.is_zero:
        raise InputError("internal: imaginary part without i token")
    return value.re


def algebra_d1(text: str) -> list[KForm]:
    """The generator differentials d(e^1), ..., d(e^dim) of a compact or JSON
    algebra spec, each the sum of one monomial KForm per pair term."""
    text = text.strip()
    if text.startswith("{"):
        data = json.loads(text)
        dim = data["dim"]
        d1 = [KForm.zero(dim, 2) for _ in range(dim)]
        for key, terms in data["d"].items():
            for coef, i, j in terms:
                d1[int(key) - 1] = d1[int(key) - 1] + KForm.monomial(dim, (i, j), rat(coef))
        return d1
    entries = text[1:-1].split(",")
    dim = len(entries)
    d1 = []
    for entry in entries:
        form = KForm.zero(dim, 2)
        for sign, coef, i, j in _PAIR_TERM.findall(entry):
            value = Fraction(coef or 1) * (-1 if sign == "-" else 1)
            form = form + KForm.monomial(dim, (int(i), int(j)), value)
        d1.append(form)
    return d1
