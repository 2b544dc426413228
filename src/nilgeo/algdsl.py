"""Parsers and serializers for algebra and form notation.

Two input languages live here: the compact structure-constant notation for
Lie algebras, like "(0,0,12)" or "(0,0,0,0,12+34)", and a small expression
language for invariant forms, like "2*e3" or "(e1+i*e2)^(e3+i*e4)". There are
also parsers for endomorphisms ("pairs:(1,2),(3,4)" or an explicit matrix)
and for vectors ("X1 + 2*X3" or an explicit coordinate list).

Grammar (EBNF) for form expressions:

    expr   = ["-"] term { ("+" | "-") term } ;
    term   = atom { ("^" | "*") atom } ;
    atom   = generator | "i" | rational | "(" expr ")" ;
    generator = "e" digits ;
    rational  = digits [ "/" digits ] ;

"^" and "*" both denote the exterior product; rationals and "i" are
degree-0 factors, so scalar multiplication needs no special case. A
generator e<digits> is a single index when the value is within the declared
dimension; for dimension at most 9 a larger multi-digit generator with
strictly increasing digits is the compact monomial (e12 = e1^e2), so
rendered forms parse back to themselves. A product whose two sides have more
than MAX_WEDGE_PAIRS pairs of terms is refused before it is expanded.

Algebras of dimension at most 9 use the compact pair notation; larger ones
use the JSON format {"dim": n, "d": {"k": [[coef, i, j], ...]}} with
coefficients as exact strings "p/q".
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .cealg import LieAlgebra
from .errors import InputError
from .exterior import ComplexKForm, Endo, KForm, Vector, add_terms, rat, wedge_terms


# ---------------------------------------------------------------------------
# algebra notation
# ---------------------------------------------------------------------------

_PAIR_TERM = re.compile(r"^(?:(\d+(?:/\d*[1-9]\d*)?)\*)?(\d)(\d)$")


def _parse_entry(entry: str, k: int, dim: int) -> KForm:
    entry = entry.strip()
    if entry == "0":
        return KForm.zero(dim, 2)
    # split into signed terms
    out = KForm.zero(dim, 2)
    pos = 0
    sign = 1
    if entry and entry[0] in "+-":
        sign = -1 if entry[0] == "-" else 1
        pos = 1
    start = pos
    chunks: list[tuple[int, str]] = []
    while pos <= len(entry):
        if pos == len(entry) or entry[pos] in "+-":
            chunk = entry[start:pos].strip()
            if not chunk:
                raise InputError(f"entry {k}: empty term in {entry!r}")
            chunks.append((sign, chunk))
            if pos < len(entry):
                sign = -1 if entry[pos] == "-" else 1
            start = pos + 1
        pos += 1
    for sgn, chunk in chunks:
        m = _PAIR_TERM.match(chunk)
        if not m:
            raise InputError(f"entry {k}: malformed term {chunk!r}")
        coef = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        i, j = int(m.group(2)), int(m.group(3))
        if i >= j:
            raise InputError(f"entry {k}: invalid pair {i}{j} (indices must increase)")
        if j > dim:
            raise InputError(f"entry {k}: index {j} out of range for dimension {dim}")
        out = out + KForm.monomial(dim, (i, j), sgn * coef)
    return out


def parse_algebra(text: str, check: bool = True, require_nilpotent: bool = False) -> LieAlgebra:
    """Parse compact structure-constant notation or the JSON algebra format.

    The elaborated differential is verified to square to zero (Jacobi);
    a failure raises JacobiError. Non-nilpotent algebras passing Jacobi are
    accepted unless require_nilpotent is set.
    """
    text = text.strip()
    if text.startswith("{"):
        alg = _parse_algebra_json(text, check=check)
    else:
        if not (text.startswith("(") and text.endswith(")")):
            raise InputError("algebra spec must be parenthesized, like (0,0,12)")
        entries = [e.strip() for e in text[1:-1].split(",")]
        dim = len(entries)
        if dim == 1 and entries[0] == "":
            raise InputError("empty algebra spec")
        if dim > 9:
            raise InputError("compact notation supports dimension <= 9; use the JSON format")
        d1 = [_parse_entry(e, k, dim) for k, e in enumerate(entries, start=1)]
        alg = LieAlgebra(d1, check=check)
    if require_nilpotent and not alg.is_nilpotent():
        raise InputError("algebra is not nilpotent")
    return alg


def _parse_algebra_json(text: str, check: bool = True) -> LieAlgebra:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad algebra JSON: {exc}") from exc
    if not isinstance(data, dict) or "dim" not in data:
        raise InputError('algebra JSON needs {"dim": n, "d": {...}}')
    try:
        dim = int(data["dim"])
        d1 = [KForm.zero(dim, 2) for _ in range(dim)]
        for key, terms in (data.get("d") or {}).items():
            k = int(key)
            if not 1 <= k <= dim:
                raise InputError(f"generator index {k} out of range")
            form = KForm.zero(dim, 2)
            for coef, i, j in terms:
                if not (1 <= int(i) < int(j) <= dim):
                    raise InputError(f"invalid pair ({i},{j}) in d({k})")
                form = form + KForm.monomial(dim, (int(i), int(j)), rat(coef))
            d1[k - 1] = form
    except (TypeError, ValueError, KeyError) as exc:
        raise InputError(f"malformed algebra JSON: {exc}") from exc
    return LieAlgebra(d1, check=check)


def serialize_algebra(alg: LieAlgebra) -> str:
    """Compact notation for dim <= 9; JSON otherwise. Round-trips through parse_algebra."""
    if alg.dim > 9:
        return serialize_algebra_json(alg)
    entries = []
    for form in alg.d1:
        if form.is_zero:
            entries.append("0")
            continue
        parts = []
        for idx in sorted(form.terms):
            c = form.terms[idx]
            body = f"{idx[0]}{idx[1]}"
            if c == 1:
                parts.append(f"+{body}")
            elif c == -1:
                parts.append(f"-{body}")
            elif c > 0:
                parts.append(f"+{c}*{body}")
            else:
                parts.append(f"-{-c}*{body}")
        joined = "".join(parts)
        entries.append(joined[1:] if joined.startswith("+") else joined)
    return "(" + ",".join(entries) + ")"


def serialize_algebra_json(alg: LieAlgebra) -> str:
    d = {}
    for k, form in enumerate(alg.d1, start=1):
        if not form.is_zero:
            d[str(k)] = [[str(c), i, j] for (i, j), c in sorted(form.terms.items())]
    return json.dumps({"dim": alg.dim, "d": d})


# ---------------------------------------------------------------------------
# form expression language
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gen:
    index: int


@dataclass(frozen=True)
class Rat:
    value: Fraction


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


_TOKEN = re.compile(r"\s*(e\d+|\d+|[i+\-*^/()])")


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
            return Gen(int(tok[1:]))
        if tok.isdigit():
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not den.isdigit() or not int(den):
                    raise InputError(f"bad rational denominator {den!r}")
                return Rat(Fraction(int(tok), int(den)))
            return Rat(Fraction(int(tok)))
        raise InputError(f"unexpected token {tok!r}")


def parse_form_expr(text: str):
    """Parse a form expression to its syntax tree (no dimension yet)."""
    parser = _FormParser(_tokenize_form(text))
    tree = parser.parse_expr()
    if parser.peek() is not None:
        raise InputError(f"trailing input at {parser.peek()!r}")
    return tree, parser.saw_imag


# The largest |a| * |b| (term counts) of one wedge. Goldens and benchmark
# inputs reach 16, the Heisenberg form (e1+i*e2)^...^(e19+i*e20) 1024; generic
# 1-forms on dimension 30 exceed it at the fourth factor (1832 * 30), where a
# 2-CPU x86-64 host spends 0.6 s (9 s on a fifth factor, 142506 terms).
MAX_WEDGE_PAIRS = 2**14


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
        p, q = node.value.as_integer_ratio()
        return 0, {(): p} if p else {}, {}, q
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


def parse_form(text: str, dim: int):
    """Elaborate a form expression; the presence of "i" yields a ComplexKForm."""
    tree, saw_imag = parse_form_expr(text)
    degree, re, im, den = _elaborate(tree, dim)
    re, im = (KForm(dim, degree, {key: Fraction(c, den) for key, c in terms.items()}) for terms in (re, im))
    if saw_imag:
        return ComplexKForm(re, im)
    if not im.is_zero:
        raise InputError("internal: imaginary part without i token")
    return re


# ---------------------------------------------------------------------------
# endomorphisms and vectors
# ---------------------------------------------------------------------------

_PAIRS = re.compile(r"^\(\s*(\d+)\s*,\s*(\d+)\s*\)$")


def parse_endo(text: str, dim: int) -> Endo:
    """Parse "pairs:(1,2),(3,4)" shorthand or an explicit matrix.

    The matrix form is "matrix:[[...], ...]" (or a bare JSON array); entries
    are integers or exact strings "p/q".
    """
    text = text.strip()
    if text.startswith("pairs:"):
        body = text[len("pairs:") :].strip()
        pairs = []
        depth = 0
        start = 0
        chunks = []
        for pos, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                chunks.append(body[start:pos])
                start = pos + 1
        chunks.append(body[start:])
        for chunk in chunks:
            m = _PAIRS.match(chunk.strip())
            if not m:
                raise InputError(f"bad pair syntax {chunk!r}")
            pairs.append((int(m.group(1)), int(m.group(2))))
        return Endo.from_pairs(dim, pairs)
    if text.startswith("matrix:"):
        text = text[len("matrix:") :].strip()
    if text.startswith("["):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad matrix JSON: {exc}") from exc
        if len(rows) != dim or any(not isinstance(r, list) or len(r) != dim for r in rows):
            raise InputError(f"matrix must be {dim}x{dim}")
        return Endo([[rat(x) for x in row] for row in rows])
    raise InputError("endomorphism must be pairs:(a,b),... or matrix:[[...]]")


_VEC_TERM = re.compile(r"^(?:(\d+(?:/\d*[1-9]\d*)?)\*)?X(\d+)$")


def parse_vector(text: str, dim: int) -> Vector:
    """Parse "X1", "X1 + 2*X3", "1/2*X3 - X4", or a JSON coordinate list."""
    text = text.strip()
    if text.startswith("["):
        try:
            coords = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad vector JSON: {exc}") from exc
        if len(coords) != dim:
            raise InputError(f"vector must have {dim} coordinates")
        return Vector([rat(x) for x in coords])
    body = text.replace(" ", "")
    if not body:
        raise InputError("empty vector expression")
    coeffs = [Fraction(0)] * dim
    sign = 1
    pos = 0
    if body[0] in "+-":
        sign = -1 if body[0] == "-" else 1
        pos = 1
    start = pos
    while pos <= len(body):
        if pos == len(body) or body[pos] in "+-":
            chunk = body[start:pos]
            m = _VEC_TERM.match(chunk)
            if not m:
                raise InputError(f"bad vector term {chunk!r}")
            coef = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            idx = int(m.group(2))
            if not 1 <= idx <= dim:
                raise InputError(f"vector index X{idx} out of range")
            coeffs[idx - 1] += sign * coef
            if pos < len(body):
                sign = -1 if body[pos] == "-" else 1
            start = pos + 1
        pos += 1
    return Vector(coeffs)


def parse_vectors(text: str, dim: int) -> list[Vector]:
    """Semicolon-separated list of vector expressions."""
    return [parse_vector(chunk, dim) for chunk in text.split(";") if chunk.strip()]
