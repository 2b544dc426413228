"""Parsers and serializers for algebra and form notation.

Two input languages live here: the compact structure-constant notation for
Lie algebras, like "(0,0,12)" or "(0,0,0,0,12+34)", and a small expression
language for invariant forms, like "2*e3" or "(e1+i*e2)^(e3+i*e4)". There are
also parsers for endomorphisms ("pairs:(1,2),(3,4)" or an explicit matrix)
and for vectors ("X1 + 2*X3" or an explicit coordinate list).

Grammar (EBNF) for form expressions:

    expr   = ["+" | "-"] term { ("+" | "-") term } ;
    term   = atom { ("^" | "*") atom } ;
    atom   = generator | "i" | rational | "(" expr ")" ;
    generator = "e" digits ;
    rational  = digits [ "/" digits ] ;

"^" and "*" both denote the exterior product; rationals and "i" are
degree-0 factors, so scalar multiplication needs no special case. A
generator e<digits> is a single index when the value is within the declared
dimension; for dimension at most 9 a larger multi-digit generator with
strictly increasing digits is the compact monomial (e12 = e1^e2), so
rendered forms parse back to themselves. An expression is read in one pass:
each production returns its term maps, and no syntax tree is built. Every
syntax error is reported before any elaboration error (a generator out of
range, mixed degrees in a sum, a product whose two sides have more than
MAX_WEDGE_PAIRS pairs of terms, which is refused before it is expanded).

Algebras of dimension at most 9 use the compact pair notation; larger ones
use the JSON format {"dim": n, "d": {"k": [[coef, i, j], ...]}} with
coefficients as JSON integers or strings "[-]p[/q]"; `exterior.literal` reads
every rational literal.
"""

from __future__ import annotations

import json
import math
import re

from .cealg import LieAlgebra
from .errors import InputError
from .exterior import ComplexKForm, Endo, KForm, Vector, literal, merge_indices, ratio, read_json


# ---------------------------------------------------------------------------
# algebra notation
# ---------------------------------------------------------------------------

_PAIR_TERM = re.compile(r"(?:([0-9]+(?:/[0-9]+)?)\*)?([1-9])([0-9])")


def _signed_terms(text: str) -> list[tuple[int, str]]:
    """(sign, term) for each term of a signed sum like "-12+3/2*13", terms
    stripped; a leading sign is optional, and an empty term stays, as ""."""
    parts = re.split(r"([+-])", text)
    parts = parts[1:] if parts[0] == "" and len(parts) > 1 else ["+", *parts]
    return [(-1 if sign == "-" else 1, term.strip()) for sign, term in zip(parts[::2], parts[1::2])]


def _parse_entry(entry: str, k: int, dim: int):
    """Yield (k, (i, j), p, q) for each term p/q e^ij of one compact entry."""
    entry = entry.strip()
    if entry == "0":
        return
    chunks = _signed_terms(entry)
    if not all(chunk for _, chunk in chunks):
        raise InputError(f"entry {k}: empty term in {entry!r}")
    for sgn, chunk in chunks:
        m = _PAIR_TERM.fullmatch(chunk)
        if not m:
            raise InputError(f"entry {k}: malformed term {chunk!r}")
        p, q = literal(m.group(1)) if m.group(1) else (1, 1)
        i, j = int(m.group(2)), int(m.group(3))
        if i >= j:
            raise InputError(f"entry {k}: invalid pair {i}{j} (indices must increase)")
        if j > dim:
            raise InputError(f"entry {k}: index {j} out of range for dimension {dim}")
        yield k, (i, j), sgn * p, q


def parse_algebra(text: str) -> LieAlgebra:
    """Parse compact structure-constant notation or the JSON algebra format.

    Terms are read as ints p/q and each d(e^k) is added up in one int term
    map over the lcm of the q. The differential is verified to square to
    zero (Jacobi); a failure raises JacobiError. Non-nilpotent algebras
    passing Jacobi are accepted; `LieAlgebra.is_nilpotent` tells them apart.
    """
    text = text.strip()
    if text.startswith("{"):
        dim, terms = _parse_algebra_json(text)
    else:
        if not (text.startswith("(") and text.endswith(")")):
            raise InputError("algebra spec must be parenthesized, like (0,0,12)")
        entries = [e.strip() for e in text[1:-1].split(",")]
        dim = len(entries)
        if dim == 1 and entries[0] == "":
            raise InputError("empty algebra spec")
        if dim > 9:
            raise InputError("compact notation supports dimension <= 9; use the JSON format")
        terms = [term for k, e in enumerate(entries, start=1) for term in _parse_entry(e, k, dim)]
    den = math.lcm(*(q for *_, q in terms))
    d1: list[dict] = [{} for _ in range(dim)]
    for k, ij, p, q in terms:
        d1[k - 1][ij] = d1[k - 1].get(ij, 0) + p * (den // q)
    return LieAlgebra(d1, den)


# The largest dimension of a JSON algebra. The goldens and benchmarks reach
# 101 and the layer bench 801, where parsing takes about 8 ms on a 2-CPU
# x86-64 host; the bound is checked before any per-generator object is built.
MAX_ALGEBRA_DIM = 1024


def _parse_algebra_json(text: str) -> tuple[int, list]:
    """(dim, terms as `_parse_entry` yields them) of the JSON format; dim, the
    d keys and the pair indices must be JSON integers (not bools)."""
    data, terms = read_json(text, "algebra"), []
    if not isinstance(data, dict) or "dim" not in data:
        raise InputError('algebra JSON needs {"dim": n, "d": {...}}')
    dim, d = data["dim"], data.get("d") or {}
    if type(dim) is not int or not 1 <= dim <= MAX_ALGEBRA_DIM:
        raise InputError(f"algebra JSON: dim must be an integer in 1..{MAX_ALGEBRA_DIM}, got {json.dumps(dim)}")
    try:
        for key, entries in d.items():
            if not (key.isascii() and key.isdigit()):
                raise InputError(f"algebra JSON: generator key {key!r} is not an integer")
            k = literal(key)[0]
            if not 1 <= k <= dim:
                raise InputError(f"generator index {k} out of range")
            for coef, i, j in entries:
                if not (type(i) is type(j) is int and 1 <= i < j <= dim):
                    raise InputError(f"invalid pair ({json.dumps(i)},{json.dumps(j)}) in d({k})")
                terms.append((k, (i, j), *literal(coef)))
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"malformed algebra JSON: {exc}") from exc
    return dim, terms


def serialize_algebra(alg: LieAlgebra) -> str:
    """Compact notation for dim <= 9; JSON otherwise. Round-trips through parse_algebra."""
    if alg.dim > 9:
        d = {str(k): [[ratio(p, form.den), i, j] for (i, j), p in sorted(form.nums.items())]
             for k, form in enumerate(alg.d1, start=1) if not form.is_zero}
        return json.dumps({"dim": alg.dim, "d": d})
    entries = []
    for form in alg.d1:
        terms, q = sorted(form.nums.items()), form.den
        parts = [f"{'-' if p < 0 else '+'}{'' if abs(p) == q else f'{ratio(abs(p), q)}*'}{i}{j}" for (i, j), p in terms]
        entries.append("".join(parts).removeprefix("+") or "0")
    return "(" + ",".join(entries) + ")"


# ---------------------------------------------------------------------------
# form expression language
# ---------------------------------------------------------------------------


_FORM_TEXT = re.compile(r"(?:\s*(?:e[0-9]+|[0-9]+|[i+\-*^/()]))*")
_FORM_TOKEN = re.compile(r"\s*(e[0-9]+|[0-9]+|[i+\-*^/()])")
_ZERO, _I = (0, {}, {}, 1), (0, {}, {(): 1}, 1)

# The deepest nesting of parentheses in a form expression. Goldens and
# benchmark inputs reach 2; each level takes three frames of Python's
# recursion limit (1000 by default).
MAX_FORM_DEPTH = 100

# The largest |a| * |b| (term counts) of one wedge. Goldens and benchmark
# inputs reach 16, the Heisenberg form (e1+i*e2)^...^(e19+i*e20) 1024; generic
# 1-forms on dimension 30 exceed it at the fourth factor (1832 * 30), where a
# 2-CPU x86-64 host spends 0.6 s (9 s on a fifth factor, 142506 terms).
MAX_WEDGE_PAIRS = 2**14


def _products(pairs) -> dict:
    """The term map of the sum of s * (a ^ b) over (a, b, s) in pairs, zeros
    dropped, keys in the order their first products appear."""
    out: dict = {}
    for a, b, s in pairs:
        for ia, ca in a.items():
            for ib, cb in b.items():
                sign, key = merge_indices(ia, ib) if ia and ib else (1, ia or ib)
                if sign:
                    out[key] = out.get(key, 0) + sign * s * ca * cb
    return {key: c for key, c in out.items() if c}


class _FormReader:
    """Recursive descent over the tokens of one form expression. Each
    production returns (degree, re, im, den), term maps of nonzero ints over
    den with keys in the order the tree elaboration of tests/fraction_forms.py
    makes them, or None once an elaboration error is held. Syntax errors raise
    at once; the first elaboration error waits until the whole expression has
    parsed, and nothing is computed after it."""

    __slots__ = ("tokens", "pos", "dim", "depth", "error", "imaginary")

    def __init__(self, text: str, dim: int):
        end = _FORM_TEXT.match(text).end()
        if end < len(text):
            raise InputError(f"syntax error at {text[end:]!r}")
        self.tokens = [*_FORM_TOKEN.findall(text), ""]  # "" ends the expression
        self.pos, self.dim, self.depth, self.error, self.imaginary = 0, dim, 0, None, False

    def take(self) -> str:
        tok = self.tokens[self.pos]
        if not tok:
            raise InputError("unexpected end of expression")
        self.pos += 1
        return tok

    def expr(self):
        value, sign = _ZERO, -1 if self.tokens[self.pos] in ("+", "-") and self.take() == "-" else 1
        while True:
            term = self.term()
            if self.error is None:
                value = self.add(value, sign, term)
            if self.tokens[self.pos] not in ("+", "-"):
                return value
            sign = -1 if self.take() == "-" else 1

    def term(self):
        value = self.atom()
        while self.tokens[self.pos] in ("^", "*"):
            self.pos += 1
            factor = self.atom()
            if self.error is None:
                value = self.wedge(value, factor)
        return value

    def atom(self):
        tok = self.take()
        if tok == "(":
            if self.depth == MAX_FORM_DEPTH:
                raise InputError(f"expression too deep: parentheses nested more than {MAX_FORM_DEPTH} levels")
            self.depth += 1
            value = self.expr()
            if self.tokens[self.pos] != ")":
                raise InputError("missing closing parenthesis")
            self.pos, self.depth = self.pos + 1, self.depth - 1
            return value
        if tok == "i":
            self.imaginary = True
            return _I
        if tok[0] == "e":
            index = literal(tok[1:])[0]
            return None if self.error else self.generator(index)
        if not tok.isdigit():
            raise InputError(f"unexpected token {tok!r}")
        if self.tokens[self.pos] == "/":
            self.pos += 1
            den = self.take()
            if not den.isdigit():
                raise InputError(f"bad rational denominator {den!r}")
            tok = f"{tok}/{den}"
        p, q = literal(tok)
        return 0, {(): p} if p else {}, {}, q

    def generator(self, index: int):
        dim = self.dim
        if 1 <= index <= dim:
            return 1, {(index,): 1}, {}, 1
        # compact monomials like e12 = e1^e2 (only unambiguous for dim <= 9)
        digits = tuple(int(ch) for ch in str(index))
        if dim <= 9 and len(digits) >= 2 and 1 <= digits[0] and digits[-1] <= dim and all(
            a < b for a, b in zip(digits, digits[1:])
        ):
            return len(digits), {digits: 1}, {}, 1
        self.error = f"generator e{index} out of range for dimension {dim}"
        return None

    def wedge(self, value, factor):
        (degree, re, im, den), (fdeg, fre, fim, fden) = value, factor
        left, right = len(re) + len(im), len(fre) + len(fim)
        if left * right > MAX_WEDGE_PAIRS:
            too_large = f"a wedge of {left} by {right} terms exceeds {MAX_WEDGE_PAIRS} term pairs"
            self.error = f"expression too large: {too_large}"
            return None
        if im or fim:  # (a + ib) ^ (c + id) = (ac - bd) + i(ad + bc)
            re, im = _products(((re, fre, 1), (im, fim, -1))), _products(((re, fim, 1), (im, fre, 1)))
        else:
            re = _products(((re, fre, 1),))
        return degree + fdeg, re, im, den * fden

    def add(self, value, sign: int, term):
        (degree, re, im, den), (tdeg, tre, tim, tden) = value, term
        if not (re or im):
            if sign > 0:
                return term
            degree = tdeg
        elif (tre or tim) and tdeg != degree:
            self.error = f"mixed degrees in a sum: {degree} and {tdeg}"
            return None
        scale = math.lcm(den, tden)
        a, b = {(): scale // den}, {(): scale // tden}  # a sum is a wedge with scalars
        return degree, _products(((re, a, 1), (tre, b, sign))), _products(((im, a, 1), (tim, b, sign))), scale


def parse_form(text: str, dim: int):
    """The form of an expression, read in one pass; the presence of "i"
    yields a ComplexKForm."""
    reader = _FormReader(text, dim)
    value = reader.expr()
    if reader.tokens[reader.pos]:
        raise InputError(f"trailing input at {reader.tokens[reader.pos]!r}")
    if reader.error:
        raise InputError(reader.error)
    degree, re, im, den = value
    if reader.imaginary:
        return ComplexKForm(KForm._of(dim, degree, re, den), KForm._of(dim, degree, im, den))
    return KForm._of(dim, degree, re, den)


# ---------------------------------------------------------------------------
# endomorphisms and vectors
# ---------------------------------------------------------------------------

_PAIRS = re.compile(r"\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)")


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
            m = _PAIRS.fullmatch(chunk.strip())
            if not m:
                raise InputError(f"bad pair syntax {chunk!r}")
            pairs.append((literal(m.group(1))[0], literal(m.group(2))[0]))
        return Endo.from_pairs(dim, pairs)
    if text.startswith("matrix:"):
        text = text[len("matrix:") :].strip()
    if text.startswith("["):
        rows = read_json(text, "matrix")
        if len(rows) != dim or any(not isinstance(r, list) or len(r) != dim for r in rows):
            raise InputError(f"matrix must be {dim}x{dim}")
        return Endo(rows)
    raise InputError("endomorphism must be pairs:(a,b),... or matrix:[[...]]")


_VEC_TERM = re.compile(r"(?:([0-9]+(?:/[0-9]+)?)\*)?X([0-9]+)")


def parse_vector(text: str, dim: int) -> Vector:
    """Parse "X1", "X1 + 2*X3", "1/2*X3 - X4", or a JSON coordinate list."""
    text = text.strip()
    if text.startswith("["):
        coords = read_json(text, "vector")
        if len(coords) != dim:
            raise InputError(f"vector must have {dim} coordinates")
        return Vector(coords)
    body = text.replace(" ", "")
    if not body:
        raise InputError("empty vector expression")
    terms = []
    for sign, chunk in _signed_terms(body):
        m = _VEC_TERM.fullmatch(chunk)
        if not m:
            raise InputError(f"bad vector term {chunk!r}")
        p, q = literal(m.group(1)) if m.group(1) else (1, 1)
        idx = literal(m.group(2))[0]
        if not 1 <= idx <= dim:
            raise InputError(f"vector index X{idx} out of range")
        terms.append((idx - 1, sign * p, q))
    den, nums = math.lcm(*(q for *_, q in terms)), [0] * dim
    for k, p, q in terms:
        nums[k] += p * (den // q)
    return Vector._of(nums, den)


def parse_vectors(text: str, dim: int) -> list[Vector]:
    """Semicolon-separated list of vector expressions."""
    return [parse_vector(chunk, dim) for chunk in text.split(";") if chunk.strip()]
