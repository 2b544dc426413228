"""Reference elaboration of form expressions over ComplexKForm, and the
reference parse of algebra specs as per-monomial KForm sums.

Each syntax-tree node becomes a validated ComplexKForm and every product and
sum is a ComplexKForm operation, as `algdsl` elaborated expressions before it
combined term maps. Each pair term of an algebra spec becomes one validated
monomial KForm, added to the sum of the earlier ones, as `algdsl` parsed
algebras before it added up term maps. The tests compare `parse_form` and
`parse_algebra` against them, on valid input.

`serialize_algebra_json` writes any algebra in the JSON notation, the small
ones too, for the parsers' round-trip tests. `scaled` and `covector` give a
Fraction table as ints over one denominator and a 1-form's values as
Fractions, for the Fraction references. `render` and `render_vector`
write forms and vectors from their Fraction views, as `str` did before it
rendered from the stored ints.
"""

import json
import re
from fractions import Fraction

from nilgeo import linalg
from nilgeo.algdsl import MAX_WEDGE_PAIRS, Gen, Imag, Rat, Sum, Wedge, parse_form_expr
from nilgeo.errors import InputError
from nilgeo.exterior import ComplexKForm, KForm, covectors, rat


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
