"""Reference elaboration of form expressions over ComplexKForm.

Each syntax-tree node becomes a validated ComplexKForm and every product and
sum is a ComplexKForm operation, as `algdsl` elaborated expressions before it
combined term maps. The tests compare `parse_form` against it.
"""

from nilgeo.algdsl import MAX_WEDGE_PAIRS, Gen, Imag, Rat, Sum, Wedge, parse_form_expr
from nilgeo.errors import InputError
from nilgeo.exterior import ComplexKForm, KForm


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
        return ComplexKForm.from_real(KForm.scalar(dim, node.value))
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
