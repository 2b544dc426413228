"""Reference classification computations over KForms and Fractions.

These are `classify` as it was computed before it moved onto int tables:
the contact polynomial expanded as a map from a-monomials to KForms, wedged
with one d(e^i) at a time; the candidate 1-forms drawn as Fraction KForms;
and the dimension-5 obstruction filter, which read d alpha off `LieAlgebra.d`
and ran its wedges from one sign table on every call, building the quadratic
form as a MultiPoly of Fractions. Last, the compact notation of an algebra
rendered from its Fraction terms, which `classify` reads as the key of its
ansatz table. The tests compare the int paths against them.
"""

import json
import random
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product

from nilgeo import linalg
from nilgeo.cealg import LieAlgebra, basis_tuples
from nilgeo.classify import MAX_CLASSIFY_DIM, MultiPoly, ObstructionVerdict, closed_two_forms
from nilgeo.errors import InputError
from nilgeo.exterior import KForm, covectors, merge_indices
from nilgeo.structures import _contact_differential, _not_contact


def contact_existence_polynomial(alg: LieAlgebra) -> MultiPoly:
    """Volume coefficient of alpha ^ (d alpha)^n, alpha = sum a_i e^i, kept
    as a map from the exponent tuple of each a-monomial to its form."""
    dim = alg.dim
    if dim > MAX_CLASSIFY_DIM:
        raise InputError(f"classify supports algebras of dimension <= {MAX_CLASSIFY_DIM}, got {dim}")
    if dim % 2 == 0:
        raise InputError("contact existence needs odd dimension")
    unit = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    expansion = {unit[i]: KForm.monomial(dim, (i + 1,)) for i in range(dim)}
    d_terms = [(i, form) for i, form in enumerate(alg.d1) if not form.is_zero]
    for _ in range((dim - 1) // 2):
        grown: dict[tuple[int, ...], KForm] = {}
        for exps, form in expansion.items():
            for i, d_ei in d_terms:
                key = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
                piece = form.wedge(d_ei)
                grown[key] = grown[key] + piece if key in grown else piece
        expansion = grown
    top = tuple(range(1, dim + 1))
    return MultiPoly(dim, {exps: form.coefficient(top) for exps, form in expansion.items()})


def sample_alphas(alg: LieAlgebra, seed: int, random_samples: int) -> list[KForm]:
    """The fixed candidate 1-forms and the seeded random ones, as Fraction KForms."""
    dim = alg.dim
    fixed = [
        KForm.monomial(dim, (dim,), 2),
        KForm.monomial(dim, (dim,), 1),
        KForm(dim, 1, {(dim,): Fraction(1), (1,): Fraction(1)}),
        KForm(dim, 1, {(dim,): Fraction(1, 2), (dim - 1,): Fraction(-1)}),
    ]
    rng = random.Random(seed)
    randoms = []
    for _ in range(random_samples):
        coeffs = {}
        for i in range(1, dim + 1):
            num = rng.randint(-3, 3)
            den = rng.randint(1, 3)
            if num:
                coeffs[(i,)] = Fraction(num, den)
        randoms.append(KForm(dim, 1, coeffs))
    return fixed + randoms


@cache
def _wedge_table() -> tuple:
    """(a, b, t, wedge_sign, top_sign) for the pairs of disjoint 2-form basis
    monomials of dimension 5, a and b their basis positions: e^a ^ e^b is
    wedge_sign e^T for the 4-form T missing the index t + 1, and
    e^a ^ e^b ^ e^(t+1) is top_sign e^12345."""
    table = []
    for (a, ia), (b, ib) in product(enumerate(basis_tuples(5, 2)), repeat=2):
        sign, merged = merge_indices(ia, ib)
        if sign:
            (t,) = set(range(5)) - {k - 1 for k in merged}
            table.append((a, b, t, sign, sign * (-1) ** (4 - t)))
    return tuple(table)


def obstruction_filter(alg: LieAlgebra, alpha: KForm, closed=None) -> ObstructionVerdict:
    """The filter with d alpha from `LieAlgebra.d`, the kernel rows and the
    bilinear form from the sign table on every call, and q as a MultiPoly."""
    dim = alg.dim
    if dim != 5:
        raise InputError(f"the obstruction filter is defined in dimension 5 only, got {dim}")
    dalpha = _contact_differential(alg, alpha)
    two_forms = basis_tuples(dim, 2)
    da = [dalpha.nums.get(idx, 0) for idx in two_forms]
    (cov,), ad = covectors([alpha])
    table = _wedge_table()
    if not sum(sign * cov[t] * da[x] * da[y] for x, y, t, _, sign in table if cov[t]):
        raise _not_contact(alpha, dalpha)
    z, zd = closed if closed is not None else closed_two_forms(alg)
    rows = [[0] * len(z) for _ in range(dim)]
    for j, v in enumerate(z):
        for x, y, t, sign, _ in table:
            if v[x] and da[y]:
                rows[t][j] += sign * v[x] * da[y]
    coords, cd = linalg.kernel(rows, len(z))
    gammas = [linalg.lincomb(z, c) for c in coords]
    m = len(gammas)
    if m == 0:
        return ObstructionVerdict(obstructed=True, space_dimension=0, polynomial="0", witness=None)
    formed = [[0] * len(two_forms) for _ in gammas]
    for x, y, t, _, sign in table:
        if cov[t]:
            for out, gamma in zip(formed, gammas):
                if gamma[y]:
                    out[x] += sign * cov[t] * gamma[y]
    den = zd * zd * cd * cd * ad
    q_num = {}
    for i, j in combinations_with_replacement(range(m), 2):
        vol = linalg.dot(gammas[i], formed[j])
        if vol:
            q_num[(i, j)] = vol if i == j else 2 * vol
    if not q_num:
        return ObstructionVerdict(obstructed=True, space_dimension=m, polynomial="0", witness=None)
    q = MultiPoly(
        m, {tuple((k == i) + (k == j) for k in range(m)): Fraction(c, den) for (i, j), c in q_num.items()}
    )
    for point in product((0, 1, 2), repeat=m):
        value = sum(c * point[i] * point[j] for (i, j), c in q_num.items())
        if value:
            witness = linalg.lincomb(gammas, point)
            return ObstructionVerdict(
                obstructed=False,
                space_dimension=m,
                polynomial=str(q),
                witness=KForm(dim, 2, {idx: Fraction(x, zd * cd) for idx, x in zip(two_forms, witness)}),
                witness_value=Fraction(value, den),
            )
    raise ArithmeticError("nonzero quadratic vanished on the full grid")


def serialize_algebra(alg: LieAlgebra) -> str:
    """The compact notation (JSON above dim 9) rendered from the Fraction terms."""
    if alg.dim > 9:
        d = {str(k): [[str(c), i, j] for (i, j), c in sorted(form.terms.items())]
             for k, form in enumerate(alg.d1, start=1) if not form.is_zero}
        return json.dumps({"dim": alg.dim, "d": d})
    entries = []
    for form in alg.d1:
        terms = sorted(form.terms.items())
        parts = [f"{'-' if c < 0 else '+'}{'' if abs(c) == 1 else f'{abs(c)}*'}{i}{j}" for (i, j), c in terms]
        entries.append("".join(parts).removeprefix("+") or "0")
    return "(" + ",".join(entries) + ")"
