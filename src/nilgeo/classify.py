"""Exact verification layer for the 5-dimensional classification.

Three ingredients: polynomial identity testing for the existence of an
invariant contact form (the volume coefficient of a generic 1-form, expanded
exactly), an exact necessary-condition filter for contact Calabi-Yau
nonexistence at a fixed contact form, and a catalog runner that combines
both with constructive verification from a shipped ansatz table.

The filter is a necessary condition only: Obstructed means no invariant
structure can exist for that contact form; Inconclusive carries an exact
witness and decides nothing. Full nonexistence across all contact forms is
not claimed by this module. The filter is defined in dimension 5 only;
catalog entries of other dimensions get no filter samples.

The filter runs over Python ints: the closed 2-forms are computed once per
catalog entry, the contact test, the wedges with d alpha and the quadratic
form come from one sign table, and only the reported polynomial and witness
become Fractions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product

from . import linalg
from .algdsl import parse_algebra, parse_endo, parse_form, serialize_algebra
from .cealg import LieAlgebra, basis_tuples, d_rows
from .errors import CheckError, InputError
from .exterior import KForm, _signed_sum, covectors, merge_indices, read_json
from .structures import NotContactError, _contact_differential, _not_contact, check_ccy, check_contact


# Largest algebra dimension contact_existence_polynomial expands. The expansion
# grows about 7x per two dimensions: on the filiform algebra d e^k = e^1 ^ e^(k-1)
# it takes 0.12 s at dimension 11 and 0.84 s at 13 (2-CPU x86-64 host).
MAX_CLASSIFY_DIM = 11


class MultiPoly:
    """Multivariate polynomial over the rationals with a canonical term order.

    Terms map exponent tuples (one slot per variable) to nonzero coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            c = Fraction(coeff)
            if not c:
                continue
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise InputError(f"bad exponent tuple {exps}")
            clean[exps] = c
        self.nvars = nvars
        self.terms = clean

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, point) -> Fraction:
        point = [Fraction(x) for x in point]
        if len(point) != self.nvars:
            raise InputError("evaluation point has wrong arity")
        total = Fraction(0)
        for exps, c in self.terms.items():
            val = c
            for x, e in zip(point, exps):
                val *= x**e
            total += val
        return total

    def __str__(self) -> str:
        # sort by total degree then lexicographically, for stable output
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[exps]
            monos = [
                f"a{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            ]
            body = "*".join(monos)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return _signed_sum(parts)


def contact_existence_polynomial(alg: LieAlgebra) -> MultiPoly:
    """Volume coefficient of alpha ^ (d alpha)^n for a generic 1-form alpha.

    alpha = sum a_i e^i with symbolic coefficients; the result is a polynomial
    in a_1..a_n that is nonzero exactly when an invariant contact form exists
    (a generic point avoids the zero set). Exact full expansion, never
    probabilistic: alpha ^ (d alpha)^k is kept as a map from the exponent
    tuple of each a-monomial to its form coefficient, and d alpha = sum a_i
    d(e^i) multiplies in one nonzero d(e^i) at a time. Algebras above
    MAX_CLASSIFY_DIM are an input error, raised before the expansion.
    """
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


@dataclass(frozen=True)
class ObstructionVerdict:
    """Outcome of the necessary-condition filter at a fixed contact form."""

    obstructed: bool
    space_dimension: int
    polynomial: str
    witness: KForm | None = None
    witness_value: Fraction | None = None

    def to_dict(self) -> dict:
        return {
            "verdict": "Obstructed" if self.obstructed else "Inconclusive",
            "space_dimension": self.space_dimension,
            "polynomial": self.polynomial,
            "witness": str(self.witness) if self.witness is not None else None,
            "witness_value": str(self.witness_value)
            if self.witness_value is not None
            else None,
        }


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


def closed_two_forms(alg: LieAlgebra) -> tuple[list[list[int]], int]:
    """(basis, den): the `nullspace` basis of d on 2-forms, as ints over den.
    It depends only on the algebra; `ccy_obstruction_filter` cuts W out of it."""
    ncols = len(basis_tuples(alg.dim, 2))
    dense = [[row.get(c, 0) for c in range(ncols)] for row in d_rows(alg, 2)]
    rows, _ = linalg.lowest(dense, alg.d1_ints[1])
    return linalg.kernel(rows, ncols)


def ccy_obstruction_filter(
    alg: LieAlgebra, alpha: KForm, closed: tuple[list[list[int]], int] | None = None
) -> ObstructionVerdict:
    """Necessary-condition filter for an invariant structure at a fixed alpha.

    W is the exact space of closed 2-forms gamma with gamma ^ d(alpha) = 0.
    The real volume part of any invariant structure would lie in W with
    gamma ^ gamma ^ alpha a nonzero volume form, so if the quadratic
    q(c) = volume coefficient of gamma(c)^gamma(c)^alpha vanishes identically
    on W, no such structure exists for this alpha (Obstructed). Otherwise a
    small-height witness with q != 0 is returned (Inconclusive).

    Only dimension 5 is accepted: gamma ^ gamma ^ alpha is a 5-form, so in
    any other dimension q is identically zero and Obstructed would be wrong.

    Over ints, from one sign table: alpha is contact iff the volume
    coefficient of alpha ^ d alpha ^ d alpha is nonzero (otherwise the
    NotContactError of check_contact). The closed 2-forms Z (`closed`,
    computed when not given) have the identity on their free coordinates, so
    the kernel of gamma -> gamma ^ d alpha on Z, in that form, is the reduced
    nullspace basis of W. q is the integer bilinear form
    vol(gamma_i ^ gamma_j ^ alpha); its coefficients and the witness become
    Fractions once.
    """
    dim = alg.dim
    if dim != 5:
        raise InputError(f"the obstruction filter is defined in dimension 5 only, got {dim}")
    dalpha = _contact_differential(alg, alpha)
    two_forms = basis_tuples(dim, 2)
    da = [dalpha.nums.get(idx, 0) for idx in two_forms]
    (cov,), ad = covectors([alpha])
    table = _wedge_table()
    # alpha ^ d alpha ^ d alpha, in units of a positive multiple of e^12345
    if not sum(sign * cov[t] * da[x] * da[y] for x, y, t, _, sign in table if cov[t]):
        raise _not_contact(alpha, dalpha)
    z, zd = closed if closed is not None else closed_two_forms(alg)
    rows = [[0] * len(z) for _ in range(dim)]  # rows[t][j]: the e^T coefficient of z_j ^ d alpha
    for j, v in enumerate(z):
        for x, y, t, sign, _ in table:
            if v[x] and da[y]:
                rows[t][j] += sign * v[x] * da[y]
    coords, cd = linalg.kernel(rows, len(z))
    gammas = [linalg.lincomb(z, c) for c in coords]  # over zd cd
    m = len(gammas)
    if m == 0:
        return ObstructionVerdict(obstructed=True, space_dimension=0, polynomial="0", witness=None)
    # 2-forms commute: q(c) = sum_{i<=j} (2 - delta_ij) c_i c_j vol(gamma_i ^ gamma_j ^ alpha)
    formed = [[0] * len(two_forms) for _ in gammas]  # the bilinear form applied to each gamma
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
    # witness search: q has degree <= 2 in each coordinate, so it cannot vanish
    # on all of {0,1,2}^m unless identically zero
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


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    spec: str
    notes: str = ""

    def algebra(self) -> LieAlgebra:
        return parse_algebra(self.spec)


@dataclass(frozen=True)
class Catalog:
    entries: tuple

    def __iter__(self):
        return iter(self.entries)

    @classmethod
    def default(cls) -> Catalog:
        """Shipped catalog: the three contact-admitting 5-dimensional nilpotent
        algebras plus two non-contact controls."""
        return cls(
            (
                CatalogEntry("n5_step4", "(0,0,12,13,14+23)", "contact, filiform type"),
                CatalogEntry("n5_step3", "(0,0,0,12,13+24)", "contact"),
                CatalogEntry("n5_heis", "(0,0,0,0,12+34)", "contact; carries the product structure"),
                CatalogEntry("n5_h3xR2", "(0,0,0,0,12)", "no invariant contact form"),
                CatalogEntry("abelian5", "(0,0,0,0,0)", "no invariant contact form"),
            )
        )

    @classmethod
    def from_json(cls, text: str) -> Catalog:
        data = read_json(text, "catalog")
        try:
            entries = tuple(
                CatalogEntry(e["name"], e["spec"], e.get("notes", "")) for e in data
            )
        except (TypeError, KeyError) as exc:
            raise InputError(f"malformed catalog entry: {exc}") from exc
        for entry in entries:
            if not isinstance(entry.spec, str):
                raise InputError(f"malformed catalog entry: spec must be a string, got {json.dumps(entry.spec)}")
            entry.algebra()  # validates Jacobi
        return cls(entries)


# Constructive data for algebras known to carry an invariant structure.
ANSATZ_TABLE = {
    "(0,0,0,0,12+34)": {
        "alpha": "2*e5",
        "J": "pairs:(1,2),(3,4)",
        "epsilon": "(e1+i*e2)^(e3+i*e4)",
    },
}


# Largest classify --samples (random contact forms per algebra): 10^3 take about
# 1 s on the default catalog (2-CPU x86-64 host); goldens and benchmarks use 3.
MAX_CLASSIFY_SAMPLES = 10**3


def _sample_alphas(alg: LieAlgebra, seed: int, random_samples: int) -> list[KForm]:
    """Deterministic small-height candidate 1-forms plus seeded random ones;
    the filter rejects the ones that are not contact."""
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


@dataclass(frozen=True)
class EntryReport:
    name: str
    spec: str
    contact_polynomial: str
    admits_contact: bool
    summary: str
    filter_samples: tuple = ()
    ccy_verified: bool = False
    ccy_error: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "spec": self.spec,
            "contact_polynomial": self.contact_polynomial,
            "admits_contact": self.admits_contact,
            "summary": self.summary,
            "ccy_verified": self.ccy_verified,
            "ccy_error": self.ccy_error,
            "filter_samples": [
                {"alpha": alpha, **verdict} for alpha, verdict in self.filter_samples
            ],
        }


@dataclass(frozen=True)
class ClassifyReport:
    entries: tuple
    seed: int

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "entries": [e.to_dict() for e in self.entries],
        }


def classify_entry(entry: CatalogEntry, seed: int = 0, random_samples: int = 3) -> EntryReport:
    alg = entry.algebra()
    poly = contact_existence_polynomial(alg)
    admits = not poly.is_zero
    if not admits:
        return EntryReport(
            name=entry.name,
            spec=entry.spec,
            contact_polynomial=str(poly),
            admits_contact=False,
            summary="no invariant contact form",
        )
    samples = []
    if alg.dim == 5:  # the filter is defined in dimension 5 only
        closed = closed_two_forms(alg)
        for alpha in _sample_alphas(alg, seed, random_samples):
            try:
                samples.append((alpha, ccy_obstruction_filter(alg, alpha, closed)))
            except NotContactError:
                continue
    ccy_verified = False
    ccy_error: str | None = None
    key = serialize_algebra(alg)
    ansatz = ANSATZ_TABLE.get(key) or ANSATZ_TABLE.get(entry.spec.replace(" ", ""))
    if ansatz:
        try:
            alpha = parse_form(ansatz["alpha"], alg.dim)
            J = parse_endo(ansatz["J"], alg.dim)
            epsilon = parse_form(ansatz["epsilon"], alg.dim)
            structure = check_ccy(check_contact(alg, alpha), J, epsilon)
            ccy_verified = structure is not None
            # soundness guard: the filter must not contradict a verified
            # structure; a sample at the same alpha already holds its verdict
            guard = next((v for a, v in samples if a == alpha), None)
            if guard is None:
                guard = ccy_obstruction_filter(alg, alpha)
            if guard.obstructed:
                raise ArithmeticError(
                    f"filter returned Obstructed on {entry.name} where a structure verifies"
                )
        except CheckError as exc:
            ccy_error = str(exc)
    summary = "CCY verified" if ccy_verified else "contact, no CCY found"
    return EntryReport(
        name=entry.name,
        spec=entry.spec,
        contact_polynomial=str(poly),
        admits_contact=True,
        summary=summary,
        filter_samples=tuple((str(a), verdict.to_dict()) for a, verdict in samples),
        ccy_verified=ccy_verified,
        ccy_error=ccy_error,
    )


def classify_catalog(catalog: Catalog, seed: int = 0, random_samples: int = 3) -> ClassifyReport:
    """Run the full classification pipeline over a catalog; deterministic per seed."""
    reports = [classify_entry(e, seed, random_samples) for e in catalog]
    return ClassifyReport(entries=tuple(reports), seed=seed)
