"""Exact verification layer for the 5-dimensional classification.

Three ingredients: polynomial identity testing for the existence of an
invariant contact form (the volume coefficient of a generic 1-form, expanded
exactly), an exact necessary-condition filter for contact Calabi-Yau
nonexistence at a fixed contact form, and a catalog runner that combines
both with constructive verification from a shipped ansatz table.

The filter is a necessary condition only: Obstructed means no invariant
structure can exist for that contact form; Inconclusive carries an exact
witness and decides nothing. Full nonexistence across all contact forms is
not claimed by this module.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import linalg
from .algdsl import parse_algebra, parse_endo, parse_form, serialize_algebra
from .cealg import LieAlgebra, basis_tuples, d_matrix
from .errors import CheckError, InputError
from .exterior import KForm, merge_indices
from .structures import check_ccy, check_contact


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

    @classmethod
    def zero(cls, nvars: int) -> MultiPoly:
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> MultiPoly:
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> MultiPoly:
        """The variable a_index, 1-based."""
        exps = tuple(int(i == index - 1) for i in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __add__(self, other: MultiPoly) -> MultiPoly:
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return MultiPoly(self.nvars, terms)

    def __sub__(self, other: MultiPoly) -> MultiPoly:
        return self + (-other)

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> MultiPoly:
        if isinstance(other, MultiPoly):
            terms: dict[tuple, Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    terms[e] = terms.get(e, Fraction(0)) + c1 * c2
            return MultiPoly(self.nvars, terms)
        c = Fraction(other)
        return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
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
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


class _SymbolicForm:
    """Exterior form whose coefficients are MultiPoly values (internal)."""

    def __init__(self, dim: int, degree: int, nvars: int, terms=None):
        self.dim = dim
        self.degree = degree
        self.nvars = nvars
        self.terms = {
            idx: p for idx, p in (terms or {}).items() if not p.is_zero
        }

    def wedge(self, other: _SymbolicForm) -> _SymbolicForm:
        terms: dict[tuple, MultiPoly] = {}
        for ia, pa in self.terms.items():
            for ib, pb in other.terms.items():
                sign, merged = merge_indices(ia, ib)
                if not sign:
                    continue
                add = pa * pb * sign
                terms[merged] = terms.get(merged, MultiPoly.zero(self.nvars)) + add
        return _SymbolicForm(self.dim, self.degree + other.degree, self.nvars, terms)

    @classmethod
    def from_kform(cls, form: KForm, nvars: int) -> _SymbolicForm:
        return cls(
            form.dim,
            form.degree,
            nvars,
            {idx: MultiPoly.constant(nvars, c) for idx, c in form.terms.items()},
        )

    def scaled(self, poly: MultiPoly) -> _SymbolicForm:
        return _SymbolicForm(
            self.dim,
            self.degree,
            self.nvars,
            {idx: p * poly for idx, p in self.terms.items()},
        )

    def coefficient(self, idx) -> MultiPoly:
        return self.terms.get(tuple(idx), MultiPoly.zero(self.nvars))


def contact_existence_polynomial(alg: LieAlgebra) -> MultiPoly:
    """Volume coefficient of alpha ^ (d alpha)^n for a generic 1-form alpha.

    alpha = sum a_i e^i with symbolic coefficients; the result is a polynomial
    in a_1..a_n that is nonzero exactly when an invariant contact form exists
    (a generic point avoids the zero set). Exact full expansion, never
    probabilistic.
    """
    dim = alg.dim
    if dim % 2 == 0:
        raise InputError("contact existence needs odd dimension")
    n = (dim - 1) // 2
    nvars = dim
    alpha = _SymbolicForm(
        dim,
        1,
        nvars,
        {(i,): MultiPoly.variable(nvars, i) for i in range(1, dim + 1)},
    )
    dalpha = _SymbolicForm(dim, 2, nvars, {})
    for i in range(1, dim + 1):
        piece = _SymbolicForm.from_kform(alg.d1[i - 1], nvars).scaled(
            MultiPoly.variable(nvars, i)
        )
        for idx, p in piece.terms.items():
            dalpha.terms[idx] = dalpha.terms.get(idx, MultiPoly.zero(nvars)) + p
        dalpha.terms = {k: v for k, v in dalpha.terms.items() if not v.is_zero}
    out = alpha
    for _ in range(n):
        out = out.wedge(dalpha)
    return out.coefficient(tuple(range(1, dim + 1)))


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


def ccy_obstruction_filter(alg: LieAlgebra, alpha: KForm) -> ObstructionVerdict:
    """Necessary-condition filter for an invariant structure at a fixed alpha.

    W is the exact space of closed 2-forms gamma with gamma ^ d(alpha) = 0.
    The real volume part of any invariant structure would lie in W with
    gamma ^ gamma ^ alpha a nonzero volume form, so if the quadratic
    q(c) = volume coefficient of gamma(c)^gamma(c)^alpha vanishes identically
    on W, no such structure exists for this alpha (Obstructed). Otherwise a
    small-height witness with q != 0 is returned (Inconclusive).
    """
    contact = check_contact(alg, alpha)  # raises NotContactError if not contact
    dim = alg.dim
    n = contact.n
    dalpha = alg.d(alpha)
    two_forms = basis_tuples(dim, 2)
    rows = [list(r) for r in d_matrix(alg, 2)]
    wedge_targets = basis_tuples(dim, 2 * 2)
    target_pos = {idx: i for i, idx in enumerate(wedge_targets)}
    wedge_rows = [[Fraction(0)] * len(two_forms) for _ in wedge_targets]
    for c, idx in enumerate(two_forms):
        prod = KForm.monomial(dim, idx).wedge(dalpha)
        for jdx, val in prod.terms.items():
            wedge_rows[target_pos[jdx]][c] = val
    basis_w = linalg.nullspace(rows + wedge_rows, len(two_forms))
    gammas = [
        KForm(dim, 2, {idx: v[i] for i, idx in enumerate(two_forms)}) for v in basis_w
    ]
    m = len(gammas)
    if m == 0:
        return ObstructionVerdict(
            obstructed=True, space_dimension=0, polynomial="0", witness=None
        )
    sym_gamma = _SymbolicForm(dim, 2, m, {})
    for i, gamma in enumerate(gammas, start=1):
        piece = _SymbolicForm.from_kform(gamma, m).scaled(MultiPoly.variable(m, i))
        for idx, p in piece.terms.items():
            sym_gamma.terms[idx] = sym_gamma.terms.get(idx, MultiPoly.zero(m)) + p
    sym_alpha = _SymbolicForm.from_kform(alpha, m)
    q = sym_gamma.wedge(sym_gamma).wedge(sym_alpha).coefficient(tuple(range(1, dim + 1)))
    if q.is_zero:
        return ObstructionVerdict(
            obstructed=True, space_dimension=m, polynomial="0", witness=None
        )
    # witness search: q has degree <= 2 in each coordinate, so it cannot vanish
    # on all of {0,1,2}^m unless identically zero
    for point in product((0, 1, 2), repeat=m):
        value = q.evaluate(point)
        if value:
            witness = KForm.zero(dim, 2)
            for coord, gamma in zip(point, gammas):
                if coord:
                    witness = witness + coord * gamma
            return ObstructionVerdict(
                obstructed=False,
                space_dimension=m,
                polynomial=str(q),
                witness=witness,
                witness_value=value,
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

    def __len__(self) -> int:
        return len(self.entries)

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
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad catalog JSON: {exc}") from exc
        try:
            entries = tuple(
                CatalogEntry(e["name"], e["spec"], e.get("notes", "")) for e in data
            )
        except (TypeError, KeyError) as exc:
            raise InputError(f"malformed catalog entry: {exc}") from exc
        for entry in entries:
            entry.algebra()  # validates Jacobi
        return cls(entries)

    def to_json(self) -> str:
        return json.dumps(
            [
                {"name": e.name, "spec": e.spec, "notes": e.notes}
                for e in self.entries
            ],
            indent=2,
        )


# Constructive data for algebras known to carry an invariant structure.
ANSATZ_TABLE = {
    "(0,0,0,0,12+34)": {
        "alpha": "2*e5",
        "J": "pairs:(1,2),(3,4)",
        "epsilon": "(e1+i*e2)^(e3+i*e4)",
    },
}


def _sample_alphas(alg: LieAlgebra, seed: int, random_samples: int) -> list[KForm]:
    """Deterministic small-height contact forms plus seeded random ones."""
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
    out = []
    for candidate in fixed + randoms:
        try:
            check_contact(alg, candidate)
        except (CheckError, InputError):
            continue
        out.append(candidate)
    return out


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
    for alpha in _sample_alphas(alg, seed, random_samples):
        verdict = ccy_obstruction_filter(alg, alpha)
        samples.append((str(alpha), verdict.to_dict()))
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
            # soundness guard: the filter must not contradict a verified structure
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
        filter_samples=tuple(samples),
        ccy_verified=ccy_verified,
        ccy_error=ccy_error,
    )


def classify_catalog(catalog: Catalog, seed: int = 0, random_samples: int = 3) -> ClassifyReport:
    """Run the full classification pipeline over a catalog; deterministic per seed."""
    reports = [classify_entry(e, seed, random_samples) for e in catalog]
    return ClassifyReport(entries=tuple(reports), seed=seed)
