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

Everything runs over Python ints. The contact polynomial is expanded over
the int monomial masks of `cealg`. The candidate contact forms are drawn as
int covectors, and the filter reads each off tables built once per catalog
entry (`_FilterTables`). Only the top coefficients of the polynomial and
the filter's witness values become Fractions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product
from math import lcm
from operator import mul

from . import linalg
from .algdsl import parse_algebra, parse_endo, parse_form, serialize_algebra
from .cealg import LieAlgebra, _basis_masks, basis_tuples, d_rows
from .errors import CheckError, InputError
from .exterior import KForm, _signed_sum, merge_indices, ratio, read_json
from .structures import NotContactError, _check_alpha, _not_contact, check_ccy, check_contact


# Largest algebra dimension contact_existence_polynomial expands. The expansion
# grows about 8x per two dimensions: on the filiform algebra d e^k = e^1 ^ e^(k-1)
# it takes 0.026 s at dimension 11 and 0.22 s at 13, and where every d(e^i) is
# dense (H_11 in a dense rational frame) 25 s at dimension 11 (2-CPU x86-64
# host, scaled to one on which perfbench/hostspeed.py's reference takes 1 ms).
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

    @classmethod
    def _of(cls, nvars: int, nums: dict, den: int) -> MultiPoly:
        """The polynomial of int coefficients over den > 0, zeros dropped; the
        exponent tuples are not checked again."""
        poly = cls.__new__(cls)
        poly.nvars, poly.terms = nvars, {exps: Fraction(c, den) for exps, c in nums.items() if c}
        return poly

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
        return _render({exps: str(c) for exps, c in self.terms.items()})


def _render(coeffs: dict) -> str:
    """A polynomial from its exponent tuples and the strs of their nonzero
    coefficients, by total degree then lexicographically, for stable output."""
    parts = []
    for exps in sorted(coeffs, key=lambda e: (sum(e), e)):
        c = coeffs[exps]
        body = "*".join(f"a{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e)
        if not body:
            parts.append(c)
        elif c == "1":
            parts.append(body)
        elif c == "-1":
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
    tuple of each a-monomial to its form, an int map from monomial masks to
    coefficients over den^k, and d alpha = sum a_i d(e^i) multiplies in one
    nonzero d(e^i) at a time, over the mask terms of `LieAlgebra.d1_ints`
    (den): e^I ^ e^ab is (-1)^p e^(I + ab), p the number of indices of I
    strictly between a and b, or 0 when I meets ab. Only the
    top coefficients become Fractions. Algebras above MAX_CLASSIFY_DIM are an
    input error, raised before the expansion.
    """
    dim = alg.dim
    if dim > MAX_CLASSIFY_DIM:
        raise InputError(f"classify supports algebras of dimension <= {MAX_CLASSIFY_DIM}, got {dim}")
    if dim % 2 == 0:
        raise InputError("contact existence needs odd dimension")
    masks, den = alg.d1_ints
    d_terms = [(i, terms) for i, terms in enumerate(masks) if terms]
    steps = (dim - 1) // 2
    expansion = {tuple(int(i == j) for j in range(dim)): {1 << i: 1} for i in range(dim)}
    for _ in range(steps):
        grown: dict[tuple[int, ...], dict[int, int]] = {}
        for exps, form in expansion.items():
            for i, terms in d_terms:
                out = grown.setdefault(exps[:i] + (exps[i] + 1,) + exps[i + 1 :], {})
                for mask, c in form.items():
                    for ab, between, x in terms:
                        if not mask & ab:
                            merged, v = mask | ab, -c * x if (mask & between).bit_count() & 1 else c * x
                            out[merged] = out[merged] + v if merged in out else v
        expansion = grown
    top = (1 << dim) - 1
    return MultiPoly._of(dim, {exps: form.get(top, 0) for exps, form in expansion.items()}, den**steps)


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


class _FilterTables:
    """The int tables of the dimension-5 filter that depend on the algebra
    alone, built once per algebra. With z_j / zd the closed 2-forms
    (`closed_two_forms`) and D_i = d(e^(i+1)) over dd (`d1_ints`), alpha =
    cov / ad has d alpha = sum_i cov_i D_i over dd ad, so each quantity the
    filter needs of alpha is a form in cov with coefficients read off the
    sign table (`_wedge_table`) once:

    - `contact`: (t, i, j, c) for the cubic vol(alpha ^ d alpha ^ d alpha) =
      sum c cov_t cov_i cov_j, over dd^2 ad^3;
    - `wedges`: (t, j, w), w[i] the e^T coefficient of z_j ^ D_i, T the
      4-form missing the index t + 1, so the entry (t, j) of the matrix of
      gamma -> gamma ^ d alpha on the closed 2-forms is cov . w, over zd dd ad;
    - `volumes`: (j, k, v), j <= k, v[t] the e^12345 coefficient of z_j ^
      z_k ^ e^(t+1), so vol(z_j ^ z_k ^ alpha) = cov . v, over zd^2 ad.

    Each lists its nonzero entries alone: d(e^i) vanishes on most generators
    of a nilpotent algebra, and z_j ^ D_i on most pairs.
    """

    __slots__ = ("closed", "contact", "wedges", "volumes")

    def __init__(self, alg: LieAlgebra, closed: tuple[list[list[int]], int] | None = None):
        z, _ = self.closed = closed if closed is not None else closed_two_forms(alg)
        masks, position = _basis_masks(5, (2,))
        ds: list[list] = [[] for _ in masks[2]]  # ds[x]: (i, c) for the nonzero e^x coefficients c of D_i
        for i, terms in enumerate(alg.d1_ints[0]):
            for ab, _, c in terms:
                ds[position[ab]].append((i, c))
        zs = [[(j, v[x]) for j, v in enumerate(z) if v[x]] for x in range(len(ds))]
        contact: dict[tuple[int, int, int], int] = {}
        wedges: dict[tuple[int, int], list[int]] = {}
        volumes: dict[tuple[int, int], list[int]] = {}
        for x, y, t, wedge_sign, top_sign in _wedge_table():
            for i, a in ds[x]:
                for k, b in ds[y]:
                    contact[(t, i, k)] = contact.get((t, i, k), 0) + top_sign * a * b
            for j, u in zs[x]:
                for i, b in ds[y]:
                    wedges.setdefault((t, j), [0] * 5)[i] += wedge_sign * u * b
                for k, v in zs[y]:
                    if j <= k:
                        volumes.setdefault((j, k), [0] * 5)[t] += top_sign * u * v
        self.contact = [(t, i, j, c) for (t, i, j), c in contact.items() if c]
        self.wedges = [(t, j, w) for (t, j), w in wedges.items() if any(w)]
        self.volumes = [(j, k, v) for (j, k), v in volumes.items() if any(v)]

    def verdict(self, cov: list[int], ad: int) -> ObstructionVerdict | None:
        """The filter at alpha = cov / ad, or None when alpha is not contact."""
        if not sum(c * cov[t] * cov[i] * cov[j] for t, i, j, c in self.contact):
            return None
        z, zd = self.closed
        rows = [[0] * len(z) for _ in range(5)]
        for t, j, w in self.wedges:
            rows[t][j] = sum(map(mul, cov, w))
        coords, cd = linalg.kernel(rows, len(z))  # W in the coordinates of the closed 2-forms, over cd
        m = len(coords)
        if m == 0:
            return ObstructionVerdict(obstructed=True, space_dimension=0, polynomial="0", witness=None)
        form = [[0] * len(z) for _ in z]  # vol(z_j ^ z_k ^ alpha), over zd^2 ad
        for j, k, v in self.volumes:
            form[j][k] = form[k][j] = sum(map(mul, cov, v))
        applied = [[sum(map(mul, row, c)) for row in form] for c in coords]
        # 2-forms commute: q(c) = sum_{i<=j} (2 - delta_ij) c_i c_j vol(gamma_i ^ gamma_j ^ alpha)
        q_num = {}
        for i, j in combinations_with_replacement(range(m), 2):
            if vol := sum(map(mul, coords[i], applied[j])):
                q_num[(i, j)] = vol if i == j else 2 * vol
        if not q_num:
            return ObstructionVerdict(obstructed=True, space_dimension=m, polynomial="0", witness=None)
        den = zd * zd * cd * cd * ad
        # witness search: q has degree <= 2 in each coordinate, so it cannot vanish
        # on all of {0,1,2}^m unless identically zero
        for point in product((0, 1, 2), repeat=m):
            value = sum(c * point[i] * point[j] for (i, j), c in q_num.items())
            if value:
                witness = linalg.lincomb(z, linalg.lincomb(coords, point))
                return ObstructionVerdict(
                    obstructed=False,
                    space_dimension=m,
                    polynomial=_render({tuple((k == i) + (k == j) for k in range(m)): ratio(c, den)
                                        for (i, j), c in q_num.items()}),
                    witness=KForm._of(5, 2, dict(zip(basis_tuples(5, 2), witness)), zd * cd),
                    witness_value=Fraction(value, den),
                )
        raise ArithmeticError("nonzero quadratic vanished on the full grid")


def ccy_obstruction_filter(
    alg: LieAlgebra, alpha: KForm, closed: tuple[list[list[int]], int] | _FilterTables | None = None
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

    Over ints, on the tables of `_FilterTables` (`closed`: those, or the
    closed 2-forms to build them from, computed when not given): alpha is
    contact iff the volume coefficient of alpha ^ d alpha ^ d alpha is
    nonzero (otherwise the NotContactError of check_contact). The closed
    2-forms Z have the identity on their free coordinates, so the kernel of
    gamma -> gamma ^ d alpha on Z, in that form, is the reduced nullspace
    basis of W. q is the integer bilinear form vol(gamma_i ^ gamma_j ^
    alpha); the witness value alone becomes a Fraction.
    """
    dim = alg.dim
    if dim != 5:
        raise InputError(f"the obstruction filter is defined in dimension 5 only, got {dim}")
    _check_alpha(alg, alpha)
    tables = closed if isinstance(closed, _FilterTables) else _FilterTables(alg, closed)
    verdict = tables.verdict([alpha.nums.get((k,), 0) for k in range(1, 6)], alpha.den)
    if verdict is None:
        raise _not_contact(alpha, alg.d(alpha))
    return verdict


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    spec: str
    notes: str = ""
    parsed: LieAlgebra | None = field(default=None, compare=False, repr=False)

    def algebra(self) -> LieAlgebra:
        """The algebra `Catalog.from_json` parsed when it validated the entry,
        else the spec parsed now."""
        return parse_algebra(self.spec) if self.parsed is None else self.parsed


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
        if not entries:
            raise InputError("the catalog has no entries")
        parsed = []
        for entry in entries:
            for name in ("name", "spec", "notes"):
                if not isinstance(value := getattr(entry, name), str):
                    raise InputError(f"malformed catalog entry: {name} must be a string, got {json.dumps(value)}")
            parsed.append(replace(entry, parsed=entry.algebra()))  # validates Jacobi
        return cls(tuple(parsed))


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
    the filter rejects the ones that are not contact. Each random coefficient
    is drawn as num / den, num in -3..3 and den in 1..3, and the covector is
    kept as ints over the lcm of the dens of its nonzero coefficients."""
    dim = alg.dim
    fixed = [
        KForm._of(dim, 1, {(dim,): 2}),
        KForm._of(dim, 1, {(dim,): 1}),
        KForm._of(dim, 1, {(dim,): 1, (1,): 1}),
        KForm._of(dim, 1, {(dim,): 1, (dim - 1,): -2}, 2),
    ]
    rng = random.Random(seed)
    randoms = []
    for _ in range(random_samples):
        drawn = [(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
        den = lcm(*(q for p, q in drawn if p))
        randoms.append(KForm._of(dim, 1, {(i,): p * (den // q) for i, (p, q) in enumerate(drawn, 1) if p}, den))
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
        tables = _FilterTables(alg)
        for alpha in _sample_alphas(alg, seed, random_samples):
            try:
                samples.append((alpha, ccy_obstruction_filter(alg, alpha, tables)))
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
