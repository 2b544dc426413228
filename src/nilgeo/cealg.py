"""Chevalley-Eilenberg calculus on a finite-dimensional Lie algebra.

The algebra is described by the differential on degree-1 generators (the
structure constants in dual form); the bracket is recovered from the standard
convention d(gamma)(X, Y) = -gamma([X, Y]). Cohomology ranks (Betti numbers),
exactness tests with explicit primitives, and Lie derivatives of invariant
forms are all computed exactly.

One monomial rule builds d: term c e^ab of d(e^{i_p}) is inserted into
e^{I - i_p} at the bisection points of a and b, signed by their positions
(`_d_monomial`). It is read by `d_terms` (d of a term map, over Fractions or
ints) and by `d_rows`, the sparse matrix of d on Lambda^k as ints over the
denominator of the generator differentials; the Betti ranks are taken on
those ints, and `d_matrix` is their dense Fraction view.

Betti numbers of the associated compact nilmanifold are identified with the
cohomology of this complex (the Nomizu identification); the engine only ever
works at the algebra level.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from . import linalg
from .errors import InputError
from .exterior import ComplexKForm, KForm, Vector, add_terms, contract, pullback

# Largest algebra dimension betti_numbers accepts: Lambda^5 and Lambda^6 of
# dimension 11 have 462 monomials each, and the whole complex 2^11.
MAX_BETTI_DIM = 11
_ZERO = Fraction(0)


class JacobiError(InputError):
    """The proposed differential does not square to zero (Jacobi fails)."""


class LieAlgebra:
    """Lie algebra given by the images of degree-1 generators under d.

    `d1[k]` is the degree-2 form d(e^{k+1}) and `d1_terms[k]` its term map.
    The kernels read two int tables over one denominator den: `d1_ints` is
    (maps, den), the term maps scaled, and `brackets` is (cells, den), where
    cells[i][j] maps k to den times the X_{k+1} component of
    [X_{i+1}, X_{j+1}] (0-based), by [X_i, X_j] = -sum_k d1[k](X_i, X_j) X_k,
    for the nonzero brackets and components only. Construction verifies over
    those ints that d on each generator squares to zero. No dense table is
    stored: `structure_constants` is a Fraction view of the cells, built on
    first read.
    """

    __slots__ = ("dim", "d1", "d1_terms", "d1_ints", "brackets", "_table")

    def __init__(self, d1):
        d1 = list(d1)
        dim = len(d1)
        for k, form in enumerate(d1, start=1):
            if not isinstance(form, KForm) or form.dim != dim or form.degree != 2:
                raise InputError(f"d(e{k}) must be a degree-2 form on dimension {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "d1", tuple(d1))
        object.__setattr__(self, "d1_terms", tuple(form.terms for form in d1))
        d1_num, den = linalg.scaled_maps(self.d1_terms)
        object.__setattr__(self, "d1_ints", (tuple(d1_num), den))
        rows: list[dict[int, dict[int, int]]] = [{} for _ in range(dim)]
        for k, terms in enumerate(d1_num):
            for (i, j), c in terms.items():
                rows[i - 1].setdefault(j - 1, {})[k] = -c
                rows[j - 1].setdefault(i - 1, {})[k] = c
        object.__setattr__(self, "brackets", (tuple(rows), den))
        for k, terms in enumerate(d1_num, start=1):
            dd = KForm(dim, 3, {idx: Fraction(c, den * den) for idx, c in d_terms(d1_num, terms).items()})
            if not dd.is_zero:
                raise JacobiError(f"d(d(e{k})) = {dd} != 0; Jacobi identity fails")

    def __setattr__(self, *_):
        raise AttributeError("LieAlgebra is immutable")

    @classmethod
    def abelian(cls, dim: int) -> LieAlgebra:
        return cls([KForm.zero(dim, 2)] * dim)

    @property
    def structure_constants(self) -> tuple:
        """The dense table c[i][j][k], the X_{k+1} component of [X_{i+1}, X_{j+1}], in Fractions."""
        if getattr(self, "_table", None) is None:
            basis = range(1, self.dim + 1)
            table = tuple(tuple(self.bracket_basis(i, j).coeffs for j in basis) for i in basis)
            object.__setattr__(self, "_table", table)
        return self._table

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[X_i, X_j] for 1-based basis indices."""
        return self.bracket(Vector.basis(self.dim, i), Vector.basis(self.dim, j))

    def bracket(self, u: Vector, v: Vector) -> Vector:
        cells, den = self.brackets
        out = bracket_terms(cells, dict(enumerate(u.coeffs)), dict(enumerate(v.coeffs)))
        return Vector([out.get(k, _ZERO) / den for k in range(self.dim)])

    def d(self, form):
        """Chevalley-Eilenberg differential, extended as a graded derivation."""
        if isinstance(form, ComplexKForm):
            return ComplexKForm(self.d(form.re), self.d(form.im))
        if form.dim != self.dim:
            raise InputError("ce differential: dimension mismatch")
        return KForm(self.dim, form.degree + 1, d_terms(self.d1_terms, form.terms))

    def is_nilpotent(self) -> bool:
        """Lower central series terminates at zero: g^(k+1) is spanned by the
        brackets [v, X_j] of a basis v of g^k, read off the cells and reduced
        to echelon rows."""
        cells, current = self.brackets[0], [{i: 1} for i in range(self.dim)]
        for _ in range(self.dim + 1):
            spans = [bracket_terms(cells, v, {j: 1}) for v in current for j in range(self.dim)]
            current = [row for _, _, row in linalg._eliminate(spans)]
            if not current:
                return True
        return False

    def __eq__(self, other) -> bool:
        return isinstance(other, LieAlgebra) and self.d1 == other.d1

    __hash__ = None

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, d={[str(f) for f in self.d1]})"


def bracket_terms(cells, u: dict, v: dict) -> dict:
    """[u, v] of sparse vectors (index -> coefficient, 0-based) over the
    bracket cells, as a sparse vector over their denominator; zeros may stay."""
    out: dict = {}
    for p, x in u.items():
        row = cells[p]
        for q, y in v.items():
            if x and y and q in row:
                add_terms(out, x * y, row[q])
    return out


def basis_tuples(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Lexicographic basis of Lambda^degree; fixed so matrices are reproducible."""
    return list(combinations(range(1, dim + 1), degree))


def _d_monomial(d1, idx: tuple[int, ...]):
    """The terms (codomain monomial, coefficient) of d(e^I), I = idx, one per
    term of each generator differential, d1[k] a term map pair -> coefficient;
    a monomial may repeat. The 2-form d(e^{I_p}) commutes past e^{I<p}, so
    term c e^ab of it adds (-1)^p c e^ab ^ e^{I - I_p}: a and b are inserted
    into rest = I - I_p at their bisection points pa <= pb, with sign
    (-1)^(p + pa + pb), and the term vanishes when a or b is in rest.
    """
    for p, k in enumerate(idx):
        rest = idx[:p] + idx[p + 1 :]
        m = len(rest)
        for (a, b), c in d1[k - 1].items():
            pa = bisect_left(rest, a)
            if pa < m and rest[pa] == a:
                continue
            pb = bisect_left(rest, b, pa)
            if pb < m and rest[pb] == b:
                continue
            yield rest[:pa] + (a,) + rest[pa:pb] + (b,) + rest[pb:], -c if (p + pa + pb) % 2 else c


def d_terms(d1, terms) -> dict:
    """d of the form with the given terms (index tuple -> coefficient), for
    generator differentials d1 given as term maps; the coefficients may be
    Fractions or the ints of a scaled table. Terms that cancel stay, as 0."""
    out: dict[tuple[int, ...], object] = {}
    for idx, c in terms.items():
        for merged, v in _d_monomial(d1, idx):
            prev = out.get(merged)
            out[merged] = c * v if prev is None else prev + c * v
    return out


def d_rows(alg: LieAlgebra, degree: int) -> list[dict[int, int]]:
    """Sparse rows of d: Lambda^degree -> Lambda^{degree+1} as ints over
    alg.d1_ints[1]: row r maps each domain column to den times the
    coefficient of the r-th codomain monomial."""
    d1 = alg.d1_ints[0]
    cod_pos = {idx: r for r, idx in enumerate(basis_tuples(alg.dim, degree + 1))}
    rows: list[dict[int, int]] = [{} for _ in cod_pos]
    for col, idx in enumerate(basis_tuples(alg.dim, degree)):
        for merged, v in _d_monomial(d1, idx):
            row = rows[cod_pos[merged]]
            row[col] = row.get(col, 0) + v
    return [{c: v for c, v in row.items() if v} for row in rows]


def d_matrix(alg: LieAlgebra, degree: int) -> list[list[Fraction]]:
    """Matrix of d: Lambda^degree -> Lambda^{degree+1}, the dense d_rows over their denominator."""
    den = alg.d1_ints[1]
    columns = range(comb(alg.dim, degree))
    return [[Fraction(row.get(c, 0), den) for c in columns] for row in d_rows(alg, degree)]


@dataclass(frozen=True)
class BettiTable:
    """Cohomology ranks b_0..b_n of the Chevalley-Eilenberg complex."""

    numbers: tuple[int, ...]

    def __iter__(self):
        return iter(self.numbers)

    def __getitem__(self, k: int) -> int:
        return self.numbers[k]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.numbers))

    def is_poincare_dual(self) -> bool:
        return self.numbers == tuple(reversed(self.numbers))

    def __str__(self) -> str:
        return "(" + ", ".join(str(b) for b in self.numbers) + ")"


def betti_numbers(alg: LieAlgebra) -> BettiTable:
    """b_k = dim ker(d on Lambda^k) - rank(d on Lambda^{k-1}), all ranks exact,
    read off the int `d_rows` (den times d, so the ranks are the same).

    Algebras above MAX_BETTI_DIM are an input error, raised before any basis
    of the exterior algebra is built.
    """
    n = alg.dim
    if n > MAX_BETTI_DIM:
        raise InputError(f"betti supports algebras of dimension <= {MAX_BETTI_DIM}, got {n}")
    numbers = []
    rank_prev = 0
    for k in range(n + 1):
        rank_k = linalg.rank_sparse(d_rows(alg, k)) if k < n else 0
        numbers.append(comb(n, k) - rank_k - rank_prev)
        rank_prev = rank_k
    return BettiTable(tuple(numbers))


def is_exact(form: KForm, alg: LieAlgebra) -> KForm | None:
    """If form = d(b) is solvable, return one primitive b; otherwise None.

    The input must be closed.
    """
    if not alg.d(form).is_zero:
        raise InputError("is_exact: input form is not closed")
    k = form.degree
    if form.is_zero:
        return KForm.zero(alg.dim, max(k - 1, 0))
    if k == 0:
        return None
    dom = basis_tuples(alg.dim, k - 1)
    cod = basis_tuples(alg.dim, k)
    matrix = d_matrix(alg, k - 1)
    rhs = [form.coefficient(idx) for idx in cod]
    sol = linalg.solve(matrix, rhs)
    if sol is None:
        return None
    return KForm(alg.dim, k - 1, {idx: c for idx, c in zip(dom, sol)})


def lie_derivative(v: Vector, form, alg: LieAlgebra):
    """Cartan formula L_v = d iota_v + iota_v d for invariant forms, constant v."""
    if isinstance(form, ComplexKForm):
        return ComplexKForm(lie_derivative(v, form.re, alg), lie_derivative(v, form.im, alg))
    if form.degree == 0:
        return KForm.zero(alg.dim, 0)
    return alg.d(contract(v, form)) + contract(v, alg.d(form))


def change_of_basis(alg: LieAlgebra, p_columns) -> LieAlgebra:
    """Rewrite the algebra in the frame whose vectors are the columns of P.

    The new coframe element f^k is the old form sum_i (P^{-1})_{k i} e^i; its
    differential is computed in the old coordinates and pulled back along the
    new frame.
    """
    cols = [Vector(col) for col in p_columns]
    n = alg.dim
    if len(cols) != n:
        raise InputError("change_of_basis: need a full frame")
    new_d1 = []
    for row in linalg.inverse([[cols[j][i] for j in range(n)] for i in range(n)]):
        old: dict = {}  # d f^k in the old coordinates, added up in one term map
        for c, terms in zip(row, alg.d1_terms):
            add_terms(old, c, terms)
        new_d1.append(pullback(KForm(n, 2, old), cols))
    return LieAlgebra(new_d1)
