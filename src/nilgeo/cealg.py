"""Chevalley-Eilenberg calculus on a finite-dimensional Lie algebra.

The algebra is described by the differential on degree-1 generators (the
structure constants in dual form); the bracket is recovered from the standard
convention d(gamma)(X, Y) = -gamma([X, Y]). Cohomology ranks (Betti numbers),
exactness tests with explicit primitives, and Lie derivatives of invariant
forms are all computed exactly.

Betti numbers of the associated compact nilmanifold are identified with the
cohomology of this complex (the Nomizu identification); the engine only ever
works at the algebra level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from . import linalg
from .errors import InputError
from .exterior import ComplexKForm, KForm, Vector, contract, merge_indices, pullback

# Largest algebra dimension betti_numbers accepts: Lambda^5 and Lambda^6 of
# dimension 11 have 462 monomials each, and the whole complex 2^11.
MAX_BETTI_DIM = 11
_ZERO = Fraction(0)


class JacobiError(InputError):
    """The proposed differential does not square to zero (Jacobi fails)."""


class LieAlgebra:
    """Lie algebra given by the images of degree-1 generators under d.

    `d1[k]` is the degree-2 form d(e^{k+1}) and `d1_terms[k]` its term map,
    which the differential reads. The derived brackets satisfy
    [X_i, X_j] = -sum_k d1[k](X_i, X_j) X_k. `brackets` is (cells, den):
    cells[i][j][k] is den times the X_{k+1} component of [X_{i+1}, X_{j+1}]
    (0-based, sparse ints); `structure_constants[i][j][k]` is that table dense,
    in Fractions. Construction verifies over those ints that d on each
    generator squares to zero unless check=False.
    """

    __slots__ = ("dim", "d1", "d1_terms", "brackets", "structure_constants")

    def __init__(self, d1, check: bool = True):
        d1 = list(d1)
        dim = len(d1)
        for k, form in enumerate(d1, start=1):
            if not isinstance(form, KForm) or form.dim != dim or form.degree != 2:
                raise InputError(f"d(e{k}) must be a degree-2 form on dimension {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "d1", tuple(d1))
        object.__setattr__(self, "d1_terms", tuple(form.terms for form in d1))
        d1_num, den = linalg.scaled_maps(self.d1_terms)
        rows: list[dict[int, dict[int, int]]] = [{} for _ in range(dim)]
        for k, terms in enumerate(d1_num):
            for (i, j), c in terms.items():
                rows[i - 1].setdefault(j - 1, {})[k] = -c
                rows[j - 1].setdefault(i - 1, {})[k] = c
        object.__setattr__(self, "brackets", (tuple(rows), den))
        # commuting pairs share one zero cell, so the table costs O(dim^2)
        # plus dim per bracketing pair
        zero = (_ZERO,) * dim
        table = [[zero] * dim for _ in range(dim)]
        for i, row in enumerate(rows):
            for j, cell in row.items():
                table[i][j] = tuple(Fraction(cell[k], den) if k in cell else _ZERO for k in range(dim))
        object.__setattr__(self, "structure_constants", tuple(map(tuple, table)))
        if check:
            for k, terms in enumerate(d1_num, start=1):
                dd = KForm(dim, 3, {idx: Fraction(c, den * den) for idx, c in d_terms(d1_num, terms).items()})
                if not dd.is_zero:
                    raise JacobiError(f"d(d(e{k})) = {dd} != 0; Jacobi identity fails")

    def __setattr__(self, *_):
        raise AttributeError("LieAlgebra is immutable")

    @classmethod
    def abelian(cls, dim: int) -> LieAlgebra:
        return cls([KForm.zero(dim, 2) for _ in range(dim)], check=False)

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[X_i, X_j] for 1-based basis indices."""
        return Vector(self.structure_constants[i - 1][j - 1])

    def bracket(self, u: Vector, v: Vector) -> Vector:
        return Vector(linalg.bilinear(self.structure_constants, u.coeffs, v.coeffs))

    def d(self, form):
        """Chevalley-Eilenberg differential, extended as a graded derivation."""
        if isinstance(form, ComplexKForm):
            return ComplexKForm(self.d(form.re), self.d(form.im))
        if form.dim != self.dim:
            raise InputError("ce differential: dimension mismatch")
        return KForm(self.dim, form.degree + 1, d_terms(self.d1_terms, form.terms))

    def is_nilpotent(self) -> bool:
        """Lower central series terminates at zero."""
        current = [Vector.basis(self.dim, i) for i in range(1, self.dim + 1)]
        for _ in range(self.dim + 1):
            nxt = []
            for i in range(1, self.dim + 1):
                for v in current:
                    w = self.bracket(Vector.basis(self.dim, i), v)
                    if not w.is_zero:
                        nxt.append(w)
            if not nxt:
                return True
            basis = linalg.rref([list(v.coeffs) for v in nxt])[0]
            current = [Vector(row) for row in basis if any(row)]
        return False

    def __eq__(self, other) -> bool:
        return isinstance(other, LieAlgebra) and self.d1 == other.d1

    __hash__ = None

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, d={[str(f) for f in self.d1]})"


def basis_tuples(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Lexicographic basis of Lambda^degree; fixed so matrices are reproducible."""
    return list(combinations(range(1, dim + 1), degree))


def _d_monomial(d1, idx: tuple[int, ...]):
    """The terms (codomain monomial, coefficient) of d(e^I), I = idx, one per
    term of each generator differential, d1[k] a term map pair -> coefficient;
    a monomial may repeat. The 2-form d(e^{I_p}) commutes past e^{I<p}, so
    term c e^ij of it adds (-1)^p c e^ij ^ e^{I - I_p}, signed by
    merge_indices.
    """
    for pos, k in enumerate(idx):
        rest = idx[:pos] + idx[pos + 1 :]
        parity = -1 if pos % 2 else 1
        for pair, c in d1[k - 1].items():
            sign, merged = merge_indices(pair, rest)
            if sign:
                yield merged, parity * sign * c


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


def d_rows(alg: LieAlgebra, degree: int) -> list[dict[int, Fraction]]:
    """Sparse rows of d: Lambda^degree -> Lambda^{degree+1}: row r maps each
    domain column to the coefficient of the r-th codomain monomial."""
    cod_pos = {idx: r for r, idx in enumerate(basis_tuples(alg.dim, degree + 1))}
    rows: list[dict[int, Fraction]] = [{} for _ in cod_pos]
    for col, idx in enumerate(basis_tuples(alg.dim, degree)):
        for merged, v in _d_monomial(alg.d1_terms, idx):
            row = rows[cod_pos[merged]]
            row[col] = row.get(col, _ZERO) + v
    return [{c: v for c, v in row.items() if v} for row in rows]


def d_matrix(alg: LieAlgebra, degree: int) -> list[list[Fraction]]:
    """Matrix of d: Lambda^degree -> Lambda^{degree+1}, the dense d_rows."""
    columns = range(comb(alg.dim, degree))
    return [[row.get(c, _ZERO) for c in columns] for row in d_rows(alg, degree)]


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
    """b_k = dim ker(d on Lambda^k) - rank(d on Lambda^{k-1}), all ranks exact.

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
    pmat = [[cols[j][i] for j in range(n)] for i in range(n)]
    pinv = linalg.inverse(pmat)
    new_d1 = []
    for k in range(n):
        old = KForm.zero(n, 2)
        for i in range(n):
            if pinv[k][i]:
                old = old + pinv[k][i] * alg.d1[i]
        new_d1.append(pullback(old, cols))
    return LieAlgebra(new_d1)
