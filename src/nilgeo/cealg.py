"""Chevalley-Eilenberg calculus on a finite-dimensional Lie algebra.

The algebra is described by the differential on degree-1 generators (the
structure constants in dual form); the bracket is recovered from the standard
convention d(gamma)(X, Y) = -gamma([X, Y]). Cohomology ranks (Betti numbers)
and exactness tests with explicit primitives are computed exactly.

A monomial e^I is an int mask, bit i - 1 for e^i. One rule builds d of a
monomial (`_d_monomial`): term c e^ab of d(e^i), i in I, adds (-1)^(p + pa +
pb) c e^{I - i + ab}, p, pa, pb the bits of I below i and of I - i below a
and b, unless a or b is in I - i. `d_terms` reads it for term maps, and
`_image_rows` for den d(e^I) as int rows over the generators' denominator,
on which the Betti ranks are taken (`d_rows` is their transpose).

Betti numbers of the associated compact nilmanifold are identified with the
cohomology of this complex (the Nomizu identification); the engine only ever
works at the algebra level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from . import linalg
from .errors import InputError
from .exterior import ComplexKForm, KForm, Vector, add_terms, common_den

# Largest algebra dimension betti_numbers accepts: Lambda^5 and Lambda^6 of
# dimension 11 have 462 monomials each, and the whole complex 2^11.
MAX_BETTI_DIM = 11


class JacobiError(InputError):
    """The proposed differential does not square to zero (Jacobi fails)."""


class LieAlgebra:
    """Lie algebra given by the images of degree-1 generators under d.

    d1[k] is d(e^{k+1}): a degree-2 KForm or, with den (the parsers' path),
    an int term map {(i, j): c} over den, its pairs checked. The kernels read
    two int tables over one den, in lowest terms: `d1_ints` is (terms, den),
    the term maps as `_mask_terms`, and `brackets` is (cells, den), where
    cells[i][j] maps k to den times the X_{k+1} component of [X_{i+1},
    X_{j+1}] (0-based), by [X_i, X_j] = -sum_k d1[k](X_i, X_j) X_k, for the
    nonzero brackets and components only. Construction verifies on the masks
    that d on each generator squares to zero. No Fraction table is stored:
    `d1` and `structure_constants` are views, built on first read.
    """

    __slots__ = ("dim", "d1_ints", "brackets", "_d1", "_table")

    def __init__(self, d1, den: int = 0):
        d1 = list(d1)
        dim = len(d1)
        if not den:
            for k, form in enumerate(d1, start=1):
                if not isinstance(form, KForm) or form.dim != dim or form.degree != 2:
                    raise InputError(f"d(e{k}) must be a degree-2 form on dimension {dim}")
            d1, den = common_den(d1)
        d1 = [{ij: c for ij, c in terms.items() if c} for terms in d1]
        if (g := gcd(den, *(c for terms in d1 for c in terms.values()))) != 1:
            d1, den = [{ij: c // g for ij, c in terms.items()} for terms in d1], den // g
        object.__setattr__(self, "dim", dim)
        masks = _mask_terms(d1)
        object.__setattr__(self, "d1_ints", (tuple(masks), den))
        rows: list[dict[int, dict[int, int]]] = [{} for _ in range(dim)]
        for k, terms in enumerate(d1):
            for (i, j), c in terms.items():
                rows[i - 1].setdefault(j - 1, {})[k] = -c
                rows[j - 1].setdefault(i - 1, {})[k] = c
        object.__setattr__(self, "brackets", (tuple(rows), den))
        for k, terms in enumerate(masks):  # d(d e^k) = sum of c d(e^ab) over the terms c e^ab of d e^k
            square: dict = {}
            for ab, _, c in terms:
                add_terms(square, c, _d_monomial(masks, ab))
            if any(square.values()):
                dd = KForm._of(dim, 3, d_terms(masks, d1[k]), den * den)
                raise JacobiError(f"d(d(e{k + 1})) = {dd} != 0; Jacobi identity fails")

    def __setattr__(self, *_):
        raise AttributeError("LieAlgebra is immutable")

    @classmethod
    def abelian(cls, dim: int) -> LieAlgebra:
        return cls([KForm.zero(dim, 2)] * dim)

    @property
    def d1(self) -> tuple:
        """d(e^1), ..., d(e^dim) as KForms, read off `d1_ints`: bits a - 1 and b - 1 of ab are e^ab."""
        if getattr(self, "_d1", None) is None:
            masks, den = self.d1_ints
            forms = ({((ab & -ab).bit_length(), ab.bit_length()): c for ab, _, c in t} for t in masks)
            object.__setattr__(self, "_d1", tuple(KForm._of(self.dim, 2, terms, den) for terms in forms))
        return self._d1

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
        out = bracket_terms(cells, dict(enumerate(u.nums)), dict(enumerate(v.nums)))
        return Vector._of([out.get(k, 0) for k in range(self.dim)], den * u.den * v.den)

    def d(self, form):
        """Chevalley-Eilenberg differential, extended as a graded derivation."""
        if isinstance(form, ComplexKForm):
            return ComplexKForm(self.d(form.re), self.d(form.im))
        if form.dim != self.dim:
            raise InputError("ce differential: dimension mismatch")
        masks, den = self.d1_ints
        return KForm._of(self.dim, form.degree + 1, d_terms(masks, form.nums), den * form.den)

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
        return self is other or isinstance(other, LieAlgebra) and self.d1 == other.d1

    __hash__ = None

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, d={[str(f) for f in self.d1]})"


def bracket_terms(cells, u: dict, v: dict) -> dict:
    """[u, v] of sparse vectors (index -> coefficient, 0-based) over the
    bracket cells, as a sparse vector over their denominator; zeros may stay."""
    out: dict = {}
    for p, x in u.items():
        row = cells[p]
        if not (x and row):
            continue
        for q, y in v.items():
            if y and q in row:
                c = x * y
                for k, z in row[q].items():  # add_terms, inlined: this is the curvature kernels' inner loop
                    out[k] = out.get(k, 0) + c * z
    return out


def basis_tuples(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Lexicographic basis of Lambda^degree; fixed so matrices are reproducible."""
    return list(combinations(range(1, dim + 1), degree))


def _basis_masks(dim: int, degrees):
    """The monomials of each of the degrees as masks, by degree, in the order
    of basis_tuples, and every mask's position within its degree."""
    masks = {k: list(map(sum, combinations([1 << i for i in range(dim)], k))) for k in degrees}
    return masks, {mask: r for degree in masks.values() for r, mask in enumerate(degree)}


def _mask_terms(d1) -> list:
    """Each generator differential (a term map pair -> coefficient) as terms
    (mask of ab, mask of the generators strictly between a and b, coefficient)."""
    return [[(1 << a - 1 | 1 << b - 1, (1 << b - 1) - (1 << a), c) for (a, b), c in terms.items()] for terms in d1]


def _d_monomial(d1, mask: int) -> dict:
    """d(e^I), I = mask, as a map codomain mask -> coefficient (0 where terms
    cancel), d1 as `_mask_terms`. pa + pb of the sign (-1)^(p + pa + pb) has
    the parity of the bits of rest = I - i strictly between a and b."""
    out, todo = {}, mask
    while todo:
        low = todo & -todo
        todo ^= low
        rest, below = mask ^ low, mask & low - 1
        for ab, between, c in d1[low.bit_length() - 1]:
            if not rest & ab:
                merged, v = rest | ab, -c if (below ^ rest & between).bit_count() & 1 else c
                out[merged] = out[merged] + v if merged in out else v
    return out


def d_terms(d1, terms) -> dict:
    """d of the form with the given terms (index tuple -> coefficient), for
    generator differentials d1 as `_mask_terms`; the coefficients may be
    Fractions or the ints of a scaled table. Terms that cancel stay, as 0."""
    out: dict[int, object] = {}
    for idx, c in terms.items():
        for merged, v in _d_monomial(d1, sum(1 << i - 1 for i in idx)).items():
            out[merged] = out[merged] + c * v if merged in out else c * v
    named = {}
    for mask, v in out.items():  # back to index tuples, one set bit at a time
        idx, todo = [], mask
        while todo:
            idx.append((todo & -todo).bit_length())
            todo &= todo - 1
        named[tuple(idx)] = v
    return named


def _image_rows(d1, domain, pos) -> list[dict[int, int]]:
    """d(e^I) for each mask I of the domain, d1 as `_mask_terms`, as a sparse
    row keyed by the position of each codomain monomial."""
    return [{pos[merged]: v for merged, v in _d_monomial(d1, mask).items() if v} for mask in domain]


def d_rows(alg: LieAlgebra, degree: int) -> list[dict[int, int]]:
    """Sparse rows of d: Lambda^degree -> Lambda^{degree+1} as ints over
    alg.d1_ints[1], the transpose of the image rows: row r maps each domain
    column to den times the coefficient of the r-th codomain monomial."""
    masks, pos = _basis_masks(alg.dim, (degree, degree + 1))
    rows: list[dict[int, int]] = [{} for _ in masks[degree + 1]]
    for col, image in enumerate(_image_rows(alg.d1_ints[0], masks[degree], pos)):
        for r, v in image.items():
            rows[r][col] = v
    return rows


def d_matrix(alg: LieAlgebra, degree: int) -> list[list[Fraction]]:
    """Matrix of d: Lambda^degree -> Lambda^{degree+1}, the dense d_rows over their denominator."""
    den = alg.d1_ints[1]
    columns = range(comb(alg.dim, degree))
    return [[Fraction(row.get(c, 0), den) for c in columns] for row in d_rows(alg, degree)]


@dataclass(frozen=True)
class BettiTable:
    """Cohomology ranks b_0..b_n of the Chevalley-Eilenberg complex."""

    numbers: tuple[int, ...]

    def __getitem__(self, k: int) -> int:
        return self.numbers[k]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.numbers))

    def is_poincare_dual(self) -> bool:
        return self.numbers == tuple(reversed(self.numbers))


def betti_numbers(alg: LieAlgebra) -> BettiTable:
    """b_k = dim ker(d on Lambda^k) - rank(d on Lambda^{k-1}), all ranks exact,
    each on the int image rows of d (den times d_rows transposed: same ranks).

    Algebras above MAX_BETTI_DIM are an input error, raised before any basis
    of the exterior algebra is built.
    """
    n = alg.dim
    if n > MAX_BETTI_DIM:
        raise InputError(f"betti supports algebras of dimension <= {MAX_BETTI_DIM}, got {n}")
    (masks, pos), d1 = _basis_masks(n, range(n + 1)), alg.d1_ints[0]
    numbers = []
    rank_prev = 0
    for k in range(n + 1):
        rank_k = linalg.rank_sparse(_image_rows(d1, masks[k], pos)) if k < n else 0
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


def span_algebra(alg: LieAlgebra, vectors) -> LieAlgebra | None:
    """The bracket of alg on the span of independent vectors v_1..v_m, as the
    algebra in their frame, or None when some [v_i, v_j] leaves the span.

    One sparse elimination of the matrix whose columns are the v_i, with
    every bracket [v_i, v_j], i < j, read off the cells, appended as a
    right-hand side; pivots past column m are brackets outside the span.
    Raises ValueError when the vectors are dependent. Over ints: v_i = w_i / vd
    and the cells over den, so [v_i, v_j] = sum_p x_p v_p / (den vd) for W x =
    den [w_i, w_j], read off the fraction-free reduced rows over xd.
    """
    (cells, den), m = alg.brackets, len(vectors)
    nums, vd = common_den(vectors)
    sparse = [{r: x for r, x in enumerate(v) if x} for v in nums]
    pairs = list(combinations(range(1, m + 1), 2))
    rows: list[dict] = [{} for _ in range(alg.dim)]
    for col, v in enumerate(sparse + [bracket_terms(cells, sparse[i - 1], sparse[j - 1]) for i, j in pairs]):
        for r, x in v.items():
            rows[r][col] = x
    reduced, pivots, xd = linalg.rref_ints(rows)
    if pivots[:m] != list(range(m)):
        raise ValueError("matrix is singular")
    if len(pivots) > m:
        return None
    # [f_i, f_j] = sum_p c^p_ij f_p, so d f^p = -sum_{i<j} c^p_ij f^ij
    d1 = [{ij: -c for col, ij in enumerate(pairs, m) if (c := row.get(col))} for row in reduced]
    return LieAlgebra(d1, den * vd * xd)


def change_of_basis(alg: LieAlgebra, p_columns) -> LieAlgebra:
    """Rewrite the algebra in the frame whose vectors are the columns of P:
    the algebra on their span, which is all of it. Raises ValueError when P
    is singular."""
    cols = [Vector(col) for col in p_columns]
    if len(cols) != alg.dim or any(v.dim != alg.dim for v in cols):
        raise InputError("change_of_basis: need a full frame")
    return span_algebra(alg, cols)
