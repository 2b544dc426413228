"""Exact sparse exterior algebra on an n-dimensional real vector space.

Coefficients are `fractions.Fraction` and every operation is exact. Forms are
stored sparsely as maps from strictly increasing 1-based index tuples to
nonzero coefficients. The determinant convention is used throughout (no 1/k!
factors): (e1^e2)(X, Y) = e1(X) e2(Y) - e1(Y) e2(X).

All values are immutable after construction and all operations are pure, so
instances may be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import isqrt

from . import linalg
from .errors import InputError

Scalar = Fraction
_ZERO = Fraction(0)


def rat(x) -> Fraction:
    """Coerce ints, strings like "3/5", and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"not an exact rational: {x!r}")


def merge_indices(left: tuple[int, ...], right: tuple[int, ...]):
    """Merge two strictly increasing index tuples.

    Returns (sign, merged) with the sign of the sorting permutation, or
    (0, ()) when the tuples share an index (the wedge product vanishes).
    """
    sign = 1
    merged = []
    i = j = 0
    nl = len(left)
    while i < nl and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return 0, ()
        if a < b:
            merged.append(a)
            i += 1
        else:
            if (nl - i) % 2:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


def add_terms(out: dict, c, terms: dict) -> dict:
    """out += c * terms over term maps or sparse vectors, in place; returns out."""
    for key, x in terms.items():
        out[key] = out.get(key, 0) + c * x
    return out


def wedge_terms(a: dict, b: dict) -> dict:
    """The term map of the wedge product; cancelled terms stay, as 0."""
    out: dict = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            sign, merged = merge_indices(ia, ib)
            if sign:
                out[merged] = out.get(merged, 0) + sign * ca * cb
    return out


class KForm:
    """Sparse exterior form of fixed degree with exact rational coefficients.

    `terms` maps strictly increasing index tuples (1-based, length = degree)
    to nonzero Fractions. A zero form has an empty term map; its degree is
    still tracked. Degrees above `dim` are allowed only for the zero form
    (they arise as typed zero results of pullbacks and differentials).
    """

    __slots__ = ("dim", "degree", "terms")

    def __init__(self, dim: int, degree: int, terms=None):
        if dim < 0 or degree < 0:
            raise InputError("dimension and degree must be nonnegative")
        clean: dict[tuple[int, ...], Fraction] = {}
        for idx, coeff in (terms or {}).items():
            idx = tuple(idx)
            c = rat(coeff)
            if not c:
                continue
            if len(idx) != degree:
                raise InputError(f"index tuple {idx} does not match degree {degree}")
            if any(not 1 <= k <= dim for k in idx):
                raise InputError(f"index out of range 1..{dim} in {idx}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise InputError(f"index tuple {idx} is not strictly increasing")
            clean[idx] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("KForm is immutable")

    @classmethod
    def zero(cls, dim: int, degree: int) -> KForm:
        return cls(dim, degree, {})

    @classmethod
    def monomial(cls, dim: int, indices, coeff=1) -> KForm:
        indices = tuple(indices)
        return cls(dim, len(indices), {indices: rat(coeff)})

    @classmethod
    def scalar(cls, dim: int, value) -> KForm:
        return cls(dim, 0, {(): rat(value)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices) -> Fraction:
        return self.terms.get(tuple(indices), _ZERO)

    def _require_like(self, other: KForm, op: str) -> None:
        if self.dim != other.dim:
            raise InputError(f"{op}: dimension mismatch {self.dim} != {other.dim}")
        if self.degree != other.degree and not (self.is_zero or other.is_zero):
            raise InputError(f"{op}: degree mismatch {self.degree} != {other.degree}")

    def __add__(self, other: KForm) -> KForm:
        if not isinstance(other, KForm):
            return NotImplemented
        self._require_like(other, "add")
        degree = other.degree if self.is_zero else self.degree
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            terms[idx] = terms.get(idx, Fraction(0)) + c
        return KForm(self.dim, degree, terms)

    def __sub__(self, other: KForm) -> KForm:
        return self + (-other)

    def __neg__(self) -> KForm:
        return KForm(self.dim, self.degree, {i: -c for i, c in self.terms.items()})

    def __mul__(self, scalar) -> KForm:
        c = rat(scalar)
        return KForm(self.dim, self.degree, {i: c * v for i, v in self.terms.items()})

    __rmul__ = __mul__

    def wedge(self, other: KForm) -> KForm:
        if isinstance(other, ComplexKForm):
            return ComplexKForm.from_real(self).wedge(other)
        if self.dim != other.dim:
            raise InputError(f"wedge: dimension mismatch {self.dim} != {other.dim}")
        return KForm(self.dim, self.degree + other.degree, wedge_terms(self.terms, other.terms))

    def power(self, k: int) -> KForm:
        """k-fold wedge power; power(0) is the scalar 1."""
        out = KForm.scalar(self.dim, 1)
        for _ in range(k):
            out = out.wedge(self)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, KForm)
            and self.dim == other.dim
            and self.degree == other.degree
            and self.terms == other.terms
        )

    __hash__ = None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx in sorted(self.terms):
            c = self.terms[idx]
            if idx:
                if self.dim <= 9:
                    gen = "e" + "".join(str(k) for k in idx)
                else:
                    gen = "^".join(f"e{k}" for k in idx)
                if c == 1:
                    term = gen
                elif c == -1:
                    term = f"-{gen}"
                else:
                    term = f"{c}*{gen}"
            else:
                term = str(c)
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self) -> str:
        return f"KForm({self.dim}, {self.degree}, {self})"


class ComplexKForm:
    """Complexified exterior form, stored as an exact (re, im) pair."""

    __slots__ = ("re", "im")

    def __init__(self, re: KForm, im: KForm):
        if re.dim != im.dim:
            raise InputError("re/im dimension mismatch")
        if re.degree != im.degree:
            if re.is_zero:
                re = KForm.zero(im.dim, im.degree)
            elif im.is_zero:
                im = KForm.zero(re.dim, re.degree)
            else:
                raise InputError("re/im degree mismatch")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, *_):
        raise AttributeError("ComplexKForm is immutable")

    @classmethod
    def from_real(cls, form: KForm) -> ComplexKForm:
        return cls(form, KForm.zero(form.dim, form.degree))

    @property
    def dim(self) -> int:
        return self.re.dim

    @property
    def degree(self) -> int:
        return self.re.degree

    @property
    def is_zero(self) -> bool:
        return self.re.is_zero and self.im.is_zero

    def conjugate(self) -> ComplexKForm:
        return ComplexKForm(self.re, -self.im)

    def scale(self, re_c, im_c=0) -> ComplexKForm:
        """Multiply by the exact complex scalar re_c + i*im_c."""
        a, b = rat(re_c), rat(im_c)
        return ComplexKForm(a * self.re - b * self.im, b * self.re + a * self.im)

    def __add__(self, other) -> ComplexKForm:
        other = other if isinstance(other, ComplexKForm) else ComplexKForm.from_real(other)
        return ComplexKForm(self.re + other.re, self.im + other.im)

    def __sub__(self, other) -> ComplexKForm:
        other = other if isinstance(other, ComplexKForm) else ComplexKForm.from_real(other)
        return ComplexKForm(self.re - other.re, self.im - other.im)

    def __neg__(self) -> ComplexKForm:
        return ComplexKForm(-self.re, -self.im)

    def wedge(self, other) -> ComplexKForm:
        other = other if isinstance(other, ComplexKForm) else ComplexKForm.from_real(other)
        re = self.re.wedge(other.re) - self.im.wedge(other.im)
        im = self.re.wedge(other.im) + self.im.wedge(other.re)
        return ComplexKForm(re, im)

    def __eq__(self, other) -> bool:
        return isinstance(other, ComplexKForm) and self.re == other.re and self.im == other.im

    __hash__ = None

    def __str__(self) -> str:
        return f"({self.re}) + i*({self.im})"

    def __repr__(self) -> str:
        return f"ComplexKForm({self})"


class Vector:
    """Element of the underlying vector space, coordinates in the basis X_1..X_n."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(rat(c) for c in coeffs))

    def __setattr__(self, *_):
        raise AttributeError("Vector is immutable")

    @classmethod
    def basis(cls, dim: int, index: int) -> Vector:
        """The basis vector X_index (1-based)."""
        if not 1 <= index <= dim:
            raise InputError(f"basis index {index} out of range 1..{dim}")
        return cls([Fraction(int(i == index - 1)) for i in range(dim)])

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i]

    def __add__(self, other: Vector) -> Vector:
        return Vector([a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)])

    def __sub__(self, other: Vector) -> Vector:
        return Vector([a - b for a, b in zip(self.coeffs, other.coeffs, strict=True)])

    def __neg__(self) -> Vector:
        return Vector([-a for a in self.coeffs])

    def __mul__(self, scalar) -> Vector:
        c = rat(scalar)
        return Vector([c * a for a in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.coeffs == other.coeffs

    __hash__ = None

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs, start=1):
            if not c:
                continue
            if c == 1:
                parts.append(f"X{i}")
            elif c == -1:
                parts.append(f"-X{i}")
            else:
                parts.append(f"{c}*X{i}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"Vector({self})"


class Endo:
    """Endomorphism of the vector space; column j is the image of X_j."""

    __slots__ = ("matrix", "_columns")

    def __init__(self, matrix):
        rows = tuple(tuple(rat(x) for x in row) for row in matrix)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise InputError("endomorphism matrix must be square")
        object.__setattr__(self, "matrix", rows)

    def __setattr__(self, *_):
        raise AttributeError("Endo is immutable")

    @classmethod
    def identity(cls, dim: int) -> Endo:
        return cls([[int(i == j) for j in range(dim)] for i in range(dim)])

    @classmethod
    def from_pairs(cls, dim: int, pairs) -> Endo:
        """Build J from index pairs: (a, b) means J X_a = X_b, J X_b = -X_a; J = 0 elsewhere."""
        m = [[Fraction(0)] * dim for _ in range(dim)]
        seen: set[int] = set()
        for a, b in pairs:
            if not (1 <= a <= dim and 1 <= b <= dim) or a == b:
                raise InputError(f"invalid pair ({a},{b}) for dimension {dim}")
            if a in seen or b in seen:
                raise InputError(f"index reused in pairs near ({a},{b})")
            seen.update((a, b))
            m[b - 1][a - 1] = Fraction(1)
            m[a - 1][b - 1] = Fraction(-1)
        return cls(m)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def columns(self) -> tuple[list[dict[int, int]], int]:
        """(cols, den): cols[j][i] = den * J[i][j] for the nonzero entries, kept."""
        if getattr(self, "_columns", None) is None:
            nums, den = linalg.scaled([list(col) for col in zip(*self.matrix)])
            object.__setattr__(self, "_columns", ([{i: x for i, x in enumerate(c) if x} for c in nums], den))
        return self._columns

    def apply(self, v: Vector) -> Vector:
        if v.dim != self.dim:
            raise InputError("endomorphism/vector dimension mismatch")
        return Vector(
            [sum((row[j] * v[j] for j in range(self.dim)), Fraction(0)) for row in self.matrix]
        )

    def compose(self, other: Endo) -> Endo:
        n = self.dim
        return Endo(
            [
                [
                    sum((self.matrix[i][k] * other.matrix[k][j] for k in range(n)), Fraction(0))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    def __neg__(self) -> Endo:
        return Endo([[-a for a in row] for row in self.matrix])

    def __eq__(self, other) -> bool:
        return isinstance(other, Endo) and self.matrix == other.matrix

    __hash__ = None

    def __repr__(self) -> str:
        return f"Endo({[[str(x) for x in row] for row in self.matrix]})"


class Metric:
    """Symmetric bilinear form given by an exact matrix.

    Symmetry is enforced at construction; positive definiteness is checked on
    demand via leading principal minors, so degenerate forms (like g_J on the
    full algebra) are representable. The minors and the inverse come from one
    fraction-free elimination (`linalg.sylvester`), run on first use and kept.
    """

    __slots__ = ("matrix", "_elimination")

    def __init__(self, matrix):
        rows = tuple(tuple(rat(x) for x in row) for row in matrix)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise InputError("metric matrix must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise InputError(f"metric not symmetric at ({i + 1},{j + 1})")
        object.__setattr__(self, "matrix", rows)

    def __setattr__(self, *_):
        raise AttributeError("Metric is immutable")

    @classmethod
    def identity(cls, dim: int) -> Metric:
        return cls([[int(i == j) for j in range(dim)] for i in range(dim)])

    @classmethod
    def diagonal(cls, entries) -> Metric:
        entries = [rat(e) for e in entries]
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def bilinear(self, u: Vector, v: Vector) -> Fraction:
        total = Fraction(0)
        for i in range(self.dim):
            if not u[i]:
                continue
            row = self.matrix[i]
            for j in range(self.dim):
                if v[j]:
                    total += row[j] * u[i] * v[j]
        return total

    def det(self) -> Fraction:
        return linalg.det(self.matrix)

    def _sylvester(self) -> tuple:
        """(leading minors up to the first one <= 0, inverse or None), computed once."""
        if getattr(self, "_elimination", None) is None:
            object.__setattr__(self, "_elimination", linalg.sylvester(self.matrix))
        return self._elimination

    def inverse_matrix(self) -> list[list[Fraction]]:
        """The inverse of a positive definite metric; raises ValueError otherwise."""
        inverse = self._sylvester()[1]
        if inverse is None:
            raise ValueError("metric is not positive definite")
        return [list(row) for row in inverse]

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion with exact leading principal minors."""
        return self._sylvester()[1] is not None

    def restrict(self, vectors) -> list[list[Fraction]]:
        """Gram matrix of the given vectors."""
        return [[self.bilinear(u, v) for v in vectors] for u in vectors]

    def __eq__(self, other) -> bool:
        return isinstance(other, Metric) and self.matrix == other.matrix

    __hash__ = None

    def __repr__(self) -> str:
        return f"Metric({[[str(x) for x in row] for row in self.matrix]})"


def wedge(a, b):
    """Exterior product; accepts real and complexified forms."""
    if isinstance(a, ComplexKForm) or isinstance(b, ComplexKForm):
        ca = a if isinstance(a, ComplexKForm) else ComplexKForm.from_real(a)
        return ca.wedge(b)
    return a.wedge(b)


def covector(a: KForm) -> list[Fraction]:
    """The values a(X_1), ..., a(X_n) of a real 1-form."""
    if not isinstance(a, KForm) or a.degree != 1:
        raise InputError(f"expected a real 1-form, got {a}")
    return [a.coefficient((j,)) for j in range(1, a.dim + 1)]


def two_form_matrix(a: KForm) -> list[list[Fraction]]:
    """The antisymmetric matrix M[i][j] = a(X_{i+1}, X_{j+1}) of a 2-form."""
    m = [[Fraction(0)] * a.dim for _ in range(a.dim)]
    for (p, q), c in a.terms.items():
        m[p - 1][q - 1], m[q - 1][p - 1] = c, -c
    return m


def contract(v: Vector, a):
    """Interior product iota_v a; an antiderivation of degree -1."""
    if isinstance(a, ComplexKForm):
        return ComplexKForm(contract(v, a.re), contract(v, a.im))
    if v.dim != a.dim:
        raise InputError("contract: dimension mismatch")
    if a.degree == 0:
        raise InputError("contract: cannot contract a degree-0 form")
    terms: dict[tuple[int, ...], Fraction] = {}
    for idx, c in a.terms.items():
        for pos, k in enumerate(idx):
            comp = v[k - 1]
            if not comp:
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            sign = -1 if pos % 2 else 1
            terms[rest] = terms.get(rest, Fraction(0)) + sign * comp * c
    return KForm(a.dim, a.degree - 1, terms)


def evaluate(a: KForm, vectors) -> Fraction:
    """Multilinear alternating evaluation a(v_1, ..., v_k), determinant convention."""
    vs = list(vectors)
    if len(vs) != a.degree:
        raise InputError(f"evaluate: expected {a.degree} vectors, got {len(vs)}")
    if any(v.dim != a.dim for v in vs):
        raise InputError("evaluate: vector dimension mismatch")
    total = Fraction(0)
    for idx, c in a.terms.items():
        rows = [[v[k - 1] for v in vs] for k in idx]
        total += c * linalg.det(rows)
    return total


def _inner_product(a: KForm, b: KForm, ginv) -> Fraction:
    """<a, b>_g on k-forms: Gram determinants of the inverse-metric pairing."""
    total = Fraction(0)
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            minor = [[ginv[p - 1][q - 1] for q in ib] for p in ia]
            total += ca * cb * (linalg.det(minor) if ia else Fraction(1))
    return total


def _exact_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    pn, pd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def hodge_star(a: KForm, g: Metric, orientation: int = 1):
    """Hodge star: zeta ^ *a = <zeta, a>_g vol for every zeta of the same degree.

    vol is the g-unit volume form, positively oriented with respect to
    e^1 ^ ... ^ e^n (flip with orientation=-1). To stay exact, the operation
    is only offered when det(g) is a perfect square of a rational.
    """
    if orientation not in (1, -1):
        raise InputError("orientation must be +1 or -1")
    if a.dim != g.dim:
        raise InputError("hodge_star: dimension mismatch")
    if not g.is_positive_definite():
        raise InputError("hodge_star: metric is not positive definite")
    s = _exact_sqrt(g.det())
    if s is None:
        raise InputError(
            "hodge_star: det(g) is not a perfect rational square; "
            "exact Hodge star unsupported for this metric"
        )
    ginv = g.inverse_matrix()
    n, k = a.dim, a.degree
    terms: dict[tuple[int, ...], Fraction] = {}
    full = tuple(range(1, n + 1))
    for idx in combinations(full, k):
        pairing = _inner_product(KForm.monomial(n, idx), a, ginv)
        if not pairing:
            continue
        comp = tuple(i for i in full if i not in idx)
        sign, merged = merge_indices(idx, comp)
        assert merged == full
        terms[comp] = sign * orientation * s * pairing
    return KForm(n, n - k, terms)


def pullback(a, spanning_vectors):
    """Restriction of a form to the subspace spanned by the given vectors.

    The result is expressed in the dual basis of the spanning vectors, which
    must be linearly independent.
    """
    if isinstance(a, ComplexKForm):
        return ComplexKForm(pullback(a.re, spanning_vectors), pullback(a.im, spanning_vectors))
    vs = list(spanning_vectors)
    if not vs:
        raise InputError("pullback: empty spanning set")
    if any(v.dim != a.dim for v in vs):
        raise InputError("pullback: vector dimension mismatch")
    m = len(vs)
    if linalg.rank([list(v.coeffs) for v in vs]) != m:
        raise InputError("pullback: spanning vectors are linearly dependent")
    k = a.degree
    terms: dict[tuple[int, ...], Fraction] = {}
    if k <= m:
        for idx in combinations(range(1, m + 1), k):
            val = evaluate(a, [vs[i - 1] for i in idx])
            if val:
                terms[idx] = val
    return KForm(m, k, terms)
