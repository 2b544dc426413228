"""Exact sparse exterior algebra on an n-dimensional real vector space.

Every value is stored as ints over one denominator in lowest terms: a form
as a map from strictly increasing 1-based index tuples to nonzero ints
(`nums`), a vector as its int coordinates, an endomorphism or a metric as an
int matrix, each with its `den`. The Fraction views (`terms`, `coeffs`,
`matrix`) are built on first read, and `str` renders from the ints (`ratio`).
Every operation is exact. The determinant convention is used throughout (no
1/k! factors): (e1^e2)(X, Y) = e1(X) e2(Y) - e1(Y) e2(X).

All values are immutable after construction and all operations are pure, so
instances may be shared freely between threads.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

from . import linalg
from .errors import InputError

# The most digits of p and of q in one input literal p/q, checked before they
# are converted.
MAX_LITERAL_DIGITS = 100
# The most digits of the common denominator of a metric's entries, checked
# before any elimination: without it a 9 x 9 metric of distinct 100-digit
# denominators took 16 s and printed 1.5 MB of Ricci tensor (2-CPU x86-64).
# The benchmark's seeded metrics need at most 1 digit.
MAX_METRIC_DEN_DIGITS = 1000
_METRIC_DEN_BOUND = 10**MAX_METRIC_DEN_DIGITS  # computed once, not per metric
_LITERAL = re.compile(rf"(-?[0-9]{{1,{MAX_LITERAL_DIGITS}}})(?:/([0-9]{{1,{MAX_LITERAL_DIGITS}}}))?")  # ASCII, not \d


def literal(x) -> tuple[int, int]:
    """(p, q), q > 0, in lowest terms, of a Fraction, an int (not a bool) or a
    string "[-]p[/q]" of ASCII digits, q != 0, p and q of at most
    MAX_LITERAL_DIGITS digits; "1e5", "0.5", "+1", " 1", a float: InputError."""
    if type(x) is str:
        if m := _LITERAL.fullmatch(x):
            p, q = int(m[1]), int(m[2] or 1)
            if q:
                g = gcd(p, q)
                return p // g, q // g
    elif type(x) is int or isinstance(x, Fraction):
        return x.as_integer_ratio()
    raise InputError(f"not an exact rational of at most {MAX_LITERAL_DIGITS} digits: {x!r:.60}")


def read_json(text: str, what: str):
    """The JSON value of an input text, its integers read by `literal`; a
    malformed or too deeply nested text is an InputError naming what it
    should have been."""
    try:
        return json.loads(text, parse_int=lambda digits: literal(digits)[0])
    except (ValueError, RecursionError) as exc:
        raise InputError(f"bad {what} JSON: {exc}") from exc


def rat(x) -> Fraction:
    """Coerce Fractions, ints and input literals (`literal`) to an exact rational."""
    return x if isinstance(x, Fraction) else Fraction(*literal(x))


def ratio(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, without building the Fraction."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def _make(cls, **values):
    """An instance of an immutable value class with the given slots set."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


def common_den(values) -> tuple[list, int]:
    """(nums, den): the int numerators of KForms (term maps) or Vectors
    (tuples) over one denominator, the lcm of theirs."""
    den = lcm(*(x.den for x in values))
    return [x.nums if x.den == den else {k: c * (den // x.den) for k, c in x.nums.items()} if type(x.nums) is dict
            else tuple(c * (den // x.den) for c in x.nums) for x in values], den


def _int_matrix(matrix, what: str) -> tuple[list[list[int]], int]:
    """(rows, den): a square matrix of literals as int rows over the lcm of
    their denominators, in lowest terms, as each literal is."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InputError(f"{what} matrix must be square")
    flat, den = linalg.over_lcm([literal(x) for row in matrix for x in row])
    return [flat[k : k + n] for k in range(0, n * n, n)], den


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


def _signed_sum(parts) -> str:
    """Terms joined as "a + b - c"; "0" when there are none."""
    rest = "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:])
    return parts[0] + rest if parts else "0"


class KForm:
    """Sparse exterior form of fixed degree with exact rational coefficients.

    `nums` maps strictly increasing index tuples (1-based, length = degree)
    to nonzero ints over `den`, in lowest terms; `terms` is the Fraction view.
    A zero form has an empty term map (and den 1); its degree is still
    tracked. Degrees above `dim` are allowed only for the zero form (they
    arise as typed zero results of pullbacks and differentials).
    """

    __slots__ = ("dim", "degree", "nums", "den", "_terms")

    def __init__(self, dim: int, degree: int, terms=None):
        if dim < 0 or degree < 0:
            raise InputError("dimension and degree must be nonnegative")
        ratios: dict[tuple[int, ...], tuple[int, int]] = {}
        for idx, coeff in (terms or {}).items():
            idx = tuple(idx)
            p, q = literal(coeff)
            if not p:
                continue
            if len(idx) != degree:
                raise InputError(f"index tuple {idx} does not match degree {degree}")
            if any(not 1 <= k <= dim for k in idx):
                raise InputError(f"index out of range 1..{dim} in {idx}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise InputError(f"index tuple {idx} is not strictly increasing")
            ratios[idx] = p, q
        nums, den = linalg.over_lcm(list(ratios.values()))  # in lowest terms, as each p/q is
        for name, value in (("dim", dim), ("degree", degree), ("nums", dict(zip(ratios, nums))), ("den", den)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, dim: int, degree: int, nums: dict, den: int = 1) -> KForm:
        """The form of an int term map over den != 0, zeros dropped, in lowest
        terms; the indices are not checked again."""
        nums = {idx: c for idx, c in nums.items() if c}
        if (g := gcd(den, *nums.values()) if den > 0 else -gcd(den, *nums.values())) != 1:
            nums, den = {idx: c // g for idx, c in nums.items()}, den // g
        return _make(cls, dim=dim, degree=degree, nums=nums, den=den)

    def __setattr__(self, *_):
        raise AttributeError("KForm is immutable")

    @classmethod
    def zero(cls, dim: int, degree: int) -> KForm:
        return cls(dim, degree, {})

    @classmethod
    def monomial(cls, dim: int, indices, coeff=1) -> KForm:
        indices = tuple(indices)
        return cls(dim, len(indices), {indices: coeff})

    @classmethod
    def scalar(cls, dim: int, value) -> KForm:
        return cls(dim, 0, {(): value})

    @property
    def terms(self) -> dict:
        """The Fraction view {index tuple: coefficient}, built on first read."""
        if getattr(self, "_terms", None) is None:
            object.__setattr__(self, "_terms", {idx: Fraction(c, self.den) for idx, c in self.nums.items()})
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, indices) -> Fraction:
        return Fraction(self.nums.get(tuple(indices), 0), self.den)

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
        (a, b), den = common_den((self, other))
        return KForm._of(self.dim, degree, add_terms(dict(a), 1, b), den)

    def __sub__(self, other: KForm) -> KForm:
        return self + (-other)

    def __neg__(self) -> KForm:
        return KForm._of(self.dim, self.degree, {i: -c for i, c in self.nums.items()}, self.den)

    def __mul__(self, scalar) -> KForm:
        p, q = literal(scalar)
        return KForm._of(self.dim, self.degree, {i: p * c for i, c in self.nums.items()}, q * self.den)

    __rmul__ = __mul__

    def wedge(self, other: KForm) -> KForm:
        if isinstance(other, ComplexKForm):
            return ComplexKForm.from_real(self).wedge(other)
        if self.dim != other.dim:
            raise InputError(f"wedge: dimension mismatch {self.dim} != {other.dim}")
        terms = wedge_terms(self.nums, other.nums)
        return KForm._of(self.dim, self.degree + other.degree, terms, self.den * other.den)

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
            and self.den == other.den
            and self.nums == other.nums
        )

    __hash__ = None

    def __str__(self) -> str:
        parts = []
        for idx in sorted(self.nums):
            term = ratio(self.nums[idx], self.den)
            if idx:
                gen = "e" + "".join(map(str, idx)) if self.dim <= 9 else "^".join(f"e{k}" for k in idx)
                term = gen if term == "1" else f"-{gen}" if term == "-1" else f"{term}*{gen}"
            parts.append(term)
        return _signed_sum(parts)

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
        return ComplexKForm(self.re * re_c - self.im * im_c, self.re * im_c + self.im * re_c)

    def __add__(self, other) -> ComplexKForm:
        other = other if isinstance(other, ComplexKForm) else ComplexKForm.from_real(other)
        return ComplexKForm(self.re + other.re, self.im + other.im)

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
    """Element of the underlying vector space: int coordinates `nums` in the
    basis X_1..X_n over `den`, in lowest terms; `coeffs` is the Fraction view."""

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs):
        nums, den = linalg.over_lcm([literal(c) for c in coeffs])  # in lowest terms, as each p/q is
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    @classmethod
    def _of(cls, nums, den: int = 1) -> Vector:
        """The vector nums / den, den != 0, in lowest terms."""
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        return _make(cls, nums=tuple(x // g for x in nums), den=den // g)

    def __setattr__(self, *_):
        raise AttributeError("Vector is immutable")

    @classmethod
    def basis(cls, dim: int, index: int) -> Vector:
        """The basis vector X_index (1-based)."""
        if not 1 <= index <= dim:
            raise InputError(f"basis index {index} out of range 1..{dim}")
        return cls._of([int(i == index - 1) for i in range(dim)])

    @property
    def coeffs(self) -> tuple:
        """The Fraction view of the coordinates, built on first read."""
        if getattr(self, "_coeffs", None) is None:
            object.__setattr__(self, "_coeffs", tuple(Fraction(x, self.den) for x in self.nums))
        return self._coeffs

    @property
    def dim(self) -> int:
        return len(self.nums)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i]

    def __add__(self, other: Vector) -> Vector:
        (a, b), den = common_den((self, other))
        return Vector._of([x + y for x, y in zip(a, b, strict=True)], den)

    def __sub__(self, other: Vector) -> Vector:
        return self + (-other)

    def __neg__(self) -> Vector:
        return Vector._of([-x for x in self.nums], self.den)

    def __mul__(self, scalar) -> Vector:
        p, q = literal(scalar)
        return Vector._of([p * x for x in self.nums], q * self.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.den == other.den and self.nums == other.nums

    __hash__ = None

    def __str__(self) -> str:
        parts = []
        for i, x in enumerate(self.nums, start=1):
            if x:
                c = ratio(x, self.den)
                parts.append(f"X{i}" if c == "1" else f"-X{i}" if c == "-1" else f"{c}*X{i}")
        return _signed_sum(parts)

    def __repr__(self) -> str:
        return f"Vector({self})"


class Endo:
    """Endomorphism of the vector space, an int matrix `num` over `den` in
    lowest terms; column j is the image of X_j. `matrix` is the Fraction view."""

    __slots__ = ("num", "den", "_matrix", "_columns")

    def __init__(self, matrix):
        num, den = _int_matrix([list(row) for row in matrix], "endomorphism")
        object.__setattr__(self, "num", tuple(map(tuple, num)))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("Endo is immutable")

    @classmethod
    def identity(cls, dim: int) -> Endo:
        return _make(cls, num=tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)), den=1)

    @classmethod
    def from_pairs(cls, dim: int, pairs) -> Endo:
        """Build J from index pairs: (a, b) means J X_a = X_b, J X_b = -X_a; J = 0 elsewhere."""
        m = [[0] * dim for _ in range(dim)]
        seen: set[int] = set()
        for a, b in pairs:
            if not (1 <= a <= dim and 1 <= b <= dim) or a == b:
                raise InputError(f"invalid pair ({a},{b}) for dimension {dim}")
            if a in seen or b in seen:
                raise InputError(f"index reused in pairs near ({a},{b})")
            seen.update((a, b))
            m[b - 1][a - 1] = 1
            m[a - 1][b - 1] = -1
        return _make(cls, num=tuple(map(tuple, m)), den=1)

    @property
    def dim(self) -> int:
        return len(self.num)

    @property
    def matrix(self) -> tuple:
        """The Fraction view of the matrix, built on first read."""
        if getattr(self, "_matrix", None) is None:
            object.__setattr__(self, "_matrix", tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num))
        return self._matrix

    def columns(self) -> tuple[list[dict[int, int]], int]:
        """(cols, den): cols[j][i] = den * J[i][j] for the nonzero entries, kept."""
        if getattr(self, "_columns", None) is None:
            cols = [{i: x for i, x in enumerate(col) if x} for col in zip(*self.num)]
            object.__setattr__(self, "_columns", (cols, self.den))
        return self._columns

    def apply(self, v: Vector) -> Vector:
        if v.dim != self.dim:
            raise InputError("endomorphism/vector dimension mismatch")
        return Vector._of(linalg.matvec(self.num, v.nums), self.den * v.den)

    def __repr__(self) -> str:
        return f"Endo({[[str(x) for x in row] for row in self.matrix]})"


class Metric:
    """Symmetric bilinear form, stored as an int matrix `num` over one
    denominator `den`.

    Symmetry is enforced at construction; positive definiteness is checked on
    demand via leading principal minors, so degenerate forms (like g_J on the
    full algebra) are representable. The minors and the adjugate come from one
    fraction-free elimination of `num` (`linalg.sylvester`), run on first use
    and kept. `matrix` is the Fraction view, built on first read.
    """

    __slots__ = ("num", "den", "_matrix", "_elimination")

    def __init__(self, matrix):
        num, den = _int_matrix(matrix, "metric")
        if den >= _METRIC_DEN_BOUND:
            raise InputError(f"metric entries need a common denominator of at most {MAX_METRIC_DEN_DIGITS} digits")
        pair = next(((i, j) for i in range(len(num)) for j in range(i) if num[i][j] != num[j][i]), None)
        if pair:
            raise InputError(f"metric not symmetric at ({pair[0] + 1},{pair[1] + 1})")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _of(cls, num, den: int) -> Metric:
        """The metric num / den of a symmetric int matrix, in lowest terms, not checked again."""
        num, den = linalg.lowest(num, den)
        return _make(cls, num=num, den=den)

    def __setattr__(self, *_):
        raise AttributeError("Metric is immutable")

    @classmethod
    def identity(cls, dim: int) -> Metric:
        return cls.diagonal([1] * dim)

    @classmethod
    def diagonal(cls, entries) -> Metric:
        return cls([[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)])

    @property
    def dim(self) -> int:
        return len(self.num)

    @property
    def matrix(self) -> tuple:
        if getattr(self, "_matrix", None) is None:
            view = tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)
            object.__setattr__(self, "_matrix", view)
        return self._matrix

    def bilinear(self, u: Vector, v: Vector) -> Fraction:
        return Fraction(linalg.dot(u.nums, linalg.matvec(self.num, v.nums)), self.den * u.den * v.den)

    def det(self) -> Fraction:
        return linalg.det(self.num) / self.den**self.dim

    def _sylvester(self) -> tuple:
        """(leading minors of num up to the first one <= 0, adjugate or None), computed once."""
        if getattr(self, "_elimination", None) is None:
            object.__setattr__(self, "_elimination", linalg.sylvester(self.num))
        return self._elimination

    def inverse(self) -> tuple[list[list[int]], int]:
        """(num, den): the inverse of a positive definite metric as ints over
        den, den * adj(num) / det(num); raises ValueError otherwise."""
        minors, adjugate = self._sylvester()
        if adjugate is None:
            raise ValueError("metric is not positive definite")
        return linalg.lowest([[self.den * x for x in row] for row in adjugate], minors[-1] if minors else 1)

    def inverse_matrix(self) -> list[list[Fraction]]:
        """The inverse of a positive definite metric in Fractions; raises ValueError otherwise."""
        num, den = self.inverse()
        return [[Fraction(x, den) for x in row] for row in num]

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


def covectors(forms) -> tuple[list[list[int]], int]:
    """(rows, den): the values alpha(X_1), ..., alpha(X_n) of real 1-forms as
    int rows over one denominator."""
    for a in forms:
        if not isinstance(a, KForm) or a.degree != 1:
            raise InputError(f"expected a real 1-form, got {a}")
    nums, den = common_den(forms)
    return [[t.get((j,), 0) for j in range(1, a.dim + 1)] for t, a in zip(nums, forms)], den


def contract(v: Vector, a):
    """Interior product iota_v a; an antiderivation of degree -1."""
    if isinstance(a, ComplexKForm):
        return ComplexKForm(contract(v, a.re), contract(v, a.im))
    if v.dim != a.dim:
        raise InputError("contract: dimension mismatch")
    if a.degree == 0:
        raise InputError("contract: cannot contract a degree-0 form")
    terms: dict[tuple[int, ...], int] = {}
    for idx, c in a.nums.items():
        for pos, k in enumerate(idx):
            if comp := v.nums[k - 1]:
                rest = idx[:pos] + idx[pos + 1 :]
                terms[rest] = terms.get(rest, 0) + (-comp if pos % 2 else comp) * c
    return KForm._of(a.dim, a.degree - 1, terms, a.den * v.den)


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
