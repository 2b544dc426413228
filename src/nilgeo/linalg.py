"""Exact linear algebra over the rationals.

One elimination: a sparse forward elimination over Q that buckets the rows
by leading column and takes the shortest row of a bucket as pivot. When an
int pivot divides an int entry, the multiplier is their int quotient, so int
rows (the Chevalley-Eilenberg differential) stay int while their pivots
divide; any other multiplier is a Fraction, and Fraction rows are eliminated
as Fractions. rank and rank_sparse count its pivots; det multiplies them;
rref, solve, nullspace and inverse read the reduced row echelon form after
one sparse back-reduction.
Then `scaled` (a table as ints over one denominator) and the zero-skipping
contractions that the structure checks and the curvature layer are written
in, over Fractions or ints alike; nothing is ever rounded.

Beside the sparse one, three dense fraction-free eliminations run on int
matrices. `sylvester` is the Gram-matrix elimination (Bareiss 1968), ints
in and ints out: the leading minors and the adjugate, which is the inverse
times the last minor (`Metric` keeps both). It takes no row exchanges, so
pivot k is a leading minor: a positive definite matrix never needs one, and
any other stops at the first minor <= 0, Sylvester's witness. `kernel` is
Gauss-Jordan with row exchanges and the same exact division, for the
nullspace of a small int matrix. `pfaffian` is the skew elimination of
Wimmer 2012.
"""

from __future__ import annotations

import math
from fractions import Fraction

Matrix = list[list[Fraction]]
_ZERO = Fraction(0)


def _sparse(matrix) -> list[dict[int, Fraction]]:
    return [{c: v for c, x in enumerate(row) if (v := Fraction(x))} for row in matrix]


def _divisor(x):
    """x, or Fraction(x) for an int x, so that dividing by it stays exact."""
    return Fraction(x) if type(x) is int else x


def _eliminate(rows) -> list[tuple[int, int, dict[int, Fraction]]]:
    """Sparse forward elimination of rows (dict column -> int or Fraction).

    Returns the pivots in column order as (column, input row, echelon row):
    each echelon row is its input row minus multiples of earlier pivot rows.
    The shortest row of a leading-column bucket is the pivot, so sparse
    matrices (the Chevalley-Eilenberg differential, banded circulants) keep
    little fill-in.
    """
    pending: dict[int, list[tuple[dict[int, Fraction], int]]] = {}

    def push(row: dict[int, Fraction], source: int) -> None:
        row = {c: v for c, v in row.items() if v}  # a copy: the caller's rows stay intact
        if row:
            pending.setdefault(min(row), []).append((row, source))

    for source, r in enumerate(rows):
        push(r, source)
    pivots = []
    while pending:
        col = min(pending)
        bucket = pending.pop(col)
        bucket.sort(key=lambda entry: len(entry[0]))
        pivot, source = bucket[0]
        pivots.append((col, source, pivot))
        p = pivot[col]
        int_pivot = type(p) is int
        for row, s in bucket[1:]:
            x = row[col]
            if int_pivot and type(x) is int and not x % p:
                f, zero = x // p, 0  # an integral multiplier keeps int rows int
            else:
                f, zero = x / _divisor(p), _ZERO
            for c, v in pivot.items():
                row[c] = row.get(c, zero) - f * v
            del row[col]
            push(row, s)
    return pivots


def _rref_sparse(rows) -> tuple[list[dict[int, Fraction]], list[int]]:
    """The nonzero rows of the reduced row echelon form and their pivot columns."""
    pivots = _eliminate(rows)
    reduced: dict[int, dict[int, Fraction]] = {}  # pivot column -> its reduced row
    for col, _, row in reversed(pivots):
        pv = _divisor(row[col])
        row = {c: v / pv for c, v in row.items()}
        # the rows below are final and zero in every other pivot column, so
        # clearing one pivot column of this row fills in no other
        for later_col in [c for c in row if c in reduced]:
            f = row[later_col]
            for c, v in reduced[later_col].items():
                row[c] = row.get(c, _ZERO) - f * v
        reduced[col] = {c: v for c, v in row.items() if v}
    cols = [col for col, _, _ in pivots]
    return [reduced[col] for col in cols], cols


def _require_square(matrix, what: str) -> int:
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ValueError(f"{what} needs a square matrix")
    return n


def rank(matrix) -> int:
    """Exact rank of a dense matrix: its nonzero entries handed to rank_sparse."""
    return rank_sparse(_sparse(matrix))


def rank_sparse(rows) -> int:
    """Exact rank of a matrix given as sparse rows (dict column -> int or Fraction)."""
    return len(_eliminate(rows))


def det(matrix) -> Fraction:
    """Exact determinant: the product of the pivots, signed by the row permutation."""
    n = _require_square(matrix, "determinant")
    pivots = _eliminate(_sparse(matrix))
    if len(pivots) < n:
        return Fraction(0)
    sources = [source for _, source, _ in pivots]
    inversions = sum(a > b for i, a in enumerate(sources) for b in sources[i + 1 :])
    out = Fraction(-1 if inversions % 2 else 1)
    for col, _, row in pivots:
        out *= row[col]
    return out


def inverse(matrix) -> Matrix:
    """Exact inverse, read off the RREF of [A | I]; raises ValueError on a singular matrix."""
    n = _require_square(matrix, "inverse")
    rows = [{**row, n + i: Fraction(1)} for i, row in enumerate(_sparse(matrix))]
    reduced, pivots = _rref_sparse(rows)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[row.get(n + j, _ZERO) for j in range(n)] for row in reduced]


def rref(matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    if not matrix:
        return [], []
    ncols = len(matrix[0])
    reduced, pivots = _rref_sparse(_sparse(matrix))
    dense = [[row.get(c, _ZERO) for c in range(ncols)] for row in reduced]
    return dense + [[_ZERO] * ncols for _ in range(len(matrix) - len(reduced))], pivots


def solve(matrix, rhs) -> list[Fraction] | None:
    """One exact solution of A x = b (free variables set to zero), or None."""
    if len(matrix) != len(rhs):
        raise ValueError("matrix/vector size mismatch")
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows = [{**row, ncols: Fraction(b)} for row, b in zip(_sparse(matrix), rhs)]
    reduced, pivots = _rref_sparse(rows)
    if pivots and pivots[-1] == ncols:
        return None
    x = [_ZERO] * ncols
    for col, row in zip(pivots, reduced):
        x[col] = row.get(ncols, _ZERO)
    return x


def nullspace(matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the exact kernel of A (as row-major matrix); one vector per free
    column, 1 there and 0 in the other free columns."""
    if matrix:
        ncols = len(matrix[0])
    elif ncols is None:
        return []
    reduced, pivots = _rref_sparse(_sparse(matrix))
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [_ZERO] * ncols
        v[fc] = Fraction(1)
        for pc, row in zip(pivots, reduced):
            v[pc] = -row.get(fc, _ZERO)
        basis.append(v)
    return basis


def scaled(table) -> tuple[list, int]:
    """(numerators, den): a rectangular nested table of rationals as Python
    ints of the same nesting over den, the lcm of its denominators."""
    flat, shape = table, []
    while flat and isinstance(flat[0], (list, tuple)):
        shape.append(len(flat[0]))
        flat = [x for row in flat for x in row]
    out, den = over_lcm([x.as_integer_ratio() for x in flat])
    for size in reversed(shape):
        out = [out[k : k + size] for k in range(0, len(out), size)]
    return out, den


def over_lcm(ratios) -> tuple[list[int], int]:
    """(numerators, den): (p, q) pairs, q > 0, as ints over den, the lcm of the q."""
    den = math.lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def lowest(rows, den: int) -> tuple[list[list[int]], int]:
    """(rows, den) of an int table over den, divided by the gcd of den and
    every entry: the numerators and denominator `scaled` gives its values."""
    g = math.gcd(den, *(x for row in rows for x in row))
    return [[x // g for x in row] for row in rows], den // g


def scaled_maps(maps) -> tuple[list[dict], int]:
    """(int maps, den): term maps (key -> rational) as ints over den, the lcm of
    the denominators of all of them."""
    keys = [(m, key) for m, terms in enumerate(maps) for key in terms]
    values, den = scaled([maps[m][key] for m, key in keys])
    out: list[dict] = [{} for _ in maps]
    for (m, key), v in zip(keys, values):
        out[m][key] = v
    return out, den


def kernel(rows, ncols: int) -> tuple[list[list[int]], int]:
    """(basis, den): the `nullspace` basis of an int matrix, as ints over den.

    One fraction-free Gauss-Jordan elimination with row exchanges: each step
    divides every other row exactly by the previous pivot, so the rows end as
    D times the reduced row echelon form, D the last pivot (Bareiss 1968).
    The vector of free column f is D at f and -row[f] at each pivot column.
    """
    rows = [list(row) for row in rows if any(row)]
    pivots, prev = [], 1
    for col in range(ncols):
        k = len(pivots)
        p = next((i for i in range(k, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        pivot_row = rows[k]
        pv = pivot_row[col]
        for i, row in enumerate(rows):
            if i != k:
                f = row[col]
                rows[i] = [(pv * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = pv
        pivots.append(col)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[fc] = prev
        for pc, row in zip(pivots, rows):
            v[pc] = -row[fc]
        basis.append(v)
    return basis, prev


def sylvester(a) -> tuple[list[int], list[list[int]] | None]:
    """(pivots, adjugate or None) of a square int matrix A.

    One fraction-free Gauss-Jordan elimination of [A | I]: each step divides
    every row exactly by the previous pivot, so pivot k is the (k+1)-th
    leading principal minor of A, and the right block ends as the adjugate,
    A^-1 = adj / det with det the last pivot (1 in size 0). The pivots stop
    at the first minor <= 0; the adjugate is returned when every minor is
    positive.
    """
    n = _require_square(a, "sylvester")
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    pivots, prev = [], 1
    for k in range(n):
        pivot_row = rows[k]
        p = pivot_row[k]
        pivots.append(p)
        if p <= 0:
            return pivots, None
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return pivots, [row[n:] for row in rows]


def pfaffian(matrix) -> Fraction:
    """Exact Pfaffian of a skew-symmetric A = S / D (0 in odd size, 1 in size 0).

    Step k pivots on (2k, 2k+1), after exchanging index 2k+1 with the first
    later index where row 2k is nonzero (the sign flips; a zero row gives 0).
    Entry (i, j) then becomes the Pfaffian of S on the pivot indices and
    {i, j}, divided exactly by the previous pivot; the last pivot is +-Pf(S).
    """
    n = _require_square(matrix, "pfaffian")
    if n % 2:
        return Fraction(0)
    a, den = scaled(matrix)
    sign, prev = 1, 1
    for k in range(0, n, 2):
        p = next((j for j in range(k + 1, n) if a[k][j]), None)
        if p is None:
            return Fraction(0)
        if p != k + 1:
            a[p], a[k + 1] = a[k + 1], a[p]
            for row in a:
                row[p], row[k + 1] = row[k + 1], row[p]
            sign = -sign
        u, v = a[k], a[k + 1]
        pivot = u[k + 1]
        for i in range(k + 2, n):
            row = a[i]
            for j in range(k + 2, n):
                row[j] = (pivot * row[j] - u[i] * v[j] + u[j] * v[i]) // prev
        prev = pivot
    return Fraction(sign * prev, den ** (n // 2))


def dot(u, v):
    return sum(a * b for a, b in zip(u, v) if a and b)


def matvec(matrix, v) -> list:
    return [dot(row, v) for row in matrix]


def axpy(out: list, c, v) -> None:
    """out += c * v, in place."""
    for k, x in enumerate(v):
        if x:
            out[k] += c * x


def lincomb(cells, v) -> list:
    """sum_k v[k] cells[k]: a linear combination of the vectors in cells."""
    out = [0] * len(cells[0])
    for vk, cell in zip(v, cells):
        if vk:
            axpy(out, vk, cell)
    return out
