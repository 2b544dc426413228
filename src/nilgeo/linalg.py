"""Exact linear algebra over the rationals.

One elimination: a sparse forward elimination over Q that buckets the rows
by leading column and takes the shortest row of a bucket as pivot. Int rows
stay int: when an int pivot does not divide an entry, the row is first
multiplied so that it does, and the multiplier is their int quotient; the
result is then divided by the gcd of its entries, so that its entries stay
within the size of the minors, as reduced Fractions would. Fraction rows are
eliminated as Fractions. rank and rank_sparse count its pivots; det
multiplies them. `rref_ints` reads the reduced row echelon form of int rows,
times one denominator, after a fraction-free back-reduction; `kernel` reads
the nullspace of an int matrix off it, and rref, solve, nullspace and
inverse scale each rational row to ints for it. Then the zero-skipping
contractions that the structure checks and the curvature layer are written
in, over Fractions or ints alike; nothing is ever rounded.

Beside the sparse one, two dense fraction-free eliminations run on int
matrices. `sylvester` is the Gram-matrix elimination (Bareiss 1968), ints
in and ints out: the leading minors and the adjugate, which is the inverse
times the last minor (`Metric` keeps both). It takes no row exchanges, so
pivot k is a leading minor: a positive definite matrix never needs one, and
any other stops at the first minor <= 0, Sylvester's witness. Callers that
read only the minors (is a Gram matrix positive, what is its determinant)
run its forward elimination alone. `pfaffian` is the skew elimination of
Wimmer 2012.
"""

from __future__ import annotations

import math
from fractions import Fraction

Matrix = list[list[Fraction]]
_ZERO = Fraction(0)


def _sparse(matrix) -> list[dict[int, Fraction]]:
    return [{c: v for c, x in enumerate(row) if (v := Fraction(x))} for row in matrix]


def _int_rows(rows) -> list[dict[int, int]]:
    """Sparse rational rows, each times the lcm of its denominators: int rows
    with the same reduced row echelon form."""
    return [dict(zip(row, over_lcm([x.as_integer_ratio() for x in row.values()])[0])) for row in rows]


def _divisor(x):
    """x, or Fraction(x) for an int x, so that dividing by it stays exact."""
    return Fraction(x) if type(x) is int else x


def _eliminate(rows) -> list[tuple[int, int, dict[int, Fraction]]]:
    """Sparse forward elimination of rows (dict column -> int or Fraction).

    Returns the pivots in column order as (column, input row, echelon row):
    each echelon row is its input row (an int row: a rational multiple of it) minus
    multiples of earlier pivot rows.
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
            scale = 1
            if int_pivot and type(x) is int:
                if x % p:  # scale the row so that the multiplier is an int
                    scale = p // math.gcd(x, p)
                    row, x = {c: scale * v for c, v in row.items()}, scale * x
                f, zero = x // p, 0
            else:
                f, zero = x / _divisor(p), _ZERO
            for c, v in pivot.items():
                row[c] = row.get(c, zero) - f * v
            del row[col]
            if scale != 1 and (g := math.gcd(*row.values())) > 1:
                row = {c: v // g for c, v in row.items()}  # back to a primitive row
            push(row, s)
    return pivots


def rref_ints(rows) -> tuple[list[dict[int, int]], list[int], int]:
    """(reduced, pivots, den) of sparse int rows: the nonzero rows of the
    reduced row echelon form times den, the lcm of its pivots' denominators
    (so reduced[k][pivots[k]] == den), and their pivot columns. The
    back-reduction clears each later pivot column with cross multiples and
    divides every row by the gcd of its entries, so no Fraction is built."""
    pivots = _eliminate(rows)
    reduced: dict[int, dict[int, int]] = {}  # pivot column -> its reduced row, pivot entry > 0
    for col, _, row in reversed(pivots):
        # the rows below are final and zero in every other pivot column, so
        # clearing one pivot column of this row fills in no other
        for later_col in [c for c in row if c in reduced]:
            done = reduced[later_col]
            p, f = done[later_col], row[later_col]
            g = math.gcd(p, f)
            row = {c: v * (p // g) for c, v in row.items()}
            for c, v in done.items():
                row[c] = row.get(c, 0) - f // g * v
        row = {c: v for c, v in row.items() if v}
        g = math.gcd(*row.values()) if row[col] > 0 else -math.gcd(*row.values())
        reduced[col] = {c: v // g for c, v in row.items()}
    cols = [col for col, _, _ in pivots]
    den = math.lcm(*(reduced[col][col] for col in cols))
    return [{c: v * (den // reduced[col][col]) for c, v in reduced[col].items()} for col in cols], cols, den


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
    reduced, pivots, den = rref_ints(_int_rows({**row, n + i: 1} for i, row in enumerate(_sparse(matrix))))
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(row.get(n + j, 0), den) for j in range(n)] for row in reduced]


def rref(matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    if not matrix:
        return [], []
    ncols = len(matrix[0])
    reduced, pivots, den = rref_ints(_int_rows(_sparse(matrix)))
    dense = [[Fraction(row.get(c, 0), den) for c in range(ncols)] for row in reduced]
    return dense + [[_ZERO] * ncols for _ in range(len(matrix) - len(reduced))], pivots


def solve(matrix, rhs) -> list[Fraction] | None:
    """One exact solution of A x = b (free variables set to zero), or None."""
    if len(matrix) != len(rhs):
        raise ValueError("matrix/vector size mismatch")
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows = [{**row, ncols: Fraction(b)} for row, b in zip(_sparse(matrix), rhs)]
    reduced, pivots, den = rref_ints(_int_rows(rows))
    if pivots and pivots[-1] == ncols:
        return None
    x = [_ZERO] * ncols
    for col, row in zip(pivots, reduced):
        x[col] = Fraction(row.get(ncols, 0), den)
    return x


def nullspace(matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the exact kernel of A (as row-major matrix); one vector per free
    column, 1 there and 0 in the other free columns."""
    if matrix:
        ncols = len(matrix[0])
    elif ncols is None:
        return []
    reduced, pivots, den = rref_ints(_int_rows(_sparse(matrix)))
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [_ZERO] * ncols
        v[fc] = Fraction(1)
        for pc, row in zip(pivots, reduced):
            v[pc] = Fraction(-row.get(fc, 0), den)
        basis.append(v)
    return basis


def over_lcm(ratios) -> tuple[list[int], int]:
    """(numerators, den): (p, q) pairs, q > 0, as ints over den, the lcm of the q."""
    den = math.lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def lowest(rows, den: int) -> tuple[list[list[int]], int]:
    """(rows, den) of an int table over den, divided by the gcd of den and
    every entry: the same values in lowest terms."""
    g = math.gcd(den, *(x for row in rows for x in row))
    return [[x // g for x in row] for row in rows], den // g


def kernel(rows, ncols: int) -> tuple[list[list[int]], int]:
    """(basis, den): the `nullspace` basis of an int matrix, as ints over den,
    read off `rref_ints`: the vector of free column f is den at f and -row[f]
    at each pivot column."""
    reduced, pivots, den = rref_ints([{c: x for c, x in enumerate(row) if x} for row in rows])
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[fc] = den
        for pc, row in zip(pivots, reduced):
            v[pc] = -row.get(fc, 0)
        basis.append(v)
    return basis, den


def sylvester(a, adjugate: bool = True) -> tuple[list[int], list[list[int]] | None]:
    """(pivots, adjugate or None) of a square int matrix A.

    One fraction-free Gauss-Jordan elimination of [A | I]: each step divides
    every row exactly by the previous pivot, so pivot k is the (k+1)-th
    leading principal minor of A, and the right block ends as the adjugate,
    A^-1 = adj / det with det the last pivot (1 in size 0). The pivots stop
    at the first minor <= 0; the adjugate is returned when every minor is
    positive.

    With adjugate=False only the forward elimination runs, for callers that
    read the minors alone, and A must be symmetric (a Gram matrix): each step
    updates the rows below the pivot on their upper triangle only, as the
    trailing block stays symmetric. The pivots are the same; no adjugate.
    """
    n = _require_square(a, "sylvester")
    rows = [list(row) + [int(i == j) for j in range(n)] if adjugate else list(row) for i, row in enumerate(a)]
    pivots, prev = [], 1
    for k in range(n):
        pivot_row = rows[k]
        p = pivot_row[k]
        pivots.append(p)
        if p <= 0:
            return pivots, None
        if adjugate:
            for i, row in enumerate(rows):
                if i != k:
                    f = row[k]
                    rows[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        else:
            for i in range(k + 1, n):
                row, f = rows[i], pivot_row[i]
                if f or p != prev:  # else the step leaves the row as it is
                    for j in range(i, n):
                        row[j] = (p * row[j] - f * pivot_row[j]) // prev
        prev = p
    return pivots, [row[n:] for row in rows] if adjugate else None


def pfaffian(matrix) -> int:
    """Exact Pfaffian of a skew-symmetric int matrix S (0 in odd size, 1 in
    size 0).

    Step k pivots on (2k, 2k+1), after exchanging index 2k+1 with the first
    later index where row 2k is nonzero (the sign flips; a zero row gives 0).
    Entry (i, j) then becomes the Pfaffian of S on the pivot indices and
    {i, j}, divided exactly by the previous pivot; the last pivot is +-Pf(S).
    """
    n = _require_square(matrix, "pfaffian")
    if n % 2:
        return 0
    a = [list(row) for row in matrix]
    sign, prev = 1, 1
    for k in range(0, n, 2):
        p = next((j for j in range(k + 1, n) if a[k][j]), None)
        if p is None:
            return 0
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
    return sign * prev


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
