"""Exact linear algebra over the rationals.

One exact rank, a sparse rational elimination that dense matrices reach
through a thin wrapper; plain Gauss-Jordan helpers (det, inverse, solve,
nullspace, rref); and the zero-skipping vector and table contractions that the
structure checks and the curvature layer are written in. Everything works on
`fractions.Fraction`; nothing is ever rounded.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
_ZERO = Fraction(0)


def _as_fraction_rows(matrix) -> Matrix:
    return [[Fraction(x) for x in row] for row in matrix]


def rank(matrix) -> int:
    """Exact rank of a dense matrix: its nonzero entries handed to rank_sparse."""
    return rank_sparse(
        [{c: v for c, x in enumerate(row) if (v := Fraction(x))} for row in matrix]
    )


def rank_sparse(rows) -> int:
    """Exact rank of a matrix given as sparse rows (dict column -> Fraction).

    Rational elimination with sparsity-aware pivoting: the rows are bucketed
    by leading column and the shortest row of a bucket is the pivot, so sparse
    matrices (the Chevalley-Eilenberg differential, banded circulants) keep
    little fill-in. The one rank elimination of the package.
    """
    pending: dict[int, list[dict[int, Fraction]]] = {}

    def push(row: dict[int, Fraction]) -> None:
        row = {c: v for c, v in row.items() if v}
        if row:
            pending.setdefault(min(row), []).append(row)

    for r in rows:
        push(dict(r))
    rk = 0
    while pending:
        col = min(pending)
        bucket = pending.pop(col)
        bucket.sort(key=len)
        pivot = bucket[0]
        pv = pivot[col]
        rk += 1
        for row in bucket[1:]:
            f = row[col] / pv
            for c, v in pivot.items():
                row[c] = row.get(c, Fraction(0)) - f * v
            del row[col]
            push(row)
    return rk


def det(matrix) -> Fraction:
    """Exact determinant by rational Gaussian elimination."""
    rows = _as_fraction_rows(matrix)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        p = rows[col][col]
        for i in range(col + 1, n):
            f = rows[i][col] / p
            if f:
                for j in range(col, n):
                    rows[i][j] -= f * rows[col][j]
    out = Fraction(sign)
    for i in range(n):
        out *= rows[i][i]
    return out


def inverse(matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan; raises ValueError on a singular matrix."""
    rows = _as_fraction_rows(matrix)
    n = len(rows)
    aug = [rows[i] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def rref(matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    rows = _as_fraction_rows(matrix)
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def solve(matrix, rhs) -> list[Fraction] | None:
    """One exact solution of A x = b (free variables set to zero), or None."""
    rows = _as_fraction_rows(matrix)
    b = [Fraction(x) for x in rhs]
    if len(rows) != len(b):
        raise ValueError("matrix/vector size mismatch")
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [rows[i] + [b[i]] for i in range(len(rows))]
    red, pivots = rref(aug)
    for row in red:
        if not any(row[:ncols]) and row[ncols]:
            return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        if col == ncols:
            return None
        x[col] = red[r][ncols] - sum(
            (red[r][j] * x[j] for j in range(col + 1, ncols)), Fraction(0)
        )
    return x


def nullspace(matrix, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the exact kernel of A (as row-major matrix)."""
    rows = _as_fraction_rows(matrix)
    if not rows:
        if ncols is None:
            return []
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v) if a and b), _ZERO)


def matvec(matrix, v) -> list[Fraction]:
    return [dot(row, v) for row in matrix]


def axpy(out: list, c, v) -> None:
    """out += c * v, in place."""
    for k, x in enumerate(v):
        if x:
            out[k] += c * x


def lincomb(cells, v) -> list[Fraction]:
    """sum_k v[k] cells[k]: a linear combination of the vectors in cells."""
    out = [_ZERO] * len(cells[0])
    for vk, cell in zip(v, cells):
        if vk:
            axpy(out, vk, cell)
    return out


def contract_first(table, u) -> list[list[Fraction]]:
    """The first slot of a table against u: cells[j] = sum_i u[i] table[i][j]."""
    return [lincomb(column, u) for column in zip(*table)]


def bilinear(table, u, v) -> list[Fraction]:
    """sum_ij u[i] v[j] table[i][j]."""
    return lincomb(contract_first(table, u), v)
