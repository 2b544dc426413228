"""Desk-scale discretization of the linearized deformation operator of the
circle special Legendrian inside the 3-dimensional Heisenberg-type model.
The operator is always assembled on that reference structure,
`reference_structure()` = `heisenberg_ccy(1)`; it takes no structure input.

Symbolic reduction (documented here because the assembly realizes it):

The circle L is the subalgebra spanned by X1, with unit-period coordinate t
and tangent frame p_*(d/dt) = X1. Normal fields decompose as

    Z = f * R + u * J(X1)

with f, u functions on L (R the Reeb field, J(X1) = X2). Linearizing the
defining equations of a special Legendrian deformation at Z = 0 gives the
pair of conditions

    d(f) + p^*(iota_{u JX1} d(alpha))   and   -d * p^*(iota_{u JX1} d(alpha)),

where * is the Hodge star of the induced metric with the induced volume form.
On the reference structure both reduce to exact 1-dimensional expressions:

    p^*(iota_{JX1} d(alpha)) = c * (dual coordinate form)   with c = -2,

computed by exact exterior algebra at assembly time, so the operator is

    (f, u)  |->  ( f' + c u ,  -c u' ).

Discretization: f is sampled at the N grid nodes t_j = j/N and u at the N
cell midpoints t_{j+1/2}; every derivative is then a second-order centered
difference on the staggered pair of grids, and the second component's
difference matrix is exactly the negated transpose of the first's, mirroring
the d / d* adjunction. The periodic wrap-around encodes compactness of L.
With this pairing the kernel is exactly the constant Reeb direction for every
grid size. A node-centered width-2h stencil would instead carry a spurious
checkerboard kernel on one parity class of N; the staggered stencil has none.
Grid sizes are restricted to even N so refinement by doubling stays inside
the supported family, and bounded by MAX_GRID_N so that one request cannot
ask for an unbounded exact elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import linalg
from .errors import InputError
from .exterior import Vector, contract, pullback
from .models import heisenberg_ccy
from .structures import CCYStructure

# Largest grid size N accepted; the operator is 2N x 2N.
MAX_GRID_N = 4096


@dataclass(frozen=True)
class CircleGrid:
    """Uniform periodic grid with N cells on the unit-period circle."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise InputError("grid needs at least 4 cells")
        if self.n % 2:
            raise InputError("odd grid sizes are rejected; use an even N")
        if self.n > MAX_GRID_N:
            raise InputError(f"grid size N must be at most {MAX_GRID_N}, got {self.n}")


@dataclass(frozen=True)
class LinearizedOperator:
    """2N x 2N exact matrix acting on stacked grid samples (f, u).

    Rows 0..N-1 are the first (1-form) component at cell midpoints; rows
    N..2N-1 are the second component at nodes. Stored sparsely.
    """

    n: int
    coupling: Fraction
    rows: tuple  # tuple of dicts col -> Fraction

    @property
    def size(self) -> int:
        return 2 * self.n

    def matrix(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.size for _ in range(self.size)]
        for r, row in enumerate(self.rows):
            for c, v in row.items():
                out[r][c] = v
        return out

    def apply(self, vec) -> list[Fraction]:
        vec = [Fraction(x) for x in vec]
        if len(vec) != self.size:
            raise InputError(f"vector must have length {self.size}")
        return [
            sum((v * vec[c] for c, v in row.items()), Fraction(0)) for row in self.rows
        ]


def reference_structure() -> CCYStructure:
    """The verified 3-dimensional reference configuration."""
    return heisenberg_ccy(1)


def coupling_constant(ccy: CCYStructure) -> Fraction:
    """Coefficient c in p^*(iota_{JX1} d alpha) = c * (dual coordinate form)."""
    tangent = Vector.basis(ccy.dim, 1)
    jx = ccy.J.apply(tangent)
    dalpha = ccy.alg.d(ccy.contact.alpha)
    restricted = pullback(contract(jx, dalpha), [tangent])
    return restricted.coefficient((1,))


@cache
def _reference_coupling() -> Fraction:
    """coupling_constant of the reference structure, built and verified once."""
    return coupling_constant(reference_structure())


def assemble_operator(grid: CircleGrid) -> LinearizedOperator:
    """Assemble the discretized linearized operator on the reference structure."""
    c = _reference_coupling()
    n = grid.n
    inv_h = Fraction(grid.n)
    rows: list[dict[int, Fraction]] = []
    # component one at midpoint j+1/2: (f_{j+1} - f_j)/h + c u_j
    for j in range(n):
        rows.append({(j + 1) % n: inv_h, j: -inv_h, n + j: c})
    # component two at node j: -c (u_j - u_{j-1})/h  (negated transpose pairing)
    for j in range(n):
        rows.append({n + j: -c * inv_h, n + (j - 1) % n: c * inv_h})
    return LinearizedOperator(n=n, coupling=c, rows=tuple(rows))


def kernel_dimension(op: LinearizedOperator) -> int:
    """Exact kernel dimension: 2N minus the exact rank."""
    return op.size - linalg.rank_sparse(op.rows)


def reeb_constant_vector(op: LinearizedOperator) -> list[Fraction]:
    """The constant-f, zero-u grid vector (the Reeb deformation direction)."""
    return [Fraction(1)] * op.n + [Fraction(0)] * op.n


def kernel_is_reeb_line(op: LinearizedOperator, kernel_dim: int) -> bool:
    """True when the kernel is exactly the span of the constant Reeb direction,
    for kernel_dim = kernel_dimension(op)."""
    if kernel_dim != 1:
        return False
    image = op.apply(reeb_constant_vector(op))
    return not any(image)
