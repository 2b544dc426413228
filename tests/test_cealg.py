"""Chevalley-Eilenberg calculus: frozen examples plus an independent
row-reduction oracle for every Betti rank computed by the library."""

from fractions import Fraction as Q
from math import comb

import pytest

from nilgeo.algdsl import parse_algebra
from nilgeo.cealg import (
    MAX_BETTI_DIM,
    LieAlgebra,
    basis_tuples,
    betti_numbers,
    change_of_basis,
    d_matrix,
    is_exact,
)
from nilgeo.errors import InputError
from nilgeo.exterior import KForm, Vector
from nilgeo.models import heisenberg_algebra

from .fraction_structures import lie_derivative


def naive_rank(matrix):
    """Plain fraction Gaussian elimination, independent of the library path."""
    rows = [[Q(x) for x in row] for row in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def oracle_betti(alg):
    n = alg.dim
    numbers = []
    prev = 0
    for k in range(n + 1):
        rank_k = naive_rank(d_matrix(alg, k)) if k < n else 0
        numbers.append(len(basis_tuples(n, k)) - rank_k - prev)
        prev = rank_k
    return tuple(numbers)


H3 = parse_algebra("(0,0,12)")
A5 = parse_algebra("(0,0,0,0,12+34)")


def test_ce_differential_examples():
    assert A5.d(KForm.monomial(5, (5,))) == KForm(5, 2, {(1, 2): 1, (3, 4): 1})
    assert A5.d(KForm.monomial(5, (1, 5))) == KForm.monomial(5, (1, 3, 4), -1)
    assert A5.d(KForm.monomial(5, (1, 2))).is_zero


def test_ce_differential_squares_to_zero_on_generator_products():
    for alg in (H3, A5):
        for k in range(alg.dim):
            for idx in basis_tuples(alg.dim, k):
                form = KForm.monomial(alg.dim, idx)
                assert alg.d(alg.d(form)).is_zero


def test_betti_frozen_values():
    assert betti_numbers(H3).numbers == (1, 2, 2, 1)
    assert betti_numbers(A5).numbers == (1, 4, 5, 5, 4, 1)
    assert betti_numbers(LieAlgebra.abelian(5)).numbers == (1, 5, 10, 10, 5, 1)


def test_betti_against_independent_oracle():
    for spec in ("(0,0,12)", "(0,0,0,0,12+34)", "(0,0,12,13,14+23)", "(0,0,0,12,13+24)"):
        alg = parse_algebra(spec)
        assert betti_numbers(alg).numbers == oracle_betti(alg)


def santharoubane_betti(n):
    """Betti numbers of h_{2n+1} in closed form (Santharoubane 1983):
    b_k = C(2n, k) - C(2n, k - 2) for k <= n, and b_k = b_{2n+1-k} above."""
    low = [comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0) for k in range(n + 1)]
    return tuple(low + low[::-1])


def test_heisenberg_betti_match_santharoubane_closed_form():
    # n = 1..5 reaches dim 11 = MAX_BETTI_DIM, so the top generator's bit is used
    for n in range(1, (MAX_BETTI_DIM + 1) // 2):
        assert betti_numbers(heisenberg_algebra(n)).numbers == santharoubane_betti(n)


def test_betti_table_helpers():
    table = betti_numbers(A5)
    assert table.euler_characteristic() == 0
    assert table.is_poincare_dual()
    assert table[0] == table[5] == 1


def test_is_exact_examples():
    kappa2 = KForm(5, 2, {(1, 2): 1, (3, 4): 1})
    assert is_exact(kappa2, A5) == KForm.monomial(5, (5,))
    assert is_exact(KForm.monomial(5, (1, 2)), A5) is None
    primitive = is_exact(KForm.monomial(5, (1, 3, 4)), A5)
    assert primitive is not None
    assert A5.d(primitive) == KForm.monomial(5, (1, 3, 4))


def test_is_exact_requires_closed_input():
    with pytest.raises(InputError):
        is_exact(KForm.monomial(5, (5,)), A5)


def test_is_exact_of_differential_always_yes():
    for idx in basis_tuples(5, 2):
        db = A5.d(KForm.monomial(5, idx))
        if db.is_zero:
            continue
        primitive = is_exact(db, A5)
        assert primitive is not None and A5.d(primitive) == db


def test_lie_derivative_examples():
    assert lie_derivative(Vector.basis(3, 1), KForm.monomial(3, (3,)), H3) == KForm.monomial(
        3, (2,)
    )
    reeb = Q(1, 2) * Vector.basis(3, 3)
    assert lie_derivative(reeb, KForm.monomial(3, (1, 2)), H3).is_zero
    ab = LieAlgebra.abelian(4)
    assert lie_derivative(Vector([1, 2, 3, 4]), KForm.monomial(4, (1, 3)), ab).is_zero


def test_bracket_antisymmetry():
    for alg in (H3, A5):
        for i in range(1, alg.dim + 1):
            for j in range(1, alg.dim + 1):
                xi, xj = Vector.basis(alg.dim, i), Vector.basis(alg.dim, j)
                assert alg.bracket(xi, xj) == -alg.bracket(xj, xi)


def test_change_of_basis_preserves_betti():
    # a unimodular integer change of frame is an isomorphism
    p = [[1, 1, 0], [0, 1, 0], [2, 0, 1]]
    cols = [[p[i][j] for i in range(3)] for j in range(3)]
    conjugated = change_of_basis(H3, cols)
    assert betti_numbers(conjugated).numbers == (1, 2, 2, 1)


def test_nilpotency():
    assert H3.is_nilpotent()
    assert LieAlgebra.abelian(3).is_nilpotent()
    assert not parse_algebra("(0,12)").is_nilpotent()
