"""Chevalley-Eilenberg calculus: frozen examples plus an independent
row-reduction oracle for every Betti rank computed by the library."""

import random
from fractions import Fraction as Q
from math import comb

import pytest

from nilgeo import linalg
from nilgeo.algdsl import parse_algebra
from nilgeo.cealg import (
    MAX_BETTI_DIM,
    LieAlgebra,
    _basis_masks,
    _image_rows,
    basis_tuples,
    betti_numbers,
    change_of_basis,
    d_matrix,
    is_exact,
    span_algebra,
)
from nilgeo.errors import InputError
from nilgeo.exterior import KForm, Vector
from nilgeo.legendrian import Subalgebra
from nilgeo.models import PYTHAGOREAN_ROTATIONS, heisenberg_algebra, heisenberg_ccy

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


# -- the duality shortcut of betti_numbers -----------------------------------

# nilpotent bases of dims 5..9: filiform F_m, Heisenberg and direct sums
NILPOTENT = (
    "(0,0,12,13,14)",
    "(0,0,0,0,12+34)",
    "(0,0,12,13,14,15)",
    "(0,0,12,0,0,45)",
    "(0,0,12,13,14,15,16)",
    "(0,0,0,0,0,0,12+34+56)",
    "(0,0,12,13,14,15,16,17)",
    "(0,0,0,0,12+34,0,0,67)",
    "(0,0,0,0,0,0,0,0,12+34+56+78)",
    "(0,0,12,0,0,45,0,0,78)",
)
UNIMODULAR_NOT_NILPOTENT = ("(23,-13,12)", "(0,13,-12)")  # so(3) and e(2)
NOT_UNIMODULAR = ("(0,12)", "(0,12,13)", "(0,12+13,0,0,0)", "(0,0,12,0,45)")


def sheared(alg, rng, shears=4):
    """alg in the frame of a seeded integer matrix of determinant 1 (shears
    of +-1 between random columns), rebuilt through the checked constructor."""
    n = alg.dim
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for _ in range(shears):
        a, b = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        cols[a] = [x + c * y for x, y in zip(cols[a], cols[b])]
    return LieAlgebra(change_of_basis(alg, cols).d1)


def trace_free(alg):
    cells, _ = alg.brackets
    return all(sum(row[k].get(k, 0) for k in row) == 0 for row in cells)


def test_betti_duality_matches_oracle_on_sheared_nilpotent_algebras():
    rng = random.Random(0)
    for spec in NILPOTENT:
        alg = sheared(parse_algebra(spec), rng)
        assert alg.is_nilpotent() and trace_free(alg)
        assert betti_numbers(alg).numbers == oracle_betti(alg), spec


def test_betti_duality_matches_oracle_on_unimodular_non_nilpotent_algebras():
    for spec in UNIMODULAR_NOT_NILPOTENT:
        alg = parse_algebra(spec)
        assert trace_free(alg) and not alg.is_nilpotent()
        assert betti_numbers(alg).numbers == oracle_betti(alg), spec
    assert betti_numbers(parse_algebra("(23,-13,12)")).numbers == (1, 0, 0, 1)


def test_betti_matches_oracle_on_non_unimodular_algebras():
    for spec in NOT_UNIMODULAR:
        alg = parse_algebra(spec)
        assert not trace_free(alg)
        assert betti_numbers(alg).numbers == oracle_betti(alg), spec


def complement_sign(mask, n):
    """The sign of e^I ^ e^(complement of I) against e^1 ^ ... ^ e^n."""
    rest = ((1 << n) - 1) ^ mask
    return -1 if sum((rest & (1 << i) - 1).bit_count() for i in range(n) if mask >> i & 1) % 2 else 1


def test_image_rows_of_dual_degrees_are_signed_transposes_on_unimodular_algebras():
    # from d(a ^ b) = 0 for a in Lambda^k, b in Lambda^{n-1-k} (d vanishes on
    # Lambda^{n-1} exactly when the algebra is unimodular): entry (J*, I*) of
    # d on Lambda^{n-1-k} is -(-1)^k s(I) s(J) times entry (I, J) of d on
    # Lambda^k, * the complement and s its sign
    rng = random.Random(1)
    algebras = [sheared(parse_algebra(spec), rng) for spec in NILPOTENT[:6]]
    for alg in algebras + [parse_algebra(spec) for spec in UNIMODULAR_NOT_NILPOTENT]:
        n, d1 = alg.dim, alg.d1_ints[0]
        masks, pos = _basis_masks(n, range(n + 1))
        full = (1 << n) - 1
        for k in range(n):
            low, high = _image_rows(d1, masks[k], pos), _image_rows(d1, masks[n - 1 - k], pos)
            dual = {}
            for I, row in zip(masks[k], low):
                for j, v in row.items():
                    J = masks[k + 1][j]
                    sign = -(-1) ** k * complement_sign(I, n) * complement_sign(J, n)
                    dual[pos[full ^ J], pos[full ^ I]] = sign * v
            assert dual == {(r, c): v for r, row in enumerate(high) for c, v in row.items()}


def test_non_unimodular_algebra_breaks_the_rank_duality():
    # (0,12): rank d_0 = 0 but rank d_1 = 1, so betti_numbers needs its gate
    alg = parse_algebra("(0,12)")
    masks, pos = _basis_masks(2, range(3))
    ranks = [linalg.rank_sparse(_image_rows(alg.d1_ints[0], masks[k], pos)) for k in (0, 1)]
    assert ranks == [0, 1]
    assert betti_numbers(alg).numbers == oracle_betti(alg) == (1, 1, 0)


# -- derived algebras and is_exact against the checked paths ------------------


def rational_frame(rng, n):
    while True:
        cols = [[Q(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if linalg.det(cols):
            return cols


def assert_passes_jacobi_check(derived):
    checked = LieAlgebra(derived.d1)  # the public constructor runs the Jacobi check
    assert checked.d1_ints == derived.d1_ints and checked.brackets == derived.brackets


def test_change_of_basis_results_pass_the_jacobi_check():
    rng = random.Random(2)
    for n in range(1, 6):  # H3 .. H11
        assert_passes_jacobi_check(change_of_basis(heisenberg_algebra(n), rational_frame(rng, 2 * n + 1)))
    for spec in NILPOTENT[:6] + UNIMODULAR_NOT_NILPOTENT + NOT_UNIMODULAR:
        alg = parse_algebra(spec)
        assert_passes_jacobi_check(change_of_basis(alg, rational_frame(rng, alg.dim)))


def closed_subspace(rng, n, ideal, free):
    """A rational basis of span(ideal, free random vectors), the ideal holding
    [g, g]: each basis vector a random combination of the spanning ones."""
    spanning = [Vector.basis(n, i) for i in ideal]
    spanning += [Vector([rng.randint(-2, 2) for _ in range(n)]) for _ in range(free)]
    mix = rational_frame(rng, len(spanning))
    return [Vector([sum(c * v.coeffs[i] for c, v in zip(col, spanning)) for i in range(n)]) for col in mix]


def test_span_algebra_on_closed_subspaces_passes_the_jacobi_check():
    rng = random.Random(3)
    for n in range(1, 6):  # H3 .. H11: [g, g] = span X_dim
        dim = 2 * n + 1
        basis = closed_subspace(rng, dim, [dim], n + 1)
        assert_passes_jacobi_check(span_algebra(heisenberg_algebra(n), basis))
    for m in range(4, 12):  # F4 .. F11: [g, g] = span X3 .. Xm
        alg = LieAlgebra([KForm.zero(m, 2)] * 2 + [KForm.monomial(m, (1, k - 1)) for k in range(3, m + 1)])
        derived = span_algebra(alg, closed_subspace(rng, m, range(3, m + 1), 1))
        assert derived is not None and derived.dim == m - 1
        assert_passes_jacobi_check(derived)


def solve_is_exact(form, alg):
    """is_exact as it was: the Fraction d_matrix through linalg.solve."""
    k = form.degree
    if form.is_zero:
        return KForm.zero(alg.dim, max(k - 1, 0))
    if k == 0:
        return None
    rhs = [form.coefficient(idx) for idx in basis_tuples(alg.dim, k)]
    sol = linalg.solve(d_matrix(alg, k - 1), rhs)
    if sol is None:
        return None
    return KForm(alg.dim, k - 1, dict(zip(basis_tuples(alg.dim, k - 1), sol)))


def test_is_exact_agrees_with_the_solve_path_on_obstruction_inputs():
    for n in (1, 2, 3):
        ccy = heisenberg_ccy(n)
        sub = Subalgebra(ccy.alg, [Vector.basis(ccy.alg.dim, 2 * k - 1) for k in range(1, n + 1)])
        for c, s in PYTHAGOREAN_ROTATIONS:
            pb = sub.pull(ccy.epsilon.scale(c, s).im)
            assert is_exact(pb, sub.induced_algebra()) == solve_is_exact(pb, sub.induced_algebra())


def test_is_exact_agrees_with_the_solve_path_on_seeded_closed_forms():
    rng = random.Random(4)
    algebras = [parse_algebra(spec) for spec in NILPOTENT[:5] + UNIMODULAR_NOT_NILPOTENT + NOT_UNIMODULAR]
    algebras.append(change_of_basis(A5, rational_frame(rng, 5)))
    exact = 0
    for alg in algebras:
        for k in range(1, alg.dim + 1):
            cycles = linalg.nullspace(d_matrix(alg, k), comb(alg.dim, k)) if k < alg.dim else None
            for _ in range(3):
                if cycles is None:  # every top-degree form is closed
                    coeffs = [Q(rng.randint(-3, 3), rng.randint(1, 4))]
                else:
                    weights = [Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in cycles]
                    coeffs = [sum(w * v[i] for w, v in zip(weights, cycles)) for i in range(comb(alg.dim, k))]
                form = KForm(alg.dim, k, dict(zip(basis_tuples(alg.dim, k), coeffs)))
                primitive = is_exact(form, alg)
                assert primitive == solve_is_exact(form, alg)
                exact += primitive is not None and not form.is_zero
                b = KForm(alg.dim, k - 1, {idx: rng.randint(-2, 2) for idx in basis_tuples(alg.dim, k - 1)})
                db = alg.d(b)
                assert is_exact(db, alg) == solve_is_exact(db, alg)
    assert exact  # some random cycles are boundaries too
