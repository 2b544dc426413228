"""Randomized exact property suites.

Each suite runs 1000 seeded trials; every assertion is exact (rational
arithmetic), so a single failure is a real counterexample, never noise.
"""

import random
from fractions import Fraction as Q
from itertools import combinations

import pytest

from nilgeo import linalg
from nilgeo.algdsl import parse_algebra, serialize_algebra
from nilgeo.cealg import (
    LieAlgebra,
    _basis_masks,
    _image_rows,
    _mask_terms,
    basis_tuples,
    betti_numbers,
    change_of_basis,
    d_matrix,
    d_rows,
    d_terms,
    is_exact,
)
from nilgeo.curvature import levi_civita, ricci_scalar
from nilgeo.errors import InputError
from nilgeo.exterior import (
    KForm,
    Metric,
    Vector,
    contract,
    evaluate,
    hodge_star,
    pullback,
)

from .fraction_curvature import riemann

TRIALS = 1000

CATALOG_SPECS = (
    "(0,0,12)",
    "(0,0,0,0,12+34)",
    "(0,0,12,13,14+23)",
    "(0,0,0,12,13+24)",
    "(0,0,0,0,12)",
    "(0,0,12,0)",
)
CATALOG = [parse_algebra(s) for s in CATALOG_SPECS] + [
    LieAlgebra.abelian(3),
    LieAlgebra.abelian(5),
]


def rand_fraction(rng, span=3):
    return Q(rng.randint(-span, span), rng.randint(1, 3))


def rand_form(rng, dim, degree, sparsity=3):
    if degree > dim:
        return KForm.zero(dim, degree)
    pool = list(combinations(range(1, dim + 1), degree))
    rng.shuffle(pool)
    terms = {idx: rand_fraction(rng) for idx in pool[: min(sparsity, len(pool))]}
    return KForm(dim, degree, terms)


def rand_vector(rng, dim):
    return Vector([rand_fraction(rng) for _ in range(dim)])


def rand_unimodular(rng, dim, steps=4):
    """Product of elementary integer row operations; determinant +-1."""
    m = [[Q(int(i == j)) for j in range(dim)] for i in range(dim)]
    for _ in range(steps):
        i, j = rng.sample(range(dim), 2)
        c = rng.randint(-2, 2)
        for k in range(dim):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return m


def rand_algebra(rng):
    alg = rng.choice(CATALOG)
    if rng.random() < 0.4:
        p = rand_unimodular(rng, alg.dim)
        cols = [[p[i][j] for i in range(alg.dim)] for j in range(alg.dim)]
        alg = change_of_basis(alg, cols)
    return alg


def rand_posdef_metric(rng, dim):
    """g = B^T B for invertible integer B; det(g) is a perfect square."""
    while True:
        b = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
        if linalg.det(b) != 0:
            break
    return Metric(
        [
            [
                sum(Q(b[k][i]) * b[k][j] for k in range(dim))
                for j in range(dim)
            ]
            for i in range(dim)
        ]
    )


def test_ce_differential_squares_to_zero():
    rng = random.Random(101)
    for _ in range(TRIALS):
        alg = rand_algebra(rng)
        form = rand_form(rng, alg.dim, rng.randint(0, alg.dim - 1))
        assert alg.d(alg.d(form)).is_zero


def test_wedge_graded_commutativity():
    rng = random.Random(102)
    for _ in range(TRIALS):
        dim = rng.randint(1, 5)
        p, q = rng.randint(0, dim), rng.randint(0, dim)
        a, b = rand_form(rng, dim, p), rand_form(rng, dim, q)
        sign = -1 if (p * q) % 2 else 1
        assert a.wedge(b) == sign * b.wedge(a)


def test_wedge_associativity():
    rng = random.Random(103)
    for _ in range(TRIALS):
        dim = rng.randint(1, 5)
        a = rand_form(rng, dim, rng.randint(0, 2))
        b = rand_form(rng, dim, rng.randint(0, 2))
        c = rand_form(rng, dim, rng.randint(0, 2))
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_contraction_antiderivation():
    rng = random.Random(104)
    for _ in range(TRIALS):
        dim = rng.randint(2, 5)
        p = rng.randint(1, dim - 1)
        q = rng.randint(1, dim - p)
        a, b = rand_form(rng, dim, p), rand_form(rng, dim, q)
        v = rand_vector(rng, dim)
        lhs = contract(v, a.wedge(b))
        sign = -1 if p % 2 else 1
        rhs = contract(v, a).wedge(b) + sign * a.wedge(contract(v, b))
        assert lhs == rhs


def test_hodge_star_double_sign_law():
    rng = random.Random(105)
    for _ in range(TRIALS):
        dim = rng.randint(1, 4)
        k = rng.randint(0, dim)
        g = rand_posdef_metric(rng, dim)
        a = rand_form(rng, dim, k)
        sign = -1 if (k * (dim - k)) % 2 else 1
        assert hodge_star(hodge_star(a, g), g) == sign * a


def test_koszul_torsion_and_metric_identities():
    # levi_civita raises if its output fails the exact torsion-free or
    # metric-compatibility identities, so constructing it is the assertion
    rng = random.Random(106)
    for _ in range(TRIALS):
        alg = rng.choice([a for a in CATALOG if a.dim <= 4])
        g = rand_posdef_metric(rng, alg.dim)
        conn = levi_civita(alg, g)
        assert conn is not None


def test_ricci_symmetry():
    # ricci_scalar fills only i <= j, so each entry and its mirror are compared
    # with Ric(X_i, X_j) = trace(Z -> R(Z, X_i) X_j) taken from riemann, also
    # on non-nilpotent algebras (su(2), sl(2,R), a non-unimodular solvable one)
    rng = random.Random(107)
    algebras = [a for a in CATALOG if a.dim <= 4] + [
        parse_algebra(s) for s in ("(23,-13,12)", "(-23,13,12)", "(0,12,13)")
    ]
    for _ in range(TRIALS // 5):
        alg = rng.choice(algebras)
        g = rand_posdef_metric(rng, alg.dim)
        conn = levi_civita(alg, g)
        report = ricci_scalar(alg, g, conn)
        n = alg.dim
        basis = [Vector.basis(n, i) for i in range(1, n + 1)]
        for i in range(n):
            for j in range(i, n):
                trace = sum(riemann(conn, basis[k], basis[i], basis[j])[k] for k in range(n))
                assert report.ricci[i][j] == report.ricci[j][i] == trace


def test_first_bianchi_identity():
    rng = random.Random(108)
    for _ in range(TRIALS):
        alg = rng.choice([a for a in CATALOG if a.dim <= 4])
        g = rand_posdef_metric(rng, alg.dim)
        conn = levi_civita(alg, g)
        basis = [Vector.basis(alg.dim, i) for i in range(1, alg.dim + 1)]
        for x, y, z in combinations(basis, 3):
            total = (
                riemann(conn, x, y, z)
                + riemann(conn, y, z, x)
                + riemann(conn, z, x, y)
            )
            assert total.is_zero


def test_evaluate_alternating():
    rng = random.Random(109)
    for _ in range(200):
        dim = rng.randint(2, 5)
        k = rng.randint(2, dim)
        a = rand_form(rng, dim, k)
        vs = [rand_vector(rng, dim) for _ in range(k)]
        i, j = rng.sample(range(k), 2)
        swapped = list(vs)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert evaluate(a, swapped) == -evaluate(a, vs)


def test_pullback_commutes_with_wedge_random():
    rng = random.Random(110)
    for _ in range(200):
        dim = rng.randint(2, 5)
        m = rng.randint(1, dim)
        vs = []
        while True:
            vs = [rand_vector(rng, dim) for _ in range(m)]
            if linalg.rank([list(v.coeffs) for v in vs]) == m:
                break
        a = rand_form(rng, dim, rng.randint(0, 2))
        b = rand_form(rng, dim, rng.randint(0, 2))
        assert pullback(a.wedge(b), vs) == pullback(a, vs).wedge(pullback(b, vs))


def test_is_exact_returns_true_primitive():
    rng = random.Random(111)
    for _ in range(200):
        alg = rand_algebra(rng)
        k = rng.randint(1, alg.dim - 1)
        b = rand_form(rng, alg.dim, k)
        db = alg.d(b)
        primitive = is_exact(db, alg)
        assert primitive is not None
        assert alg.d(primitive) == db


def test_parse_serialize_identity_on_catalog():
    for spec in CATALOG_SPECS:
        alg = parse_algebra(spec)
        assert parse_algebra(serialize_algebra(alg)) == alg


def test_parse_algebra_accepts_exactly_jacobi_consistent_specs():
    # randomized valid and invalid structure-constant specs: acceptance must
    # coincide with an independent d-squared check on the raw differential
    rng = random.Random(112)
    accepted = rejected = 0
    for _ in range(400):
        dim = rng.randint(3, 5)
        entries, d1 = [], []
        for k in range(1, dim + 1):
            if rng.random() < 0.55:
                entries.append("0")
                d1.append({})
                continue
            pairs = list(combinations(range(1, dim + 1), 2))
            i, j = rng.choice(pairs)
            sign = rng.choice(["", "-"])
            entries.append(f"{sign}{i}{j}")
            d1.append({(i, j): -1 if sign else 1})
        text = "(" + ",".join(entries) + ")"
        jacobi_ok = all(not any(d_terms(_mask_terms(d1), terms).values()) for terms in d1)
        try:
            parse_algebra(text)
            assert jacobi_ok, f"{text} accepted but violates d^2 = 0"
            accepted += 1
        except InputError:
            assert not jacobi_ok, f"{text} rejected but satisfies d^2 = 0"
            rejected += 1
    assert accepted > 0 and rejected > 0


def test_betti_duality_and_euler_on_catalog():
    for alg in CATALOG:
        if not alg.is_nilpotent():
            continue
        table = betti_numbers(alg)
        assert table.is_poincare_dual()
        if alg.dim % 2:
            assert table.euler_characteristic() == 0


def to_sympy(matrix):
    import sympy

    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in matrix])


def from_sympy(values):
    return [Q(int(x.p), int(x.q)) for x in values]


def assert_linalg_matches_sympy(rng, dense):
    """rank, rref, nullspace, solve, det and inverse of a dense matrix against
    sympy; det and inverse on its leading square block. Returns the rank."""
    nrows, ncols = len(dense), len(dense[0])
    m = to_sympy(dense)
    reduced, pivots = m.rref()
    rank = len(pivots)
    assert linalg.rank(dense) == rank
    assert linalg.rref(dense) == ([from_sympy(reduced.row(i)) for i in range(nrows)], list(pivots))
    assert linalg.nullspace(dense) == [from_sympy(v) for v in m.nullspace()]
    if rng.random() < 0.5:
        rhs = linalg.matvec(dense, [rand_fraction(rng) for _ in range(ncols)])
    else:
        rhs = [rand_fraction(rng) for _ in range(nrows)]
    solution = linalg.solve(dense, rhs)
    augmented_rank = len(m.row_join(to_sympy([[b] for b in rhs])).rref()[1])
    assert (solution is None) == (augmented_rank > rank)
    if solution is not None:
        assert linalg.matvec(dense, solution) == rhs
    k = min(nrows, ncols)
    block, sympy_block = [row[:k] for row in dense[:k]], m[:k, :k]
    det = sympy_block.det(method="domain-ge")
    assert linalg.det(block) == from_sympy([det])[0]
    if det:
        inverse = sympy_block.inv()
        assert linalg.inverse(block) == [from_sympy(inverse.row(i)) for i in range(k)]
    else:
        with pytest.raises(ValueError):
            linalg.inverse(block)
    return rank


def rand_rational_frame(rng, dim):
    """Columns of an invertible matrix with small rational entries."""
    while True:
        m = [[rand_fraction(rng, 2) for _ in range(dim)] for _ in range(dim)]
        if linalg.det(m):
            return [[m[i][j] for i in range(dim)] for j in range(dim)]


NILPOTENT_SPECS = CATALOG_SPECS + ("(0,0,12,13,14,15)", "(0,0,12,0,0,45)", "(0,0,0,0,0,12,13)")


def rand_nilpotent_algebra(rng):
    """A nilpotent algebra in a random rational frame: its structure constants
    are rational, not integral, as soon as the frame has denominators."""
    alg = parse_algebra(rng.choice(NILPOTENT_SPECS))
    return change_of_basis(alg, rand_rational_frame(rng, alg.dim))


def test_rank_agrees_with_sympy():
    # every linalg entry point against sympy, on random matrices and d-matrices
    rng = random.Random(114)
    for _ in range(300):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        dense = [
            [rand_fraction(rng) if rng.random() < 0.4 else Q(0) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        sparse = [{c: v for c, v in enumerate(row) if v} for row in dense]
        expected = assert_linalg_matches_sympy(rng, dense)
        assert linalg.rank_sparse(sparse) == expected
    for _ in range(12):
        alg = rand_nilpotent_algebra(rng)
        for k in range(alg.dim):
            dense = d_matrix(alg, k)
            expected = assert_linalg_matches_sympy(rng, dense)
            assert linalg.rank_sparse(d_rows(alg, k)) == expected


def test_rref_and_solve_agree_with_sympy_on_sparse_matrices_up_to_40():
    # the back-reduction clears only the pivot columns present in each row
    rng = random.Random(4040)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 40), rng.randint(1, 40)
        density = rng.choice((0.05, 0.1, 0.25))
        dense = [
            [rand_fraction(rng) if rng.random() < density else Q(0) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        m = to_sympy(dense)
        reduced, pivots = m.rref()
        assert linalg.rref(dense) == ([from_sympy(reduced.row(i)) for i in range(nrows)], list(pivots))
        if rng.random() < 0.5:
            rhs = linalg.matvec(dense, [rand_fraction(rng) for _ in range(ncols)])
        else:
            rhs = [rand_fraction(rng) for _ in range(nrows)]
        augmented, aug_pivots = m.row_join(to_sympy([[b] for b in rhs])).rref()
        if ncols in aug_pivots:
            assert linalg.solve(dense, rhs) is None
        else:
            expected = [Q(0)] * ncols
            for i, col in enumerate(aug_pivots):
                expected[col] = from_sympy([augmented[i, ncols]])[0]
            assert linalg.solve(dense, rhs) == expected


def test_int_rows_give_the_rank_and_rref_of_their_fraction_copies():
    # each pivot becomes a Fraction, so int rows are never divided into floats
    assert linalg.rank_sparse([{0: -3, 1: 8, 2: 6}, {0: 5, 1: 7, 2: -1}, {0: 24, 1: -3, 2: -21}]) == 2
    rng = random.Random(2024)
    for _ in range(200):
        ncols = rng.randint(1, 8)
        base = [{c: rng.randint(-9, 9) for c in rng.sample(range(ncols), rng.randint(1, ncols))} for _ in range(3)]
        rows = []
        for _ in range(rng.randint(1, 6)):
            row: dict[int, int] = {}
            for b in base:
                f = rng.randint(-3, 3)
                for c, v in b.items():
                    row[c] = row.get(c, 0) + f * v
            rows.append(row)
        copies = [{c: Q(v) for c, v in row.items()} for row in rows]
        assert linalg.rank_sparse(rows) == linalg.rank_sparse(copies)
        reduced, pivots = linalg._rref_sparse(rows)
        assert (reduced, pivots) == linalg._rref_sparse(copies)
        assert all(type(v) is Q for row in reduced for v in row.values())


def test_sparse_d_rows_match_the_differential_of_each_monomial():
    # d_rows are ints over the algebra's denominator: column I is den d(e^I)
    rng = random.Random(115)
    algebras = [parse_algebra(s) for s in NILPOTENT_SPECS]
    algebras += [rand_nilpotent_algebra(rng) for _ in range(8)]
    algebras += [parse_algebra("(23,-13,12)"), parse_algebra("(0,12)")]
    for alg in algebras:
        den = alg.d1_ints[1]
        for k in range(alg.dim + 1):
            rows = d_rows(alg, k)
            cod = basis_tuples(alg.dim, k + 1)
            assert len(rows) == len(cod)
            for col, idx in enumerate(basis_tuples(alg.dim, k)):
                image = alg.d(KForm.monomial(alg.dim, idx))
                column = {cod[r]: row[col] for r, row in enumerate(rows) if col in row}
                assert column == {i: den * c for i, c in image.terms.items()}
            assert all(type(v) is int and v for row in rows for v in row.values())
            dense = d_matrix(alg, k)
            assert [{c: v * den for c, v in enumerate(row) if v} for row in dense] == rows


def test_monomial_rule_matches_the_wedge_of_the_leibniz_expansion():
    # d(e^I) = sum_p (-1)^p d(e^{i_p}) ^ e^{I - i_p}, with the wedge of KForm
    rng = random.Random(116)
    algebras = [parse_algebra(s) for s in NILPOTENT_SPECS]
    algebras += [rand_algebra(rng) for _ in range(20)]  # integer shears
    algebras += [rand_nilpotent_algebra(rng) for _ in range(12)]  # rational frames
    for alg in algebras:
        for k in range(1, alg.dim + 1):
            for idx in basis_tuples(alg.dim, k):
                expected = KForm.zero(alg.dim, k + 1)
                for p, i in enumerate(idx):
                    rest = KForm.monomial(alg.dim, idx[:p] + idx[p + 1 :])
                    expected = expected + (-1) ** p * alg.d1[i - 1].wedge(rest)
                assert alg.d(KForm.monomial(alg.dim, idx)) == expected


# F8, H3+H3+H3 and H9 beside the smaller specs: dims 3..9
BETTI_SPECS = NILPOTENT_SPECS + (
    "(0,0,12,13,14,15,16,17)",
    "(0,0,12,0,0,45,0,0,78)",
    "(0,0,0,0,0,0,0,0,12+34+56+78)",
)


def test_d_rows_transpose_the_image_rows_and_betti_ignores_the_frame():
    # betti ranks the image rows den d(e^I); d_rows must hold the same cells
    # transposed, and an integer shear or a rational frame keeps every b_k
    rng = random.Random(117)
    bases = [parse_algebra(s) for s in BETTI_SPECS]
    algebras = list(bases)
    for trial in range(24):
        base = rng.choice([b for b in bases if b.dim >= 5])
        if trial % 2:
            frame = rand_rational_frame(rng, base.dim)
        else:
            p = rand_unimodular(rng, base.dim, steps=6)
            frame = [[p[i][j] for i in range(base.dim)] for j in range(base.dim)]
        alg = change_of_basis(base, frame)
        assert betti_numbers(alg).numbers == betti_numbers(base).numbers
        algebras.append(alg)
    for alg in algebras:
        masks, pos = _basis_masks(alg.dim, range(alg.dim + 2))
        for k in range(alg.dim + 1):
            image = _image_rows(alg.d1_ints[0], masks[k], pos)
            rows = d_rows(alg, k)
            assert len(image) == len(basis_tuples(alg.dim, k)) and len(rows) == len(basis_tuples(alg.dim, k + 1))
            cells = {(r, col): v for col, row in enumerate(image) for r, v in row.items()}
            assert cells == {(r, col): v for r, row in enumerate(rows) for col, v in row.items()}


def test_int_and_fraction_matrices_eliminate_alike():
    # integral multipliers keep int rows int; every result equals the Fraction one
    _, (_, _, second) = linalg._eliminate([{0: 2, 1: 3}, {0: 4, 1: 7}])
    assert second == {1: 1} and type(second[1]) is int
    _, (_, _, second) = linalg._eliminate([{0: 2, 1: 3}, {0: 3, 1: 5}])
    assert second == {1: Q(1, 2)}
    rng = random.Random(117)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        ints = [[rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(ncols)] for _ in range(nrows)]
        fracs = [[Q(x) for x in row] for row in ints]
        expected = len(to_sympy(fracs).rref()[1])
        int_rows = [{c: x for c, x in enumerate(row) if x} for row in ints]
        pivots = linalg._eliminate(int_rows)
        assert pivots == linalg._eliminate([{c: Q(x) for c, x in row.items()} for row in int_rows])
        assert len(pivots) == linalg.rank_sparse(int_rows) == linalg.rank(ints) == linalg.rank(fracs) == expected
        assert linalg.rref(ints) == linalg.rref(fracs)
        k = min(nrows, ncols)
        assert linalg.det([row[:k] for row in ints[:k]]) == linalg.det([row[:k] for row in fracs[:k]])
        rhs = [rng.randint(-4, 4) for _ in range(nrows)]
        assert linalg.solve(ints, rhs) == linalg.solve(fracs, [Q(b) for b in rhs])


def test_induced_algebra_of_full_subspace_is_original():
    from nilgeo.legendrian import Subalgebra

    for alg in CATALOG:
        basis = [Vector.basis(alg.dim, i) for i in range(1, alg.dim + 1)]
        sub = Subalgebra(alg, basis)
        assert sub.closed_under_bracket
        assert sub.induced_algebra() == alg


def oracle_constants(alg, vectors):
    """c[i][j], the coordinates of [v_i, v_j] in the v's by one dense solve per
    pair, the bracket read off d1 as [u, v]_k = -d(e^k)(u, v); None if some
    bracket leaves the span."""
    matrix = [[v[r] for v in vectors] for r in range(alg.dim)]
    solves = [[linalg.solve(matrix, [-evaluate(form, [u, v]) for form in alg.d1]) for v in vectors] for u in vectors]
    if any(coords is None for row in solves for coords in row):
        return None
    return tuple(tuple(tuple(coords) for coords in row) for row in solves)


def test_change_of_basis_solves_for_the_brackets_of_the_frame():
    rng = random.Random(150)
    for _ in range(120):
        alg = parse_algebra(rng.choice(NILPOTENT_SPECS))
        cols = rand_rational_frame(rng, alg.dim)
        assert change_of_basis(alg, cols).structure_constants == oracle_constants(alg, [Vector(c) for c in cols])
    with pytest.raises(ValueError, match="matrix is singular"):
        change_of_basis(alg, [cols[0], *cols[:-1]])
    with pytest.raises(InputError, match="need a full frame"):
        change_of_basis(alg, cols[:-1])


def test_subalgebra_verdict_and_induced_algebra_match_per_pair_solves():
    # random integer subspaces, half of them closed up under the bracket
    from nilgeo.legendrian import Subalgebra

    rng = random.Random(151)
    closed = not_closed = 0
    for _ in range(300):
        alg = parse_algebra(rng.choice(NILPOTENT_SPECS))
        basis = []
        for _ in range(rng.randint(1, alg.dim - 1)):
            v = Vector([rng.randint(-2, 2) for _ in range(alg.dim)])
            if linalg.rank([list(w.coeffs) for w in basis + [v]]) > len(basis):
                basis.append(v)
        if rng.random() < 0.5:
            grown = True
            while grown:
                grown = False
                for u, v in combinations(list(basis), 2):
                    w = alg.bracket(u, v)
                    if linalg.rank([list(x.coeffs) for x in basis + [w]]) > len(basis):
                        basis.append(w)
                        grown = True
        if not basis:
            continue
        sub, expected = Subalgebra(alg, basis), oracle_constants(alg, basis)
        assert sub.closed_under_bracket == (expected is not None)
        if expected is None:
            not_closed += 1
            with pytest.raises(InputError, match="not closed"):
                sub.induced_algebra()
        else:
            closed += 1
            assert sub.induced_algebra().structure_constants == expected
        with pytest.raises(InputError, match="linearly dependent"):
            Subalgebra(alg, basis + [basis[0] * 2 - basis[-1]])
    assert closed > 50 and not_closed > 50


def test_reeb_solution_unique_and_exact():
    from nilgeo.exterior import contract as iota
    from nilgeo.structures import check_contact

    rng = random.Random(113)
    alg = parse_algebra("(0,0,0,0,12+34)")
    for _ in range(100):
        coeffs = {(5,): Q(rng.randint(1, 4))}
        for i in range(1, 5):
            c = rand_fraction(rng, 2)
            if c:
                coeffs[(i,)] = c
        alpha = KForm(5, 1, coeffs)
        contact = check_contact(alg, alpha)
        assert evaluate(alpha, [contact.reeb]) == 1
        assert iota(contact.reeb, alg.d(alpha)).is_zero


# odd-dimensional algebras, nilpotent and not, with and without contact forms;
# on the non-unimodular (12,0,0) and (12,0,34,0,0), d alpha can have maximal
# rank while alpha vanishes on its kernel (alpha = e1, e1 + e3), the one
# non-contact case where the Reeb system is short of full rank by one
CONTACT_SPECS = (
    "(0,0,12)",
    "(23,-13,12)",
    "(0,0,0)",
    "(12,0,0)",
    "(12,0,34,0,0)",
    "(0,0,0,0,12+34)",
    "(0,0,12,13,14+23)",
    "(0,0,0,12,13+24)",
    "(0,0,0,0,12)",
    "(0,0,0,0,0,0,12+34+56)",
    "(0,0,12,13,14+23,15+24,16+25)",
)


def test_contact_verdict_matches_volume_oracle():
    # check_contact decides alpha ^ (d alpha)^n != 0 by the rank of the Reeb
    # system; the oracle expands the wedge power
    from nilgeo.structures import NotContactError, check_contact

    from .fraction_structures import volume

    rng = random.Random(1958)
    verdicts = []
    for spec in CONTACT_SPECS:
        alg = parse_algebra(spec)
        n = (alg.dim - 1) // 2
        for _ in range(150):
            alpha = rand_form(rng, alg.dim, 1, sparsity=rng.randint(1, alg.dim))
            expected = not volume([alpha], alg.d(alpha), n).is_zero
            try:
                check_contact(alg, alpha)
                verdict = True
            except NotContactError as exc:
                assert exc.check == "contact.volume"
                verdict = False
            assert verdict == expected, (spec, str(alpha))
            verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)
