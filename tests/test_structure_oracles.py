"""The fraction-free structure checks against per-entry Fraction oracles.

`linalg.sylvester` and `linalg.pfaffian` against per-minor determinants,
`linalg.inverse`, sympy and the expansion of the Pfaffian; the calibration,
Nijenhuis and normalization clauses and the r-contact volume against the
reference computations in `fraction_structures`.
"""

import random
from fractions import Fraction as Q
from itertools import combinations
from math import factorial

import pytest
import sympy

from nilgeo import linalg
from nilgeo.algdsl import parse_algebra, parse_form
from nilgeo.classify import Catalog
from nilgeo.errors import CheckError
from nilgeo.exterior import ComplexKForm, Endo, KForm, Metric
from nilgeo.models import PYTHAGOREAN_ROTATIONS, heisenberg_ccy_data, kodaira_thurston_data
from nilgeo.structures import (
    CCYError,
    NotCalibratedError,
    _check_calibration,
    _nijenhuis_failures,
    _volume_coefficient,
    check_ccy,
    check_contact,
    check_r_contact_ccy,
)

from . import fraction_structures as reference
from .test_curvature import transported_data
from .test_properties import rand_form


def rand_matrix(rng, rows, cols, den=6):
    return [[Q(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(cols)] for _ in range(rows)]


def gram(b):
    """B^T B: positive definite when B has independent columns, else singular."""
    return [[sum(r[i] * r[j] for r in b) for j in range(len(b[0]))] for i in range(len(b[0]))]


def to_sympy(matrix):
    return sympy.Matrix(len(matrix), len(matrix), lambda i, j: sympy.Rational(str(matrix[i][j])))


def test_sylvester_matches_per_minor_determinants_inverse_and_sympy():
    rng = random.Random(1968)
    cases = [[]]
    for _ in range(60):
        n = rng.randint(1, 6)
        cases.append(rand_matrix(rng, n, n))  # mostly not positive definite
        cases.append(gram(rand_matrix(rng, n + 1, n)))  # positive definite
        cases.append(gram(rand_matrix(rng, n - 1, n)) if n > 1 else [[Q(0)]])  # singular
        sym = rand_matrix(rng, n, n)
        cases.append([[sym[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
    verdicts = []
    for matrix in cases:
        minors, inverse = linalg.sylvester(matrix)
        assert minors == reference.leading_minors(matrix)
        sym = to_sympy(matrix)
        assert minors == [Q(str(sym[:k, :k].det())) for k in range(1, len(minors) + 1)]
        verdicts.append(inverse is not None)
        if inverse is None:
            assert minors[-1] <= 0
            continue
        assert all(m > 0 for m in minors) and len(minors) == len(matrix)
        assert inverse == linalg.inverse(matrix) if matrix else inverse == []
        if matrix:
            assert inverse == [[Q(str(x)) for x in row] for row in sym.inv().tolist()]
    assert 0 < sum(verdicts) < len(verdicts)


def test_metric_reads_one_elimination():
    g = Metric([[2, 1, 0], [1, 2, Q(1, 3)], [0, Q(1, 3), 1]])
    assert g.is_positive_definite()
    assert g.inverse_matrix() == linalg.inverse(g.matrix)
    assert g._sylvester() is g._sylvester()
    indefinite = Metric([[1, 2], [2, 1]])
    assert not indefinite.is_positive_definite()
    with pytest.raises(ValueError):
        indefinite.inverse_matrix()


def rand_skew(rng, n, den=6):
    a = [[Q(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        a[i][j] = Q(rng.choice((0, 0, 1, -1, 2, -3)), rng.randint(1, den))
        a[j][i] = -a[i][j]
    return a


def test_pfaffian_squares_to_the_determinant_and_matches_the_expansion():
    rng = random.Random(2012)
    for _ in range(200):
        n = rng.randint(0, 8)
        a = rand_skew(rng, n)
        pf = linalg.pfaffian(a)
        assert pf * pf == (linalg.det(a) if n else 1)
        if n <= 6:
            assert pf == reference.pfaffian(a)
    # a zero first row, and a pivot that needs an exchange
    assert linalg.pfaffian([[0, 0], [0, 0]]) == 0
    assert linalg.pfaffian([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]) == -1


def test_pfaffian_times_n_factorial_is_the_kappa_power_coefficient():
    rng = random.Random(5)
    for _ in range(40):
        dim = rng.randint(2, 7)
        kappa = rand_form(rng, dim, 2, sparsity=rng.randint(1, dim * (dim - 1) // 2))
        for n in range(1, dim // 2 + 1):
            power = reference.wedge_power(kappa, n)
            k = [[kappa.coefficient((p, q)) if p < q else -kappa.coefficient((q, p)) for q in range(1, dim + 1)]
                 for p in range(1, dim + 1)]
            for index in combinations(range(1, dim + 1), 2 * n):
                minor = [[k[p - 1][q - 1] for q in index] for p in index]
                assert factorial(n) * linalg.pfaffian(minor) == power.coefficient(index)


def rand_endo(rng, dim, pairs):
    """J from index pairs with random scales, sometimes re-paired at random or
    with one perturbed entry: reaches every calibration clause and both
    Nijenhuis outcomes."""
    m = [[Q(0)] * dim for _ in range(dim)]
    if rng.random() < 0.3:
        indices = [k for pair in pairs for k in pair]
        rng.shuffle(indices)
        pairs = list(zip(indices[::2], indices[1::2]))
    for a, b in pairs:
        t = Q(rng.choice((1, 1, -1, 2)), rng.choice((1, 1, 2, 3)))
        m[b - 1][a - 1], m[a - 1][b - 1] = t, -1 / t
    if rng.random() < 0.4:
        m[rng.randrange(dim)][rng.randrange(dim)] += rng.choice((1, -1, Q(1, 2)))
    return Endo(m)


def test_calibration_and_nijenhuis_match_the_fraction_reference():
    rng = random.Random(8)
    cases = [(parse_algebra("(0,0,12)"), "2*e3", [(1, 2)]),
             (parse_algebra("(0,0,0,0,12+34)"), "2*e5", [(1, 2), (3, 4)]),
             (parse_algebra("(0,0,0,13,12+34)"), "2*e5", [(1, 2), (3, 4)]),
             (parse_algebra("(23,-13,12)"), "1/2*e3", [(1, 2)]),
             (parse_algebra("(0,0,0,0,0,0,12+34+56)"), "e7", [(1, 2), (3, 4), (5, 6)])]
    seen = set()
    for alg, alpha, pairs in cases:
        contact = check_contact(alg, parse_form(alpha, alg.dim))
        args = (alg, contact.kappa, [contact.alpha], [contact.reeb])
        for _ in range(40):
            J = rand_endo(rng, alg.dim, pairs)
            expected = reference.calibration_error(*args, J)
            try:
                _check_calibration(*args, J)
                got = None
            except NotCalibratedError as exc:
                got = (exc.check, exc.witness)
            assert got == expected
            seen.add(got and got[0])
            if got is None:
                dalpha = alg.d(contact.alpha)
                failures = _nijenhuis_failures(alg, J, dalpha, contact.reeb)
                assert failures == reference.nijenhuis_failures(alg, J, dalpha, contact.reeb)
                seen.add(bool(failures))
    assert seen >= {None, "calibrated.J_reeb", "calibrated.J_square", "calibrated.symmetric",
                    "calibrated.positive", True, False}


def normalization_cases():
    rng = random.Random(31)
    scales = list(PYTHAGOREAN_ROTATIONS) + [(Q(2), Q(0)), (Q(0), Q(-1, 3))]
    for n in range(1, 7):
        alg, alpha, J, eps = heisenberg_ccy_data(n)
        for re, im in scales if n <= 4 else scales[1:2] + scales[4:5]:
            yield alg, [alpha], J, eps.scale(re, im)
    for n in (1, 2):
        alg, alpha, J, eps = heisenberg_ccy_data(n)
        for re, im in scales[1::2]:
            alg_t, alpha_t, J_t, eps_t = transported_data(rng, alg, alpha, J, eps.scale(re, im))
            yield alg_t, [alpha_t], J_t, eps_t
    a5 = parse_algebra("(0,0,0,0,12+34)")
    eps5 = parse_form("(e1+i*e2)^(e3+i*e4)", 5)
    yield a5, [parse_form("2*e5", 5)], Endo.from_pairs(5, [(1, 2), (3, 4)]), eps5.scale(Q(3, 5), Q(4, 5))
    alg, alphas, J, eps = kodaira_thurston_data()
    for re, im in scales:
        yield alg, alphas, J, eps.scale(re, im)


@pytest.mark.parametrize("strict", [False, True])
def test_normalization_matches_full_form_equality(strict):
    verdicts = []
    for alg, alphas, J, eps in normalization_cases():
        n = (alg.dim - len(alphas)) // 2
        kappa = alg.d(alphas[0]) * Q(1, 2)
        expected = reference.normalization_witness(kappa, eps, n, strict)
        verdicts.append(expected is None)
        result = check_r_contact_ccy(alg, alphas, J, eps, strict_def31=strict)
        last = result.clauses[-1]
        assert (last.name, last.detail if not last.ok else None) == (
            ("rccy.epsilon", None) if expected is None else ("ccy.normalization", expected)
        )
        if len(alphas) == 1:
            try:
                check_ccy(check_contact(alg, alphas[0]), J, eps, strict_def31=strict)
                got = None
            except CCYError as exc:
                assert exc.check == "ccy.normalization"
                got = exc.witness
            assert got == expected
    assert 0 < sum(verdicts) < len(verdicts)


def test_volume_coefficient_is_the_expanded_wedge_product():
    rng = random.Random(41)
    for _ in range(150):
        r = rng.randint(1, 3)
        n = rng.randint(1, 3)
        dim = 2 * n + r
        alphas = [rand_form(rng, dim, 1, sparsity=rng.randint(1, dim)) for _ in range(r)]
        dalpha = rand_form(rng, dim, 2, sparsity=rng.randint(1, 2 * dim))
        top = _volume_coefficient(alphas, dalpha, n)
        assert KForm.monomial(dim, range(1, dim + 1), top) == reference.volume(alphas, dalpha, n)


def test_rccy_volume_bytes_match_the_wedge_power():
    # r = 1 on odd and r = 2 on even catalog algebras: alpha and alpha + e1
    # have equal differentials, as d e1 = 0 there
    rng = random.Random(43)
    cases = [kodaira_thurston_data()]
    cases += [(alg, [alpha], J, eps) for alg, alpha, J, eps in map(heisenberg_ccy_data, (1, 2, 3, 4))]
    for entry in Catalog.default():
        alg = entry.algebra()
        assert alg.d(KForm.monomial(alg.dim, (1,))).is_zero
        for _ in range(3):
            alpha = rand_form(rng, alg.dim, 1, sparsity=rng.randint(1, alg.dim))
            alphas = [alpha] if alg.dim % 2 else [alpha, alpha + KForm.monomial(alg.dim, (1,))]
            degree = (alg.dim - len(alphas)) // 2
            eps = ComplexKForm.from_real(KForm.zero(alg.dim, degree))
            cases.append((alg, alphas, Endo.identity(alg.dim), eps))
    verdicts = []
    for alg, alphas, J, eps in cases:
        n = (alg.dim - len(alphas)) // 2
        clauses = {c.name: c for c in check_r_contact_ccy(alg, alphas, J, eps).clauses}
        volume = reference.volume(alphas, alg.d(alphas[0]), n)
        verdicts.append(clauses["rccy.volume"].ok)
        if volume.is_zero:
            assert not clauses["rccy.volume"].ok
        else:
            assert clauses["rccy.volume"].detail == {"volume_form": str(volume)}
    assert 0 < sum(verdicts) < len(verdicts)


def test_contact_and_rccy_verdicts_need_no_wedge_power(monkeypatch):
    def refuse(*_):
        raise AssertionError("wedge power expanded")

    monkeypatch.setattr(KForm, "power", refuse)
    alg, alpha, J, eps = heisenberg_ccy_data(3)
    check_ccy(check_contact(alg, alpha), J, eps)
    with pytest.raises(CheckError):
        check_ccy(check_contact(alg, alpha), J, eps.scale(2))
    assert check_r_contact_ccy(*kodaira_thurston_data()).ok
