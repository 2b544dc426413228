"""The fraction-free structure checks against per-entry Fraction oracles.

`linalg.sylvester` and `linalg.pfaffian` against per-minor determinants,
`linalg.inverse`, sympy and the expansion of the Pfaffian; the minors-only
elimination against the full one and sympy; `linalg.kernel`
against `linalg.nullspace` and sympy; the calibration, Nijenhuis, epsilon and
normalization clauses, the r-contact volume and the dimension-5 obstruction
filter against the reference computations in `fraction_structures`.
"""

import random
from fractions import Fraction as Q
from itertools import combinations
from math import factorial

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nilgeo import linalg
from nilgeo import classify
from nilgeo.algdsl import parse_algebra, parse_form
from nilgeo.cealg import change_of_basis
from nilgeo.classify import Catalog, ccy_obstruction_filter, classify_entry, closed_two_forms
from nilgeo.errors import CheckError
from nilgeo.exterior import ComplexKForm, Endo, KForm, Metric
from nilgeo.models import PYTHAGOREAN_ROTATIONS, heisenberg_ccy_data
from nilgeo.structures import (
    CCYError,
    NotCalibratedError,
    NotContactError,
    _check_calibration,
    _check_epsilon_clauses,
    _nijenhuis_failures,
    _solve_reeb,
    _volume_form,
    check_ccy,
    check_contact,
    check_r_contact_ccy,
)

from . import fraction_structures as reference
from .fraction_forms import scaled
from .fraction_structures import kodaira_thurston_data
from .test_curvature import transported_data
from .test_properties import rand_form, rand_unimodular


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
        # ints in, ints out: matrix = a / den, minor k = pivot k / den^k, inverse = den adj / det
        a, den = scaled(matrix)
        pivots, adjugate = linalg.sylvester(a)
        minors = [Q(p, den ** (k + 1)) for k, p in enumerate(pivots)]
        inverse = None if adjugate is None else [[Q(den * x, pivots[-1]) for x in row] for row in adjugate]
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


@st.composite
def symmetric_ints(draw):
    """A symmetric int matrix of size 0-8: a Gram matrix B^T B (positive
    definite, or singular when B has too few rows), such a matrix with one
    diagonal entry lowered (positive minors up to that index, then often not),
    or symmetric entries drawn at random (mostly not positive definite)."""
    n, kind = draw(st.integers(0, 8)), draw(st.sampled_from(("gram", "lowered", "random")))
    if kind == "random":
        upper = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n))
        return [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    b = draw(st.lists(entries, min_size=max(n - 1, 0), max_size=n + 1))
    a = [[sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)]
    if kind == "lowered" and n:
        k = draw(st.integers(0, n - 1))
        a[k][k] -= draw(st.integers(1, 40))
    return a


@given(symmetric_ints())
@settings(max_examples=300, deadline=None)
def test_minors_only_elimination_matches_sylvester_and_sympy(a):
    minors, none = linalg.sylvester(a, adjugate=False)
    pivots, adjugate = linalg.sylvester(a)
    assert none is None and minors == pivots  # the same minors, length and stop point
    expected = [int(sympy.Matrix(a)[:k, :k].det()) for k in range(1, len(a) + 1)]
    stop = next((k for k, m in enumerate(expected) if m <= 0), len(a) - 1)
    assert minors == expected[: stop + 1]
    assert (adjugate is not None) == all(m > 0 for m in expected)


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
        s, den = scaled(a)  # ints in, ints out: Pf(S / den) = Pf(S) / den^(n/2)
        pf = Q(linalg.pfaffian(s), den ** (n // 2))
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
                minor, den = scaled([[k[p - 1][q - 1] for q in index] for p in index])
                assert factorial(n) * Q(linalg.pfaffian(minor), den**n) == power.coefficient(index)


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
        assert _volume_form(alphas, dalpha, n) == reference.volume(alphas, dalpha, n)


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


def test_kernel_is_the_nullspace_over_one_denominator():
    rng = random.Random(1968)
    for _ in range(400):
        rows, cols, rank = rng.randint(0, 7), rng.randint(1, 8), rng.randint(0, 4)
        a = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
        b = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(cols)] for _ in range(rank)]
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] if rank else [0] * cols for row in a]
        if rng.random() < 0.3:  # full rank more often, zero columns too
            m = [[rng.choice((0, rng.randint(-5, 5))) for _ in range(cols)] for _ in range(rows)]
        basis, den = linalg.kernel(m, cols)
        assert [[Q(x, den) for x in v] for v in basis] == linalg.nullspace(m, cols)
        # both read rref_ints; sympy is the independent reference
        expected = sympy.Matrix(m).nullspace() if rows else sympy.eye(cols).columnspace()
        assert [[Q(x, den) for x in v] for v in basis] == [[Q(int(x.p), int(x.q)) for x in v] for v in expected]


def epsilon_cases():
    """(alg, kappa, reebs, J, epsilon, n) reaching every epsilon clause:
    rotated and scaled epsilons, conjugated ones (type), added terms (basic
    contraction or type), the Lie derivative on su(2) and sl(2,R), a closedness
    failure, transported frames and r-contact structures."""
    rng = random.Random(9)
    scales = list(PYTHAGOREAN_ROTATIONS) + [(Q(2), Q(0)), (Q(0), Q(-1, 3))]

    def contact_case(alg, alpha, J, eps):
        contact = check_contact(alg, alpha)
        return alg, contact.kappa, [contact.reeb], J, eps, contact.n

    for n in (1, 2, 3):
        alg, alpha, J, eps = heisenberg_ccy_data(n)
        for re, im in scales:
            yield contact_case(alg, alpha, J, eps.scale(re, im))
        yield contact_case(alg, alpha, J, eps.conjugate())
        for _ in range(4):
            yield contact_case(alg, alpha, J, eps + rand_form(rng, alg.dim, n, sparsity=rng.randint(1, 3)))
        if n < 3:
            for re, im in scales[1::2]:
                yield contact_case(*transported_data(rng, alg, alpha, J, eps.scale(re, im)))
    for spec in ("(23,-13,12)", "(-23,13,12)"):  # iota_R epsilon = 0, L_R epsilon != 0
        alg = parse_algebra(spec)
        for alpha in ("e3", "2*e3", "1/2*e3"):
            yield contact_case(alg, parse_form(alpha, 3), Endo.from_pairs(3, [(1, 2)]), parse_form("e1 + i*e2", 3))
    # basic and of type (2,0), but d epsilon = e1 ^ (e2 ^ e3 + ...) != 0
    alg = parse_algebra("(0,0,0,23,12+34)")
    eps = parse_form("(e1+i*e2)^(e3+i*e4)", 5)
    yield contact_case(alg, parse_form("2*e5", 5), Endo.from_pairs(5, [(1, 2), (3, 4)]), eps)
    r_contact = [kodaira_thurston_data()]
    r_contact.append((parse_algebra("(14,-24,12,0)"), [parse_form("2*e3", 4), parse_form("2*e3 + 2*e4", 4)],
                      Endo.from_pairs(4, [(1, 2)]), parse_form("e1 + i*e2", 4)))
    for alg, alphas, J, eps in r_contact:
        dalpha = alg.d(alphas[0])
        for re, im in scales[::2]:
            yield alg, dalpha * Q(1, 2), _solve_reeb(alphas, dalpha), J, eps.scale(re, im), (alg.dim - len(alphas)) // 2


@pytest.mark.parametrize("strict", [False, True])
def test_epsilon_clauses_match_the_fraction_reference(strict):
    seen = set()
    for alg, kappa, reebs, J, eps, n in epsilon_cases():
        expected = reference.epsilon_error(alg, kappa, reebs, J, eps, n, strict)
        try:
            _check_epsilon_clauses(alg, kappa, reebs, J, eps, n, strict)
            got = None
        except CCYError as exc:
            got = (exc.check, exc.witness)
        assert got == expected
        seen.add(got and (got[0], next(iter(got[1]))))
    assert seen >= {None, ("ccy.basic", "contraction"), ("ccy.basic", "lie_derivative"), ("ccy.type", "lhs"),
                    ("ccy.closed", "d_epsilon"), ("ccy.normalization", "lhs (epsilon ^ conj)")}


# The 5-dimensional nilpotent Lie algebras (de Graaf 2007); the filter
# obstructs none of their contact forms. It does obstruct on R^2 acting on
# h3: W = 0 on the first algebra, and q = 0 on a 2-dimensional W on the second.
NILPOTENT_5 = ("(0,0,0,0,0)", "(0,0,0,0,12)", "(0,0,0,12,13)", "(0,0,0,0,12+34)", "(0,0,0,12,14+23)",
               "(0,0,0,12,13+24)", "(0,0,12,13,14)", "(0,0,12,13,14+23)", "(0,0,12,13,23)")
SOLVABLE_5 = ("(0,0,-13-23,-14,-2*15-25+34)", "(0,0,-13-23,-14-24,-2*15-2*25+34)")


def filter_outcome(alg, alpha, closed=None):
    try:
        if closed is None:
            return reference.obstruction_filter(alg, alpha)
        return ccy_obstruction_filter(alg, alpha, closed)
    except NotContactError as exc:
        return exc.check, exc.witness


def test_obstruction_filter_matches_the_fraction_reference():
    rng = random.Random(2007)
    seen = set()
    for spec in NILPOTENT_5 + SOLVABLE_5:
        base = parse_algebra(spec)
        for _ in range(6):
            alg = change_of_basis(base, [list(col) for col in zip(*rand_unimodular(rng, 5))])
            closed = closed_two_forms(alg)
            for _ in range(4):
                alpha = KForm(5, 1, {(k,): Q(rng.randint(-3, 3), rng.randint(1, 3)) for k in range(1, 6)})
                expected = filter_outcome(alg, alpha)
                assert filter_outcome(alg, alpha, closed) == expected
                if isinstance(expected, tuple):
                    with pytest.raises(NotContactError):
                        ccy_obstruction_filter(alg, alpha)
                    seen.add("not contact")
                    continue
                assert ccy_obstruction_filter(alg, alpha).to_dict() == expected.to_dict()
                seen.add((spec in SOLVABLE_5, expected.obstructed, expected.space_dimension > 0))
    assert seen == {"not contact", (False, False, True), (True, True, False), (True, True, True)}


def contact_refusal(check, *args):
    """(check, witness) of the NotContactError that check(*args) raises, or None."""
    try:
        check(*args)
    except NotContactError as exc:
        return exc.check, exc.witness
    return None


def test_filter_refuses_exactly_the_alphas_check_contact_refuses():
    # the filter reads contact off its sign table, check_contact off the Reeb rank
    rng = random.Random(2012)
    seen = set()
    for spec in NILPOTENT_5 + SOLVABLE_5:
        base = parse_algebra(spec)
        for _ in range(5):
            alg = change_of_basis(base, [list(col) for col in zip(*rand_unimodular(rng, 5))])
            closed = closed_two_forms(alg)
            for _ in range(12):
                alpha = rand_form(rng, 5, 1, sparsity=rng.randint(1, 5))
                expected = contact_refusal(check_contact, alg, alpha)
                assert contact_refusal(ccy_obstruction_filter, alg, alpha, closed) == expected, (spec, str(alpha))
                seen.add((spec in SOLVABLE_5, expected is None))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_classify_guard_reuses_the_sample_at_the_ansatz_alpha(monkeypatch):
    calls = []
    real = classify.ccy_obstruction_filter

    def counted(alg, alpha, closed=None):
        calls.append(str(alpha))
        return real(alg, alpha, closed)

    monkeypatch.setattr(classify, "ccy_obstruction_filter", counted)
    entry = next(e for e in Catalog.default() if e.name == "n5_heis")
    report = classify_entry(entry, seed=0, random_samples=3)
    # one call per sampled alpha (non-contact ones included), none for the guard
    assert report.ccy_verified and calls[0] == "2*e5"
    assert calls == [str(alpha) for alpha in classify._sample_alphas(entry.algebra(), 0, 3)]
    # the guard keeps its meaning: an Obstructed verdict at the ansatz alpha raises
    obstructed = classify.ObstructionVerdict(obstructed=True, space_dimension=0, polynomial="0")
    monkeypatch.setattr(classify, "ccy_obstruction_filter", lambda *_: obstructed)
    with pytest.raises(ArithmeticError, match="where a structure verifies"):
        classify_entry(entry, seed=0, random_samples=0)
