import random
from fractions import Fraction as Q

import pytest

from nilgeo.algdsl import parse_algebra, parse_form
from nilgeo.cealg import LieAlgebra
from nilgeo.classify import Catalog
from nilgeo.curvature import (
    CurvatureReport,
    NotAlphaEinsteinError,
    check_alpha_einstein,
    levi_civita,
    ricci_scalar,
    transverse_ricci,
)
from nilgeo.errors import InputError
from nilgeo.exterior import KForm, Metric, Vector
from nilgeo.linalg import scaled
from nilgeo.models import heisenberg_ccy
from nilgeo.structures import xi_basis

from . import fraction_curvature as reference

H3 = parse_algebra("(0,0,12)")
G_CCY = Metric.diagonal([1, 1, 4])


def test_koszul_heisenberg_values():
    conn = levi_civita(H3, G_CCY)
    assert reference.nabla_basis(conn, 1, 2) == Q(-1, 2) * Vector.basis(3, 3)
    assert reference.nabla_basis(conn, 1, 1).is_zero
    assert reference.nabla_basis(conn, 2, 1) == Q(1, 2) * Vector.basis(3, 3)
    assert reference.nabla_basis(conn, 1, 3) == 2 * Vector.basis(3, 2)
    assert reference.nabla_basis(conn, 2, 3) == -2 * Vector.basis(3, 1)


def test_koszul_abelian_flat():
    conn = levi_civita(LieAlgebra.abelian(4), Metric.diagonal([2, 1, 3, 5]))
    assert all(
        reference.nabla_basis(conn, i, j).is_zero for i in range(1, 5) for j in range(1, 5)
    )


def test_koszul_rejects_degenerate_metric():
    with pytest.raises(InputError):
        levi_civita(H3, Metric.diagonal([1, 1, 0]))


def test_ricci_heisenberg_ccy_metric():
    report = ricci_scalar(H3, G_CCY)
    assert [str(report.ricci[i][i]) for i in range(3)] == ["-2", "-2", "8"]
    assert all(report.ricci[i][j] == 0 for i in range(3) for j in range(3) if i != j)
    assert report.scalar == -2


def test_ricci_five_dim():
    alg = parse_algebra("(0,0,0,0,12+34)")
    report = ricci_scalar(alg, Metric.diagonal([1, 1, 1, 1, 4]))
    assert [str(report.ricci[i][i]) for i in range(5)] == ["-2", "-2", "-2", "-2", "16"]
    assert report.scalar == -4


def test_ricci_abelian_flat():
    report = ricci_scalar(LieAlgebra.abelian(3), Metric.diagonal([1, 2, 3]))
    assert all(not x for row in report.ricci for x in row)
    assert report.scalar == 0


def test_alpha_einstein_constants():
    lam, nu = check_alpha_einstein(ricci_scalar(H3, G_CCY), G_CCY, parse_form("2*e3", 3))
    assert (lam, nu) == (-2, 4)
    alg5 = parse_algebra("(0,0,0,0,12+34)")
    g5 = Metric.diagonal([1, 1, 1, 1, 4])
    lam5, nu5 = check_alpha_einstein(ricci_scalar(alg5, g5), g5, parse_form("2*e5", 5))
    assert (lam5, nu5) == (-2, 6)


def test_alpha_einstein_unit_round_heisenberg():
    g = Metric.identity(3)
    lam, nu = check_alpha_einstein(ricci_scalar(H3, g), g, parse_form("e3", 3))
    assert (lam, nu) == (Q(-1, 2), 1)


def test_not_alpha_einstein_with_wrong_direction():
    # Ric of the reference metric is alpha-Einstein only along e3
    with pytest.raises(NotAlphaEinsteinError):
        check_alpha_einstein(ricci_scalar(H3, G_CCY), G_CCY, parse_form("e1", 3))


def test_riemann_first_bianchi_on_reference():
    conn = levi_civita(H3, G_CCY)
    basis = [Vector.basis(3, i) for i in range(1, 4)]
    for x in basis:
        for y in basis:
            for z in basis:
                total = (
                    reference.riemann(conn, x, y, z)
                    + reference.riemann(conn, y, z, x)
                    + reference.riemann(conn, z, x, y)
                )
                assert total.is_zero


def test_transverse_ricci_vanishes_on_ccy():
    for n in (1, 2, 3):
        structure = heisenberg_ccy(n)
        report = transverse_ricci(structure)
        assert report.is_zero
        assert report.ric_t == reference.ricci_identity(structure)
        assert all(not x for row in report.rho_t for x in row)


def test_transverse_ricci_accepts_sasakian_result():
    from nilgeo.algdsl import parse_endo
    from nilgeo.structures import check_contact, check_sasakian

    sasakian = check_sasakian(
        check_contact(H3, parse_form("2*e3", 3)), parse_endo("pairs:(1,2)", 3)
    )
    report = transverse_ricci(sasakian)
    assert report.is_zero
    assert report.ric_t == transverse_ricci(heisenberg_ccy(1)).ric_t


def test_transverse_parallelism_suite():
    report = transverse_ricci(heisenberg_ccy(2))
    assert report.parallel_j
    assert report.parallel_g_j
    assert report.parallel_d_alpha
    assert report.torsion_matches_bracket


def test_transverse_consistency_identity_value():
    # Ric^T = Ric + 2g on the distribution: -2 + 2*1 = 0 entrywise
    structure = heisenberg_ccy(1)
    full = ricci_scalar(structure.alg, structure.metric)
    for v in xi_basis(structure.alg, [structure.contact.alpha]):
        ric_vv = sum(
            full.ricci[i][j] * v[i] * v[j] for i in range(3) for j in range(3)
        )
        assert ric_vv + 2 * structure.metric.bilinear(v, v) == 0


def milnor_ricci(alg, g):
    """Ricci tensor of a nilpotent metric Lie algebra from its structure
    constants alone (Milnor 1976), with inverse-metric contractions in place of
    an orthonormal basis:

    Ric(X, Y) = -1/2 sum g^ka g^lb g([X,e_k],e_l) g([Y,e_a],e_b)
                + 1/4 sum g^ka g^lb g([e_k,e_l],X) g([e_a,e_b],Y)
    """
    n = alg.dim
    ginv = g.inverse_matrix()
    basis = [Vector.basis(n, i) for i in range(1, n + 1)]
    bracket = [[alg.bracket_basis(k, l) for l in range(1, n + 1)] for k in range(1, n + 1)]
    # ad[i][k][l] = g([X_i, e_k], e_l), dual[i][k][l] = g([e_k, e_l], X_i)
    ad = [[[g.bilinear(bracket[i][k], basis[l]) for l in range(n)] for k in range(n)] for i in range(n)]
    dual = [[[g.bilinear(bracket[k][l], basis[i]) for l in range(n)] for k in range(n)] for i in range(n)]

    def pair(p, q):
        return sum(
            (
                ginv[k][a] * ginv[l][b] * p[k][l] * q[a][b]
                for k in range(n)
                for a in range(n)
                if ginv[k][a]
                for l in range(n)
                if p[k][l]
                for b in range(n)
                if ginv[l][b] and q[a][b]
            ),
            Q(0),
        )

    return tuple(
        tuple(-pair(ad[i], ad[j]) / 2 + pair(dual[i], dual[j]) / 4 for j in range(n))
        for i in range(n)
    )


def random_rational_metric(rng, n, den=3):
    """L D L^T with L unit lower triangular and D positive, both rational
    with denominators up to den."""
    low = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            low[i][j] = Q(rng.randint(-3, 3), rng.randint(1, den))
    diag = [Q(rng.randint(1, 4), rng.randint(1, den)) for _ in range(n)]
    return Metric(
        [[sum(low[i][k] * diag[k] * low[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    )


MILNOR_CATALOG = [entry.algebra() for entry in Catalog.default()] + [
    parse_algebra(spec)
    for spec in ("(0,0,12)", "(0,0,12,0)", "(0,0,12,13)", "(0,0,12,13,14,15)", "(0,0,12,0,0,45)")
]


def test_ricci_matches_milnor_oracle_on_nilpotent_catalog():
    rng = random.Random(1976)
    for alg in MILNOR_CATALOG:
        assert alg.dim <= 6 and alg.is_nilpotent()
        for _ in range(8):
            g = random_rational_metric(rng, alg.dim)
            assert ricci_scalar(alg, g).ricci == milnor_ricci(alg, g)


@pytest.mark.parametrize("spec, sign", [("(23,-13,12)", 1), ("(-23,13,12)", -1)])
def test_transverse_ricci_on_su2_and_sl2(spec, sign):
    # alpha = e3 and J = pairs:(1,2) are Sasakian on su(2) and on sl(2,R) with
    # an elliptic Reeb field; g = diag(1/2, 1/2, 1), and on the frame X1, X2
    # of the contact distribution ric_t = 2 sign g, by both computations
    from nilgeo.algdsl import parse_endo
    from nilgeo.structures import check_contact, check_sasakian, induced_metric

    alg = parse_algebra(spec)
    sasakian = check_sasakian(check_contact(alg, parse_form("e3", 3)), parse_endo("pairs:(1,2)", 3))
    report = transverse_ricci(sasakian)
    assert report.frame == (Vector.basis(3, 1), Vector.basis(3, 2))
    g = induced_metric(sasakian.g_j, sasakian.contact.alpha)
    expected = tuple(tuple(2 * sign * x for x in row) for row in g.restrict(report.frame))
    assert report.ric_t == reference.ricci_identity(sasakian) == expected
    assert report.parallel_j and report.parallel_g_j and report.torsion_matches_bracket


# -- fraction-free kernels against the per-entry Fraction reference ----------

from nilgeo import linalg
import json

from nilgeo.algdsl import parse_endo, serialize_algebra
from nilgeo.cealg import change_of_basis
from nilgeo.cli import main
from nilgeo.curvature import _preserves
from nilgeo.exterior import Endo, pullback
from nilgeo.models import heisenberg_ccy_data
from nilgeo.structures import check_ccy, check_contact, check_sasakian

from .test_properties import rand_rational_frame


def transported_data(rng, alg, alpha, J, epsilon=None):
    """Structure data rewritten in a random rational frame: alpha, J (and
    epsilon) become rational, not integral."""
    cols = rand_rational_frame(rng, alg.dim)
    frame = [Vector(col) for col in cols]
    p = [list(row) for row in zip(*cols)]
    jp = Endo(linalg.inverse(p)).matrix
    j_new = [[sum(jp[i][k] * J.matrix[k][l] * p[l][j] for k in range(alg.dim) for l in range(alg.dim))
              for j in range(alg.dim)] for i in range(alg.dim)]
    epsilon = None if epsilon is None else pullback(epsilon, frame)
    return change_of_basis(alg, cols), pullback(alpha, frame), Endo(j_new), epsilon


def transport(rng, alg, alpha, J, epsilon=None):
    """transported_data verified as CCY with epsilon, else as Sasakian."""
    alg, alpha, J, epsilon = transported_data(rng, alg, alpha, J, epsilon)
    contact = check_contact(alg, alpha)
    return check_sasakian(contact, J) if epsilon is None else check_ccy(contact, J, epsilon)


SU2_SL2 = [parse_algebra("(23,-13,12)"), parse_algebra("(-23,13,12)")]


def test_connection_and_ricci_match_the_fraction_reference():
    rng = random.Random(7)
    algebras = [entry.algebra() for entry in Catalog.default()] + SU2_SL2
    algebras += [change_of_basis(parse_algebra(spec), rand_rational_frame(rng, spec.count(",") + 1))
                 for spec in ("(0,0,12)", "(0,0,0,0,12+34)", "(0,0,12,13,14+23)", "(23,-13,12)")]
    for alg in algebras:
        for _ in range(3):
            g = random_rational_metric(rng, alg.dim, den=6)
            assert levi_civita(alg, g).gamma == reference.gamma_table(alg, g)
            assert ricci_scalar(alg, g) == reference.ricci_report(alg, g)


def test_transverse_ricci_matches_the_fraction_reference():
    # R is central on the Heisenberg structures and ric_t = 0 there; su(2) and
    # sl(2,R) give a non-central R and ric_t != 0, with alpha = c e3 so that
    # alpha and R have denominators, and in rational frames so that the frame
    # of the contact distribution has denominators too
    rng = random.Random(11)
    sasakian = [
        (alg, parse_form(alpha, 3), parse_endo("pairs:(1,2)", 3))
        for alg in SU2_SL2
        for alpha in ("e3", "2*e3", "1/2*e3")
    ]
    transported = [transport(rng, *heisenberg_ccy_data(n)) for n in (1, 1, 2)]
    transported += [transport(rng, *data) for data in sasakian[::2]]
    frames = [transverse_ricci(s).frame for s in transported[3:]]
    assert any(x.denominator > 1 for frame in frames for f in frame for x in f.coeffs)
    structures = [heisenberg_ccy(n) for n in (1, 2, 3, 4)] + transported
    structures += [check_sasakian(check_contact(alg, alpha), J) for alg, alpha, J in sasakian]
    for structure in structures:
        assert transverse_ricci(structure) == reference.transverse_report(structure)


def test_preservation_check_matches_the_reference_on_every_pair():
    # symmetric and antisymmetric B; the diagonal pairs x == y count too
    rng = random.Random(3)
    for sign in (1, -1) * 20:
        n, k = rng.randint(2, 4), rng.randint(1, 3)
        upper = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        matrix = [[upper[min(i, j)][max(i, j)] * (sign if i > j else 1) for j in range(n)] for i in range(n)]
        if sign < 0:
            matrix = [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(matrix)]
        frame = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(k)]
        moved = [[[rng.choice((0, 0, 1, -1)) for _ in range(n)] for _ in range(k)] for _ in range(2)]
        assert sparse_preserves(matrix, frame, moved) == reference._preserves(matrix, frame, moved)
    assert not sparse_preserves([[1, 0], [0, 1]], [[1, 0], [0, 1]], [[[1, 0], [0, 0]]])


def sparse_preserves(matrix, frame, moved):
    """_preserves on the sparse rows, frame and moved vectors of dense ones."""
    def sparse(v):
        return {k: x for k, x in enumerate(v) if x}

    rows, frame = [sparse(row) for row in matrix], [sparse(f) for f in frame]
    return _preserves(rows, frame, [[sparse(v) for v in d] for d in moved])


def test_alpha_einstein_matches_the_solve_reference():
    # alpha-Einstein Ricci tables (sometimes with one entry perturbed) and
    # arbitrary symmetric ones, on positive metrics, degenerate forms and
    # alphas with zero entries; the CCY structures give the shipped constants
    rng = random.Random(13)
    cases = []
    for s in map(heisenberg_ccy, (1, 2, 3)):
        cases.append((ricci_scalar(s.alg, s.metric), s.metric, s.contact.alpha))
    for _ in range(400):
        n = rng.randint(1, 4)
        g = random_rational_metric(rng, n, den=4) if rng.random() < 0.7 else Metric(rand_symmetric(rng, n))
        alpha = KForm(n, 1, {(k,): Q(rng.randint(-2, 2), rng.randint(1, 3)) for k in range(1, n + 1)})
        cov = [alpha.coefficient((k,)) for k in range(1, n + 1)]
        if rng.random() < 0.6:
            lam, nu = Q(rng.randint(-3, 3), rng.randint(1, 4)), Q(rng.randint(-3, 3), rng.randint(1, 4))
            ric = [[lam * g.matrix[i][j] + nu * cov[i] * cov[j] for j in range(n)] for i in range(n)]
            if rng.random() < 0.3:
                i, j = rng.randrange(n), rng.randrange(n)
                ric[i][j] = ric[j][i] = ric[i][j] + 1
        else:
            ric = rand_symmetric(rng, n)
        cases.append((CurvatureReport(scaled(ric), Q(0)), g, alpha))
    verdicts = []
    for report, g, alpha in cases:
        expected = reference.alpha_einstein(report, g, alpha)
        verdicts.append(expected is None)
        try:
            assert check_alpha_einstein(report, g, alpha) == expected
        except NotAlphaEinsteinError as exc:
            assert expected is None
            assert exc.witness == {"ricci": str([[str(x) for x in row] for row in report.ricci]),
                                   "note": "no constants (lambda, nu) reproduce Ric exactly"}
    assert 0 < sum(verdicts) < len(verdicts)


def rand_symmetric(rng, n):
    upper = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) * rng.choice((0, 1, 1)) for _ in range(n)] for _ in range(n)]
    return [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def test_wrong_inverse_metric_trips_the_torsion_guard(monkeypatch):
    inverse = Metric.inverse
    monkeypatch.setattr(Metric, "inverse", lambda g: ([[2 * x for x in row] for row in inverse(g)[0]], inverse(g)[1]))
    with pytest.raises(ArithmeticError, match="torsion"):
        levi_civita(H3, G_CCY)


def test_inverse_metric_wrong_off_the_brackets_trips_the_metric_guard(monkeypatch):
    # right on X3, which spans the brackets of H3, so the torsion guard passes
    monkeypatch.setattr(Metric, "inverse", lambda g: ([[8, 0, 0], [0, 4, 0], [0, 0, 1]], 4))
    with pytest.raises(ArithmeticError, match="not metric"):
        levi_civita(H3, G_CCY)


def test_wrong_ricci_report_trips_the_transverse_guard():
    structure = heisenberg_ccy(1)
    wrong = ricci_scalar(structure.alg, Metric.identity(3))
    with pytest.raises(ArithmeticError, match="disagree"):
        transverse_ricci(structure, full=wrong)


# -- the sparse kernels on the input shapes of the curvature benchmark --------

# epsilon rotated by (a + b i) / c, the Pythagorean triples the benchmark draws
EPSILON_ROTATIONS = ((3, 4, 5), (4, 3, 5), (5, 12, 13), (12, 5, 13), (8, 15, 17), (15, 8, 17))


def heisenberg_argv(n, rotation):
    """The curvature argv of the standard structure on H_{2n+1}, epsilon rotated."""
    a, b, c = rotation
    eps = "^".join(f"(e{2 * k - 1}+i*e{2 * k})" for k in range(1, n + 1))
    return [
        "curvature",
        "--algebra=(" + ",".join(["0"] * (2 * n) + ["+".join(f"{2 * k - 1}{2 * k}" for k in range(1, n + 1))]) + ")",
        f"--alpha=2*e{2 * n + 1}",
        "--J=pairs:" + ",".join(f"({2 * k - 1},{2 * k})" for k in range(1, n + 1)),
        f"--epsilon=({a}/{c}+{b}/{c}*i)*({eps})",
    ]


def structure_argv(alg, alpha, J, epsilon):
    return ["curvature", f"--algebra={serialize_algebra(alg)}", f"--alpha={alpha}",
            "--J=matrix:" + json.dumps([[str(x) for x in row] for row in J.matrix]), f"--epsilon={epsilon}"]


def benchmark_metric(rng, dim):
    """L D L^T with two entries of L below the diagonal drawn from +-1, +-1/2
    and D from 1, 2, 3, 1/2: the shape of the benchmark's seeded metrics."""
    low = [[Q(int(i == j)) for j in range(dim)] for i in range(dim)]
    for i, j in rng.sample([(i, j) for i in range(dim) for j in range(i)], 2):
        low[i][j] = rng.choice((Q(1), Q(-1), Q(1, 2), Q(-1, 2)))
    diag = [rng.choice((Q(1), Q(2), Q(3), Q(1, 2))) for _ in range(dim)]
    return [[sum(low[i][k] * diag[k] * low[j][k] for k in range(dim)) for j in range(dim)] for i in range(dim)]


def reference_checks(alg, g, alpha=None, structure=None) -> list:
    """The checks of a `curvature` report, from the Fraction reference kernels."""
    ric = reference.ricci_report(alg, g)
    checks = [{"name": "curvature", "ricci": [[str(x) for x in row] for row in ric.ricci], "scalar": str(ric.scalar)}]
    if alpha is not None:
        lam, nu = reference.alpha_einstein(ric, g, alpha)
        checks.append({"name": "alpha_einstein", "verdict": "pass", "lambda": str(lam), "nu": str(nu)})
    if structure is not None:
        t = reference.transverse_report(structure)
        checks.append({
            "name": "transverse_ricci_zero", "verdict": "pass" if t.is_zero else "fail",
            "ric_t": [[str(x) for x in row] for row in t.ric_t], "rho_t": [[str(x) for x in row] for row in t.rho_t],
            "parallel_J": t.parallel_j, "parallel_g_J": t.parallel_g_j, "parallel_d_alpha": t.parallel_d_alpha,
        })
    return checks


def curvature_checks(capsys, argv) -> list:
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == (0 if report["status"] == "pass" else 1), argv
    return report["checks"]


def test_sparse_kernels_match_the_reference_on_the_benchmark_shapes(capsys):
    # the structure requests: Heisenberg n = 1..3 under every epsilon rotation
    for n in (1, 2, 3):
        for rotation in EPSILON_ROTATIONS:
            argv = heisenberg_argv(n, rotation)
            alg = parse_algebra(argv[1].partition("=")[2])
            alpha = parse_form(argv[2].partition("=")[2], alg.dim)
            J = parse_endo(argv[3].partition("=")[2], alg.dim)
            structure = check_ccy(check_contact(alg, alpha), J, parse_form(argv[4].partition("=")[2], alg.dim))
            assert transverse_ricci(structure) == reference.transverse_report(structure)
            assert curvature_checks(capsys, argv) == reference_checks(alg, structure.metric, alpha, structure)
    # the metric requests: seeded L D L^T metrics on H3, H5, H7 and F4..F7
    rng = random.Random(16)
    specs = ["(0,0,12)", "(0,0,0,0,12+34)", "(0,0,0,0,0,0,12+34+56)"]
    specs += ["(0,0," + ",".join(f"1{k - 1}" for k in range(3, m + 1)) + ")" for m in (4, 5, 6, 7)]
    for spec in specs:
        alg = parse_algebra(spec)
        for _ in range(3):
            entries = benchmark_metric(rng, alg.dim)
            g = Metric(entries)
            assert levi_civita(alg, g).gamma == reference.gamma_table(alg, g)
            metric = json.dumps([[str(x) for x in row] for row in entries])
            argv = ["curvature", f"--algebra={spec}", f"--metric={metric}"]
            assert curvature_checks(capsys, argv) == reference_checks(alg, g)
    # the structures carried into dense rational frames, where every cell is full
    for n in (1, 2, 3):
        alg, alpha, J, epsilon = transported_data(rng, *heisenberg_ccy_data(n))
        structure = check_ccy(check_contact(alg, alpha), J, epsilon)
        assert sum(len(cell) for row in levi_civita(alg, structure.metric).num for cell in row.values()) > alg.dim**2
        assert transverse_ricci(structure) == reference.transverse_report(structure)
        checks = curvature_checks(capsys, structure_argv(alg, alpha, J, epsilon))
        assert checks == reference_checks(alg, structure.metric, alpha, structure)


# A solvable contact Calabi-Yau structure with a nonzero transverse connection:
# X1 turns (X3, X4) and (X5, X6) opposite ways, so epsilon stays closed. On the
# Heisenberg algebras the transverse connection is zero in every invariant
# frame (the transverse algebra is abelian), so there `_preserves` never
# evaluates a form and parallel_g_J, parallel_d_alpha hold vacuously.
TURNING_CCY = ("(0,0,14,-13,-16,15,12+34+56)", "2*e7", "pairs:(1,2),(3,4),(5,6)", "(e1+i*e2)^(e3+i*e4)^(e5+i*e6)")


def test_curvature_report_evaluates_the_preservation_forms(capsys, monkeypatch):
    from nilgeo import curvature

    calls = []
    form = curvature._form

    def counting(*args):
        calls.append(args)
        return form(*args)

    monkeypatch.setattr(curvature, "_form", counting)
    spec, alpha, J, epsilon = TURNING_CCY
    alg = parse_algebra(spec)
    data = (alg, parse_form(alpha, alg.dim), parse_endo(J, alg.dim), parse_form(epsilon, alg.dim))
    for alg, alpha, J, epsilon in (data, transported_data(random.Random(18), *data)):
        structure = check_ccy(check_contact(alg, alpha), J, epsilon)
        calls.clear()
        checks = curvature_checks(capsys, structure_argv(alg, alpha, J, epsilon))
        assert calls
        assert checks == reference_checks(alg, structure.metric, alpha, structure)
