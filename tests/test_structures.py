import random
from fractions import Fraction as Q

import pytest

from nilgeo.algdsl import parse_algebra, parse_endo, parse_form
from nilgeo.cealg import LieAlgebra
from nilgeo.errors import CheckError, InputError
from nilgeo.exterior import ComplexKForm, Endo, KForm, Vector
from nilgeo.models import heisenberg_ccy_data
from nilgeo.structures import (
    CCYError,
    NotCalibratedError,
    NotContactError,
    NotSasakianError,
    check_calibrated_complex,
    check_ccy,
    check_contact,
    check_hypo,
    check_r_contact_ccy,
    check_sasakian,
    nijenhuis_tensor,
    volume_constant,
)

from .fraction_structures import kodaira_thurston_data
from .test_properties import rand_algebra

H3 = parse_algebra("(0,0,12)")
A5 = parse_algebra("(0,0,0,0,12+34)")
ALPHA3 = parse_form("2*e3", 3)
ALPHA5 = parse_form("2*e5", 5)
J3 = parse_endo("pairs:(1,2)", 3)
J5 = parse_endo("pairs:(1,2),(3,4)", 5)
EPS3 = parse_form("e1 + i*e2", 3)
EPS5 = parse_form("(e1+i*e2)^(e3+i*e4)", 5)


def test_check_contact_heisenberg():
    contact = check_contact(H3, ALPHA3)
    assert contact.reeb == Q(1, 2) * Vector.basis(3, 3)
    assert contact.kappa == KForm.monomial(3, (1, 2))


def test_check_contact_five_dim():
    contact = check_contact(A5, ALPHA5)
    assert contact.reeb == Q(1, 2) * Vector.basis(5, 5)
    assert contact.kappa == KForm(5, 2, {(1, 2): 1, (3, 4): 1})


def test_check_contact_abelian_fails():
    with pytest.raises(NotContactError):
        check_contact(LieAlgebra.abelian(3), KForm.monomial(3, (3,)))


def test_check_contact_even_dimension_rejected():
    with pytest.raises(InputError):
        check_contact(LieAlgebra.abelian(4), KForm.monomial(4, (1,)))


def test_reeb_properties():
    for alg, alpha in ((H3, ALPHA3), (A5, ALPHA5)):
        contact = check_contact(alg, alpha)
        dalpha = alg.d(alpha)
        from nilgeo.exterior import contract, evaluate

        assert evaluate(alpha, [contact.reeb]) == 1
        assert contract(contact.reeb, dalpha).is_zero
        assert contact.kappa == Q(1, 2) * dalpha


def test_calibrated_heisenberg_metric():
    contact = check_contact(H3, ALPHA3)
    g_j = check_calibrated_complex(contact, J3)
    assert [list(map(str, row)) for row in g_j.matrix] == [
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["0", "0", "0"],
    ]


def test_calibrated_flipped_pair_fails_negative():
    contact = check_contact(H3, ALPHA3)
    with pytest.raises(NotCalibratedError) as err:
        check_calibrated_complex(contact, parse_endo("pairs:(2,1)", 3))
    assert err.value.check == "calibrated.positive"
    assert err.value.witness["g(v,v)"] == "-1"


def test_calibrated_wrong_pairing_fails_degenerate():
    contact = check_contact(A5, ALPHA5)
    with pytest.raises(NotCalibratedError) as err:
        check_calibrated_complex(contact, parse_endo("pairs:(1,3),(2,4)", 5))
    assert err.value.check == "calibrated.positive"


def test_calibrated_requires_j_reeb_zero():
    contact = check_contact(H3, ALPHA3)
    bad = Endo([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(NotCalibratedError) as err:
        check_calibrated_complex(contact, bad)
    assert err.value.check in ("calibrated.J_reeb", "calibrated.J_square")


def test_nijenhuis_values():
    nij = nijenhuis_tensor(J3, H3)
    assert nij[(1, 2)] == -Vector.basis(3, 3)
    assert nij[(1, 3)].is_zero


def test_nijenhuis_rejects_mismatched_dimension():
    with pytest.raises(InputError):
        nijenhuis_tensor(J3, A5)


def test_nijenhuis_vanishes_on_abelian():
    ab = LieAlgebra.abelian(4)
    nij = nijenhuis_tensor(Endo.from_pairs(4, [(1, 2), (3, 4)]), ab)
    assert all(v.is_zero for v in nij.values())


def test_sasakian_examples():
    for alg, alpha, J in ((H3, ALPHA3, J3), (A5, ALPHA5, J5)):
        contact = check_contact(alg, alpha)
        sasakian = check_sasakian(contact, J)
        assert sasakian.contact is contact and sasakian.J is J
        assert sasakian.g_j == check_calibrated_complex(contact, J)


def test_sasakian_fails_at_calibration_stage_for_bad_j():
    contact = check_contact(A5, ALPHA5)
    with pytest.raises(NotCalibratedError):
        check_sasakian(contact, parse_endo("pairs:(1,3),(2,4)", 5))


def test_sasakian_failure_reports_pair():
    # calibration holds (kappa is unchanged) but the extra bracket
    # [X1, X3] = -X4 breaks the Nijenhuis condition at (X1, X3)
    alg = parse_algebra("(0,0,0,13,12+34)")
    contact = check_contact(alg, ALPHA5)
    with pytest.raises(NotSasakianError) as err:
        check_sasakian(contact, parse_endo("pairs:(1,2),(3,4)", 5))
    assert err.value.check == "sasakian.nijenhuis"
    assert err.value.witness["pair"] == "(X1,X3)"
    assert err.value.witness["nijenhuis"] == "X4"
    assert err.value.failures[0] == err.value.witness


def test_volume_constant_values():
    assert volume_constant(1) == (Q(0), Q(-2))  # -2i
    assert volume_constant(2) == (Q(4), Q(0))  # 4
    assert volume_constant(3) == (Q(0), Q(-8))  # -8i


def test_ccy_heisenberg():
    structure = check_ccy(check_contact(H3, ALPHA3), J3, EPS3)
    assert structure.epsilon.wedge(structure.epsilon.conjugate()) == ComplexKForm(
        KForm.zero(3, 2), KForm.monomial(3, (1, 2), -2)
    )
    assert [str(structure.metric.matrix[i][i]) for i in range(3)] == ["1", "1", "4"]


def test_ccy_five_dimensional():
    structure = check_ccy(check_contact(A5, ALPHA5), J5, EPS5)
    product = structure.epsilon.wedge(structure.epsilon.conjugate())
    assert product.im.is_zero
    assert product.re == KForm.monomial(5, (1, 2, 3, 4), 4)


def test_ccy_scaled_epsilon_fails_normalization():
    contact = check_contact(A5, ALPHA5)
    with pytest.raises(CCYError) as err:
        check_ccy(contact, J5, EPS5.scale(2))
    assert err.value.check == "ccy.normalization"
    assert err.value.witness["ratio_rhs_over_lhs"] == "1/4"


def test_ccy_normalization_strict_vs_factorial():
    contact = check_contact(A5, ALPHA5)
    assert check_ccy(contact, J5, EPS5) is not None
    with pytest.raises(CCYError) as err:
        check_ccy(contact, J5, EPS5, strict_def31=True)
    assert err.value.check == "ccy.normalization"
    # the strict reading fails by exactly the factor n! = 2
    assert err.value.witness["ratio_rhs_over_lhs"] == "2"


def test_ccy_strict_agrees_for_n_equal_one():
    structure = check_ccy(check_contact(H3, ALPHA3), J3, EPS3, strict_def31=True)
    assert structure is not None


def test_ccy_invariants_closed_and_orthogonal():
    for n, (alg, alpha, J, eps) in (
        (1, heisenberg_ccy_data(1)),
        (2, heisenberg_ccy_data(2)),
        (3, heisenberg_ccy_data(3)),
    ):
        structure = check_ccy(check_contact(alg, alpha), J, eps)
        dalpha = alg.d(alpha)
        assert alg.d(structure.epsilon.re).is_zero
        assert alg.d(structure.epsilon.im).is_zero
        assert structure.epsilon.re.wedge(dalpha).is_zero
        assert structure.epsilon.im.wedge(dalpha).is_zero
        assert structure.epsilon.wedge(structure.epsilon).is_zero


def test_ccy_phase_rotation_invariance():
    contact = check_contact(H3, ALPHA3)
    for c, s in ((Q(4, 5), Q(3, 5)), (Q(5, 13), Q(12, 13)), (Q(0), Q(1))):
        assert check_ccy(contact, J3, EPS3.scale(c, s)) is not None
    contact5 = check_contact(A5, ALPHA5)
    assert check_ccy(contact5, J5, EPS5.scale(Q(3, 5), Q(4, 5))) is not None


def test_ccy_non_basic_epsilon_fails():
    contact = check_contact(H3, ALPHA3)
    bad = ComplexKForm(KForm.monomial(3, (3,)), KForm.monomial(3, (2,)))
    with pytest.raises(CCYError) as err:
        check_ccy(contact, J3, bad)
    assert err.value.check in ("ccy.basic", "ccy.type")


def test_hypo_ccy_induced_passes():
    contact = check_contact(A5, ALPHA5)
    result = check_hypo(ALPHA5, contact.kappa, EPS5.re, EPS5.im, A5)
    assert result.ok
    assert result.structure is not None


def test_hypo_cross_product_vanishes():
    # omega2 ^ omega3 = (e13 - e24) ^ (e14 + e23) = 0
    assert EPS5.re.wedge(EPS5.im).is_zero


def test_hypo_permuted_fails_at_closedness():
    contact = check_contact(A5, ALPHA5)
    result = check_hypo(ALPHA5, EPS5.re, contact.kappa, EPS5.im, A5)
    assert not result.ok
    failing = result.failing()
    assert any(c.name == "hypo.3.closedness" for c in failing)
    closed = next(c for c in failing if c.name == "hypo.3.closedness")
    assert closed.detail["d(omega2^alpha)"] == "4*e1234"


def test_hypo_wrong_dimension_rejected():
    with pytest.raises(InputError):
        check_hypo(ALPHA3, KForm.zero(3, 2), KForm.zero(3, 2), KForm.zero(3, 2), H3)


def test_rccy_kodaira_thurston():
    alg, alphas, J, eps = kodaira_thurston_data()
    result = check_r_contact_ccy(alg, alphas, J, eps)
    assert result.ok
    assert result.structure.reebs == (
        Vector([0, 0, Q(1, 2), Q(-1, 2)]),
        Vector([0, 0, 0, Q(1, 2)]),
    )


def test_rccy_r1_reduction_matches_ccy():
    result = check_r_contact_ccy(H3, [ALPHA3], J3, EPS3)
    assert result.ok
    assert [c.name for c in result.clauses] == [
        "rccy.equal_differentials", "rccy.volume", "rccy.reeb_family",
        "rccy.calibrated", "rccy.sasakian", "rccy.epsilon"]
    # a failing input gives the same clause and witness on both paths: a
    # wrong normalization, and a calibrated J that is not normal
    not_normal = parse_algebra("(0,0,0,13,12+34)")
    for alg, alpha, J, eps in ((H3, ALPHA3, J3, EPS3.scale(2)), (not_normal, ALPHA5, J5, EPS5)):
        (failed,) = check_r_contact_ccy(alg, [alpha], J, eps).failing()
        with pytest.raises(CheckError) as err:
            check_ccy(check_contact(alg, alpha), J, eps)
        assert (failed.name, failed.detail) == (err.value.check, err.value.witness)


def test_rccy_duplicate_alpha_fails_volume():
    alg, alphas, J, eps = kodaira_thurston_data()
    result = check_r_contact_ccy(alg, [alphas[0], alphas[0]], J, eps)
    assert not result.ok
    assert result.failing()[0].name == "rccy.volume"


def test_rccy_basic_needs_a_vanishing_lie_derivative_for_every_r():
    # de1 = e14, de2 = -e24: iota_R (e1 + i e2) = 0 for both Reeb fields, but
    # L_R2 epsilon = iota_R2 d epsilon != 0 with R2 = 1/2 X4
    alg = parse_algebra("(14,-24,12,0)")
    alphas = [parse_form("2*e3", 4), parse_form("2*e3 + 2*e4", 4)]
    result = check_r_contact_ccy(alg, alphas, parse_endo("pairs:(1,2)", 4),
                                 parse_form("e1 + i*e2", 4))
    assert [c.name for c in result.clauses][:-1] == [
        "rccy.equal_differentials", "rccy.volume", "rccy.reeb_family", "rccy.calibrated"]
    (failed,) = result.failing()
    assert failed.name == "ccy.basic" and "lie_derivative" in failed.detail


def test_rccy_unequal_differentials_detected():
    alg = parse_algebra("(0,0,12,0)")
    a1 = parse_form("2*e3", 4)
    a2 = parse_form("2*e4", 4)
    result = check_r_contact_ccy(alg, [a1, a2], parse_endo("pairs:(1,2)", 4),
                                 parse_form("e1 + i*e2", 4))
    assert not result.ok
    assert result.failing()[0].name == "rccy.equal_differentials"


def test_sasakian_basis_independence():
    # conjugate by a unimodular integer change of frame and re-run
    from nilgeo import linalg
    from nilgeo.cealg import change_of_basis
    from nilgeo.exterior import pullback

    p = [[1, 0, 0], [1, 1, 0], [0, 2, 1]]  # det 1
    cols = [Vector([p[i][j] for i in range(3)]) for j in range(3)]
    conjugated = change_of_basis(H3, [list(c.coeffs) for c in cols])
    pinv = linalg.inverse(p)
    alpha_new = pullback(ALPHA3, cols)
    j_new = Endo(
        [
            [
                sum(
                    pinv[i][a] * J3.matrix[a][b] * p[b][j]
                    for a in range(3)
                    for b in range(3)
                )
                for j in range(3)
            ]
            for i in range(3)
        ]
    )
    contact = check_contact(conjugated, alpha_new)
    check_sasakian(contact, j_new)  # raises unless Sasakian


# su(2), sl(2,R) with an elliptic Reeb field, and sl(2,R) with a hyperbolic
# one (ad_X3 has eigenvalues +-1, so X3 is not Killing): the J[JX, Y] term of
# the Nijenhuis tensor decides all three, and it vanishes on Heisenberg algebras.
@pytest.mark.parametrize(
    "spec, sasakian",
    [("(23,-13,12)", True), ("(-23,13,12)", True), ("(-23,-13,12)", False)],
)
def test_sasakian_verdicts_on_three_dimensional_simple_algebras(spec, sasakian):
    contact = check_contact(parse_algebra(spec), parse_form("e3", 3))
    if sasakian:
        check_sasakian(contact, J3)
    else:
        with pytest.raises(NotSasakianError):
            check_sasakian(contact, J3)


def _nijenhuis_by_definition(J, alg, x, y):
    """[JX, JY] - J[JX, Y] - J[X, JY] + J^2[X, Y] from brackets of vectors."""
    br, jx, jy = alg.bracket, J.apply(x), J.apply(y)
    return br(jx, jy) - J.apply(br(jx, y)) - J.apply(br(x, jy)) + J.apply(J.apply(br(x, y)))


def test_nijenhuis_antisymmetric_and_matches_definition_on_random_algebras():
    rng = random.Random(114)
    non_nilpotent = [parse_algebra(s) for s in ("(23,-13,12)", "(-23,13,12)", "(0,12,13)")]
    for _ in range(100):
        alg = rand_algebra(rng) if rng.random() < 0.7 else rng.choice(non_nilpotent)
        n = alg.dim
        J = Endo([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        nij = nijenhuis_tensor(J, alg)
        basis = [Vector.basis(n, i) for i in range(1, n + 1)]
        for (i, j), value in nij.items():
            assert value == -_nijenhuis_by_definition(J, alg, basis[j - 1], basis[i - 1])
