"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line. All geometric assertions are exact (rational arithmetic,
zero tolerance) except the two floating-point sampling bounds, whose
tolerances are pinned here.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time
from contextlib import contextmanager
from fractions import Fraction as Q

import pytest

from nilgeo.algdsl import parse_algebra, parse_form
from nilgeo.cealg import betti_numbers
from nilgeo.classify import (
    Catalog,
    ccy_obstruction_filter,
    classify_catalog,
    contact_existence_polynomial,
)
from nilgeo.curvature import check_alpha_einstein, ricci_scalar, transverse_ricci
from nilgeo.deform import CircleGrid, assemble_operator, kernel_dimension, kernel_is_reeb_line
from nilgeo.exterior import ComplexKForm, KForm, Metric, Vector
from nilgeo.legendrian import (
    FamilySample,
    FamilySpec,
    LegendrianVerdict,
    Subalgebra,
    check_special_legendrian,
    comass_probe,
    comass_sample,
    extension_obstruction,
)
from nilgeo.models import heisenberg_ccy, heisenberg_ccy_data
from nilgeo.structures import (
    CCYError,
    check_ccy,
    check_contact,
    check_hypo,
    check_r_contact_ccy,
)

from .fraction_structures import kodaira_thurston_data, wedge_power


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {number:2d}. {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {number:2d}. {name}: PASS")


def test_criterion_01_ccy_verification_exact():
    with criterion(1, "CCY verification on the n = 1, 2, 3 examples"):
        for n in (1, 2, 3):
            alg, alpha, J, epsilon = heisenberg_ccy_data(n)
            start = time.perf_counter()
            structure = check_ccy(check_contact(alg, alpha), J, epsilon)
            elapsed = time.perf_counter() - start
            assert structure is not None
            assert elapsed < 1.0, f"n={n} verification took {elapsed:.3f}s"


def test_criterion_02_normalization_ledger():
    with criterion(2, "normalization: 1/n! passes, strict reading fails by n!"):
        alg, alpha, J, epsilon = heisenberg_ccy_data(2)
        contact = check_contact(alg, alpha)
        assert check_ccy(contact, J, epsilon) is not None
        with pytest.raises(CCYError) as err:
            check_ccy(contact, J, epsilon, strict_def31=True)
        assert err.value.check == "ccy.normalization"
        assert err.value.witness["ratio_rhs_over_lhs"] == "2"  # n! = 2
        # the two readings differ by exactly n! on the nose
        lhs = epsilon.wedge(epsilon.conjugate())
        kappa = contact.kappa
        assert ComplexKForm(4 * wedge_power(kappa, 2), KForm.zero(5, 4)) == ComplexKForm(
            2 * lhs.re, 2 * lhs.im
        )


def test_criterion_03_curvature_constants():
    with criterion(3, "alpha-Einstein constants, scalar curvature, transverse Ricci"):
        for n in (1, 2, 3):
            structure = heisenberg_ccy(n)
            report = ricci_scalar(structure.alg, structure.metric)
            lam, nu = check_alpha_einstein(report, structure.metric, structure.contact.alpha)
            assert (lam, nu) == (-2, 2 * n + 2)
            assert report.scalar == -2 * n
            transverse = transverse_ricci(structure)
            assert transverse.is_zero
            # the Ricci identity Ric^T = Ric + 2g on the contact distribution
            frame = transverse.frame
            ric, g = Metric(report.ricci).restrict(frame), structure.metric.restrict(frame)
            identity = tuple(tuple(a + 2 * b for a, b in zip(ra, rb)) for ra, rb in zip(ric, g))
            assert transverse.ric_t == identity


def test_criterion_04_betti_obstructions():
    with criterion(4, "Betti numbers and topological obstruction clauses"):
        h3 = betti_numbers(parse_algebra("(0,0,12)"))
        assert h3.numbers == (1, 2, 2, 1)
        assert h3.numbers[1] >= 2 and h3.numbers[2] >= 2  # n = 1 odd clause
        five = betti_numbers(parse_algebra("(0,0,0,0,12+34)"))
        assert five.numbers == (1, 4, 5, 5, 4, 1)
        assert five.numbers[3] == 5 > 0  # n = 2 even clause: b_{n+1} > 0
        for entry in Catalog.default():
            table = betti_numbers(entry.algebra())
            assert table.is_poincare_dual()
            assert table.euler_characteristic() == 0


def test_criterion_05_classification():
    with criterion(5, "5-dimensional classification catalog"):
        polys = {
            "(0,0,12,13,14+23)": True,
            "(0,0,0,12,13+24)": True,
            "(0,0,0,0,12+34)": True,
            "(0,0,0,0,12)": False,
            "(0,0,0,0,0)": False,
        }
        for spec, nonzero in polys.items():
            poly = contact_existence_polynomial(parse_algebra(spec))
            assert (not poly.is_zero) is nonzero, spec
        report = classify_catalog(Catalog.default(), seed=0, random_samples=3)
        verified = [e.name for e in report.entries if e.ccy_verified]
        assert verified == ["n5_heis"]
        # the filter never contradicts the constructively verified structure
        alg = parse_algebra("(0,0,0,0,12+34)")
        verdict = ccy_obstruction_filter(alg, parse_form("2*e5", 5))
        assert not verdict.obstructed


def test_criterion_06_special_legendrian_verdicts():
    with criterion(6, "special Legendrian verdicts, exact pullbacks"):
        ccy1 = heisenberg_ccy(1)
        ccy2 = heisenberg_ccy(2)
        r1 = check_special_legendrian(Subalgebra(ccy1.alg, [Vector.basis(3, 1)]), ccy1)
        assert r1.verdict is LegendrianVerdict.SPECIAL_LEGENDRIAN
        r2 = check_special_legendrian(Subalgebra(ccy1.alg, [Vector.basis(3, 2)]), ccy1)
        assert r2.verdict is LegendrianVerdict.LEGENDRIAN_ONLY
        r3 = check_special_legendrian(
            Subalgebra(ccy2.alg, [Vector.basis(5, 1), Vector.basis(5, 3)]), ccy2
        )
        assert r3.verdict is LegendrianVerdict.SPECIAL_LEGENDRIAN


def test_criterion_07_calibration_bound():
    with criterion(7, "calibration bound: 1e5 frames within 1 + 1e-9, probe exactly 1"):
        ccy = heisenberg_ccy(2)
        assert comass_probe(ccy, [Vector.basis(5, 1), Vector.basis(5, 3)]) == 1
        assert comass_probe(heisenberg_ccy(1), [Vector.basis(3, 1)]) == 1
        start = time.perf_counter()
        maximum = comass_sample(ccy, 100000, seed=0)
        elapsed = time.perf_counter() - start
        assert maximum <= 1 + 1e-9
        assert elapsed < 10.0, f"sampling took {elapsed:.2f}s"


def test_criterion_08_moduli_kernel_dimension():
    with criterion(8, "moduli kernel dimension 1 at N in {8, 16, 64, 256}"):
        for n in (8, 16, 64, 256):
            op = assemble_operator(CircleGrid(n))
            dim = kernel_dimension(op)
            assert dim == 1, f"N={n}"
            assert kernel_is_reeb_line(op, dim), f"N={n}"


def test_criterion_09_extension_obstruction():
    with criterion(9, "extension obstruction classes on rotation families"):
        ccy = heisenberg_ccy(1)
        sub = Subalgebra(ccy.alg, [Vector.basis(3, 1)])
        family = FamilySpec.rotation(
            ccy,
            [(0, 1, 0), (1, Q(4, 5), Q(3, 5)), (2, Q(3, 5), Q(4, 5)), (3, Q(5, 13), Q(12, 13))],
        )
        classes = [s.class_zero for s in extension_obstruction(sub, family)]
        assert classes == [True, False, False, False]
        constant = FamilySpec(tuple(FamilySample(Q(t), ccy) for t in (0, 1, 2)))
        assert all(s.class_zero for s in extension_obstruction(sub, constant))


def test_criterion_10_hypo():
    with criterion(10, "Hypo: induced quadruple passes, permuted one fails closedness"):
        alg, alpha, J, epsilon = heisenberg_ccy_data(2)
        contact = check_contact(alg, alpha)
        induced = check_hypo(alpha, contact.kappa, epsilon.re, epsilon.im, alg)
        assert induced.ok
        permuted = check_hypo(alpha, epsilon.re, contact.kappa, epsilon.im, alg)
        assert not permuted.ok
        failing = [c for c in permuted.clauses if not c.ok]
        assert any(
            c.name == "hypo.3.closedness" and "d(omega2^alpha)" in c.detail
            for c in failing
        )


def test_criterion_11_r_contact_ccy():
    with criterion(11, "r-contact structure passes; r = 1 reduction agrees"):
        alg, alphas, J, epsilon = kodaira_thurston_data()
        assert check_r_contact_ccy(alg, alphas, J, epsilon).ok
        # the r = 1 chain agrees with check_ccy, on success and failure
        alg1, alpha1, J1, eps1 = heisenberg_ccy_data(1)
        assert check_r_contact_ccy(alg1, [alpha1], J1, eps1).ok
        assert check_ccy(check_contact(alg1, alpha1), J1, eps1) is not None
        bad = eps1.scale(3)
        reduced = check_r_contact_ccy(alg1, [alpha1], J1, bad)
        with pytest.raises(CCYError) as err:
            check_ccy(check_contact(alg1, alpha1), J1, bad)
        assert not reduced.ok
        assert reduced.failing()[0].name == err.value.check


def test_criterion_12_property_suites():
    with criterion(12, "randomized exact property suites (1000 trials each)"):
        from . import test_properties as props

        props.test_ce_differential_squares_to_zero()
        props.test_wedge_graded_commutativity()
        props.test_wedge_associativity()
        props.test_contraction_antiderivation()
        props.test_hodge_star_double_sign_law()
        props.test_koszul_torsion_and_metric_identities()
        props.test_ricci_symmetry()
        props.test_first_bianchi_identity()
