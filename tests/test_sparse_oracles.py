"""The sparse int structure paths against the dense ones they replaced.

`_solve_reeb` (rows read off the term maps) against one dense Fraction
`linalg.rref`; the Nijenhuis table over the bracket cells and J's sparse
columns against the dense contraction; the calibration's g_J against the
dense product K J; `xi_basis` against `linalg.nullspace`; and `parse_form`
(term maps over one denominator) against the ComplexKForm elaboration of
`fraction_forms`, on hypothesis-generated expressions.
"""

import random
from fractions import Fraction as Q

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilgeo import linalg
from nilgeo.algdsl import parse_algebra, parse_form
from nilgeo.cealg import LieAlgebra, change_of_basis
from nilgeo.classify import Catalog
from nilgeo.errors import InputError
from nilgeo.exterior import Endo, KForm, Vector, covector
from nilgeo.models import heisenberg_algebra, heisenberg_ccy_data, kodaira_thurston_data
from nilgeo.structures import (
    NotCalibratedError,
    _check_calibration,
    _nijenhuis_failures,
    _solve_reeb,
    check_contact,
    nijenhuis_tensor,
    xi_basis,
)

from . import fraction_forms
from . import fraction_structures as reference
from .test_curvature import transported_data
from .test_properties import rand_form, rand_unimodular
from .test_structure_oracles import rand_endo

R_CONTACT = (
    kodaira_thurston_data(),
    (parse_algebra("(14,-24,12,0)"), [parse_form("2*e3", 4), parse_form("2*e3 + 2*e4", 4)],
     Endo.from_pairs(4, [(1, 2)]), parse_form("e1 + i*e2", 4)),
)


def sheared_heisenberg(rng, n) -> LieAlgebra:
    """h_{2n+1} in the frame of an integer unimodular basis change."""
    alg = heisenberg_algebra(n)
    return change_of_basis(alg, [list(col) for col in zip(*rand_unimodular(rng, alg.dim))])


def algebras(rng) -> list[LieAlgebra]:
    out = [entry.algebra() for entry in Catalog.default()]
    out += [parse_algebra(spec) for spec in ("(23,-13,12)", "(-23,13,12)", "(0,0,1/2*12,3/4*13,14+23)")]
    out += [heisenberg_algebra(n) for n in (1, 2, 3)] + [sheared_heisenberg(rng, n) for n in (1, 2, 2, 3)]
    return out + [alg for alg, *_ in R_CONTACT]


def rand_matrix_endo(rng, dim) -> Endo:
    """A random rational J in matrix form, about half its entries zero."""
    return Endo([[Q(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.5 else 0 for _ in range(dim)]
                 for _ in range(dim)])


def test_solve_reeb_matches_the_dense_fraction_elimination():
    rng = random.Random(101)
    seen = set()
    for alg in algebras(rng):
        for _ in range(8):
            r = rng.choice((1, 1, 2)) if alg.dim > 2 else 1
            alphas = [rand_form(rng, alg.dim, 1, sparsity=rng.randint(1, alg.dim)) for _ in range(r)]
            dalpha = alg.d(alphas[0])
            got = _solve_reeb(alphas, dalpha)
            assert got == reference.solve_reeb(alphas, dalpha)
            seen.add(got is None)
    for alg, alphas, *_ in R_CONTACT:
        dalpha = alg.d(alphas[0])
        assert _solve_reeb(alphas, dalpha) == reference.solve_reeb(alphas, dalpha) is not None
    assert seen == {True, False}


def test_xi_basis_is_the_nullspace_of_the_covectors():
    rng = random.Random(102)
    for alg in algebras(rng):
        for r in (1, 2):
            alphas = [rand_form(rng, alg.dim, 1, sparsity=rng.randint(1, alg.dim)) for _ in range(r)]
            expected = linalg.nullspace([covector(a) for a in alphas], alg.dim)
            assert xi_basis(alg, alphas) == [Vector(v) for v in expected]


def test_nijenhuis_table_matches_the_dense_contraction():
    rng = random.Random(103)
    for alg in algebras(rng):
        for _ in range(6):
            J = rand_matrix_endo(rng, alg.dim)
            assert nijenhuis_tensor(J, alg).table == reference.nijenhuis_table(J, alg)


def calibration_cases(rng):
    """(alg, kappa, alphas, reebs, J): the shipped structures, the same in
    sheared rational frames, random Js on their contact forms, a calibrated
    J that is not Sasakian, and the r-contact examples."""
    for n in (1, 2, 3):
        data = heisenberg_ccy_data(n)
        for alg, alpha, J, _ in [data] + [transported_data(rng, *data) for _ in range(3)]:
            contact = check_contact(alg, alpha)
            args = (alg, contact.kappa, [alpha], [contact.reeb])
            yield (*args, J)
            pairs = [(2 * k - 1, 2 * k) for k in range(1, n + 1)]
            for _ in range(4):
                yield (*args, rand_endo(rng, alg.dim, pairs))
                yield (*args, rand_matrix_endo(rng, alg.dim))
    # calibrated, not Sasakian: N_J != -d alpha (x) R
    data = parse_algebra("(0,0,0,13,12+34)"), parse_form("2*e5", 5), Endo.from_pairs(5, [(1, 2), (3, 4)])
    for alg, alpha, J, _ in [(*data, None), transported_data(rng, *data)]:
        contact = check_contact(alg, alpha)
        yield alg, contact.kappa, [alpha], [contact.reeb], J
    for alg, alphas, J, _ in R_CONTACT:
        dalpha = alg.d(alphas[0])
        yield alg, dalpha * Q(1, 2), alphas, _solve_reeb(alphas, dalpha), J


def test_calibration_and_g_j_match_the_dense_product():
    rng = random.Random(104)
    seen = set()
    for alg, kappa, alphas, reebs, J in calibration_cases(rng):
        expected = reference.calibration_error(alg, kappa, alphas, reebs, J)
        try:
            g_j = _check_calibration(alg, kappa, alphas, reebs, J)
        except NotCalibratedError as exc:
            assert (exc.check, exc.witness) == expected
            seen.add(exc.check)
            continue
        assert expected is None
        seen.add(None)
        assert [list(row) for row in g_j.matrix] == reference.g_j_matrix(kappa, J)
        if len(reebs) == 1:
            dalpha = kappa * 2
            failures = _nijenhuis_failures(alg, J, dalpha, reebs[0])
            assert failures == reference.nijenhuis_failures(alg, J, dalpha, reebs[0])
            seen.add(bool(failures))
    assert seen >= {None, "calibrated.J_reeb", "calibrated.J_square", "calibrated.symmetric",
                    "calibrated.positive", True, False}


# -- form expressions ---------------------------------------------------------


def outcome(parse, text, dim):
    try:
        return parse(text, dim)
    except InputError as exc:
        return "InputError", str(exc)


def atoms(dim):
    generators = st.integers(1, dim + 2).map(lambda k: f"e{k}")
    compact = st.lists(st.integers(1, 9), min_size=2, max_size=3).map(lambda ks: "e" + "".join(map(str, ks)))
    rationals = st.tuples(st.integers(0, 7), st.integers(1, 4)).map(lambda pq: f"{pq[0]}/{pq[1]}")
    return st.one_of(generators, compact, rationals, st.sampled_from(("i", "0", "1", "2")))


def combine(children):
    pair = st.tuples(children, children)
    return st.one_of(
        pair.map(lambda ab: f"{ab[0]} + {ab[1]}"),
        pair.map(lambda ab: f"{ab[0]} - {ab[1]}"),
        pair.map(lambda ab: f"({ab[0]})^({ab[1]})"),
        pair.map(lambda ab: f"{ab[0]}*{ab[1]}"),
        children.map(lambda a: f"-({a})"),
        children.map(lambda a: f"({a}) - ({a})"),  # a sum that cancels
    )


@st.composite
def expressions(draw):
    dim = draw(st.sampled_from((3, 5, 9, 12)))
    return draw(st.recursive(atoms(dim), combine, max_leaves=10)), dim


@given(expressions())
@example(("e1 + i*e2 - i*e2", 3))
@example(("(i - i)*e1^e2", 3))
@example(("0*i*e1", 3))
@example(("e1 - e1 + e2^e3", 3))
@example(("e1 - e1 + e2^e3 + e1", 3))
@example(("0 + e1^e2", 3))
@example(("e12 + 3/5*e3^e1 - e123", 3))
@example(("e13 + e21", 3))
@example(("(3/5+4/5*i)*(e1+i*e2)^(e3+i*e4)^(e5+i*e6)", 7))
@example(("(1/2*e1 + 2/3*i*e2)^(3/4*e3 - i*e4) - 1/6*i*e2^e3", 5))
@settings(max_examples=300, deadline=None)
def test_parse_form_matches_the_complexkform_elaboration(case):
    text, dim = case
    assert outcome(parse_form, text, dim) == outcome(fraction_forms.parse_form, text, dim)


def test_parse_form_refuses_the_same_wedge_as_the_complexkform_elaboration():
    rng = random.Random(105)
    one_forms = ["(" + " + ".join(f"{rng.randint(1, 9)}*e{j}" for j in range(1, 31)) + ")" for _ in range(5)]
    for count in (3, 4, 5):
        text = "^".join(one_forms[:count])
        got = outcome(parse_form, text, 30)
        assert got == outcome(fraction_forms.parse_form, text, 30)
        assert isinstance(got, tuple) == (count > 3)
    assert isinstance(outcome(parse_form, "^".join(one_forms[:3]), 30), KForm)
