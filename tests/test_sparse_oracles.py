"""The sparse int structure paths against the dense ones they replaced.

`_solve_reeb` (rows read off the term maps) against one dense Fraction
`linalg.rref`; the Nijenhuis table over the bracket cells and J's sparse
columns against the dense contraction; the calibration's g_J against the
dense product K J; `xi_basis` against `linalg.nullspace`; and `parse_form`
(term maps over one denominator) against the ComplexKForm elaboration of
`fraction_forms`, on hypothesis-generated expressions. The int term-map
`parse_algebra` against the per-monomial KForm sums of `fraction_forms` and
the tables `LieAlgebra` builds from them,
and the bracket, nilpotency and Riemann paths over the sparse bracket cells
against the dense Fraction table read off those sums.
"""

import json
import random
from fractions import Fraction as Q

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilgeo import linalg
from nilgeo.algdsl import parse_algebra, parse_form, serialize_algebra
from nilgeo.cealg import LieAlgebra, change_of_basis
from nilgeo.classify import Catalog
from nilgeo.curvature import levi_civita
from nilgeo.errors import InputError
from nilgeo.exterior import Endo, KForm, Vector
from nilgeo.models import heisenberg_algebra, heisenberg_ccy_data
from nilgeo.structures import (
    NotCalibratedError,
    _check_calibration,
    _nijenhuis_failures,
    _solve_reeb,
    check_contact,
    nijenhuis_tensor,
    xi_basis,
)

from . import fraction_curvature, fraction_forms
from . import fraction_structures as reference
from .fraction_forms import covector, serialize_algebra_json
from .fraction_structures import kodaira_thurston_data
from .test_curvature import random_rational_metric, transported_data
from .test_properties import NILPOTENT_SPECS, rand_form, rand_fraction, rand_rational_frame, rand_unimodular
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
            assert nijenhuis_tensor(J, alg) == reference.nijenhuis_table(J, alg)


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


def dense_table(d1) -> list:
    """c[i][j][k] = -d(e^(k+1))(X_(i+1), X_(j+1)), the structure constants
    read off the generator differentials."""
    dim = len(d1)
    c = [[[Q(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for k, form in enumerate(d1):
        for (i, j), x in form.terms.items():
            c[i - 1][j - 1][k], c[j - 1][i - 1][k] = -x, x
    return c


def dense_is_nilpotent(table) -> bool:
    """The lower central series from dense Fraction brackets and `linalg.rref`."""
    dim = len(table)
    basis = [[Q(int(i == j)) for j in range(dim)] for i in range(dim)]
    current = basis
    for _ in range(dim + 1):
        nxt = [w for e in basis for v in current if any(w := fraction_curvature.bilinear(table, e, v))]
        if not nxt:
            return True
        current = [row for row in linalg.rref(nxt)[0] if any(row)]
    return False


def respelled(rng, spec: str) -> tuple[str, str]:
    """(compact, JSON): the same algebra with each term split into repeated
    pairs and with pairs that cancel added."""
    alg = parse_algebra(spec)
    dim, entries, d = alg.dim, [], {}
    for k, form in enumerate(alg.d1, start=1):
        terms = [[c, i, j] for (i, j), c in sorted(form.terms.items())]
        i, j = sorted(rng.sample(range(1, dim + 1), 2))
        a = abs(rand_fraction(rng)) or Q(1)
        terms += [[a, i, j], [-a, i, j]]
        split = []
        for c, i, j in terms:
            b = rand_fraction(rng)
            split += [[c - b, i, j], [b, i, j]] if rng.random() < 0.5 else [[c, i, j]]
        d[str(k)] = [[str(c), i, j] for c, i, j in split]
        entries.append("".join(f"{'-' if c < 0 else '+'}{abs(c)}*{i}{j}" for c, i, j in split).lstrip("+"))
    return "(" + ",".join(entries) + ")", json.dumps({"dim": dim, "d": d})


def oracle_algebras(rng) -> list[LieAlgebra]:
    """The catalog, su(2), sl(2), two solvable non-nilpotent algebras, a
    rational-coefficient algebra and the nilpotent specs, plain and in seeded
    rational frames."""
    specs = [entry.spec for entry in Catalog.default()]
    specs += ["(23,-13,12)", "(-23,13,12)", "(0,12)", "(0,12,13,2*14+23)", "(0,0,1/2*12,3/4*13,14+23)"]
    specs += NILPOTENT_SPECS
    out = [parse_algebra(spec) for spec in specs]
    return out + [change_of_basis(alg, rand_rational_frame(rng, alg.dim)) for alg in out]


def test_term_map_parse_matches_the_per_monomial_reference():
    rng = random.Random(111)
    texts = ["(0,0,12+12)", "(0,0,12-12)", "(0,0,3/2*12-1/3*12,13+13-2*13)", "(0,0,0,0,12+34-34+1/2*34-1/2*34)",
             '{"dim": 5, "d": {"5": [["1", 1, 2], [3, 1, 2], ["-4", 1, 2], ["1/2", 3, 4], ["1/2", 3, 4]]}}',
             '{"dim": 3, "d": {"3": [["1", 1, 2], ["-1", 1, 2]], "2": []}}']
    for alg in oracle_algebras(rng):
        spec = serialize_algebra(alg)
        texts += [spec, serialize_algebra_json(alg), *respelled(rng, spec)]
    for spec in NILPOTENT_SPECS * 2:  # sheared by integer frames, as the rank benchmark draws its algebras
        alg = parse_algebra(spec)
        texts.append(serialize_algebra(change_of_basis(alg, [list(c) for c in zip(*rand_unimodular(rng, alg.dim))])))
    for text in texts:
        alg, d1 = parse_algebra(text), fraction_forms.algebra_d1(text)
        assert alg.d1 == tuple(d1), text
        # the parser's int term maps give the tables LieAlgebra builds from the KForms
        built = LieAlgebra(d1)
        assert alg.brackets == built.brackets and alg.d1_ints[1] == built.d1_ints[1], text
        assert [sorted(terms) for terms in alg.d1_ints[0]] == [sorted(terms) for terms in built.d1_ints[0]], text
        table = dense_table(d1)
        assert alg.structure_constants == tuple(tuple(tuple(cell) for cell in row) for row in table)
        cells, den = alg.brackets
        for i, row in enumerate(table):
            for j, cell in enumerate(row):
                assert {k: Q(x, den) for k, x in cells[i].get(j, {}).items()} == {k: x for k, x in enumerate(cell) if x}
    assert parse_algebra("(0,0,12-12)") == LieAlgebra.abelian(3)


def test_bracket_nilpotency_and_riemann_match_the_dense_table():
    rng = random.Random(112)
    verdicts = []
    for alg in oracle_algebras(rng):
        table = dense_table(alg.d1)
        verdicts.append(alg.is_nilpotent())
        assert verdicts[-1] == dense_is_nilpotent(table)
        for _ in range(4):
            u, v = (Vector([rand_fraction(rng) * rng.choice((0, 1)) for _ in range(alg.dim)]) for _ in range(2))
            assert alg.bracket(u, v) == Vector(fraction_curvature.bilinear(table, u.coeffs, v.coeffs))
        i, j = rng.randint(1, alg.dim), rng.randint(1, alg.dim)
        assert alg.bracket_basis(i, j) == Vector(table[i - 1][j - 1])
        g = random_rational_metric(rng, alg.dim, den=4)
        gamma = fraction_curvature.gamma_table(alg, g)
        x, y, z = (Vector([rand_fraction(rng) for _ in range(alg.dim)]) for _ in range(3))
        xyz = [fraction_curvature.bilinear(gamma, a.coeffs, fraction_curvature.bilinear(gamma, b.coeffs, z.coeffs)) for a, b in ((x, y), (y, x))]
        third = fraction_curvature.bilinear(gamma, fraction_curvature.bilinear(table, x.coeffs, y.coeffs), z.coeffs)
        assert fraction_curvature.riemann(levi_civita(alg, g), x, y, z) == Vector([p - q - r for p, q, r in zip(*xyz, third)])
    assert True in verdicts and False in verdicts
