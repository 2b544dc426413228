import json
import random
from fractions import Fraction as Q

import pytest

from nilgeo import linalg
from nilgeo.algdsl import parse_algebra, parse_form, serialize_algebra
from nilgeo.cealg import LieAlgebra, basis_tuples, change_of_basis, d_matrix, d_rows
from nilgeo.classify import (
    ANSATZ_TABLE,
    Catalog,
    MultiPoly,
    _FilterTables,
    _sample_alphas,
    ccy_obstruction_filter,
    classify_catalog,
    closed_two_forms,
    contact_existence_polynomial,
)
from nilgeo.errors import InputError
from nilgeo.exterior import KForm
from nilgeo.structures import NotContactError

from . import fraction_classify as reference
from .fraction_forms import scaled
from .test_checks_golden import CATALOG_3_5_7
from .test_structure_oracles import NILPOTENT_5, SOLVABLE_5


def test_multipoly_arithmetic():
    # polynomials are built from term maps; zero coefficients are dropped
    cube = MultiPoly(5, {(0, 0, 0, 0, 3): 2, (1, 0, 0, 0, 0): 0})
    assert str(cube) == "2*a5^3"
    assert cube.evaluate([0, 0, 0, 0, Q(1, 2)]) == Q(1, 4)
    assert not cube.is_zero and MultiPoly(5, {(0, 0, 0, 0, 3): 0}).is_zero
    # terms print by total degree, then by exponent tuple
    mixed = MultiPoly(2, {(0, 2): -1, (1, 1): Q(1, 2), (0, 0): 3, (1, 0): -1})
    assert str(mixed) == "3 - a1 - a2^2 + 1/2*a1*a2"
    assert mixed.evaluate([2, 1]) == 1
    assert str(MultiPoly(2)) == "0"
    with pytest.raises(InputError):
        MultiPoly(2, {(1,): 1})
    with pytest.raises(InputError):
        mixed.evaluate([1])


def test_contact_polynomial_admissible_algebras():
    assert str(contact_existence_polynomial(parse_algebra("(0,0,0,0,12+34)"))) == "2*a5^3"
    assert str(contact_existence_polynomial(parse_algebra("(0,0,12,13,14+23)"))) == "2*a5^3"
    poly = contact_existence_polynomial(parse_algebra("(0,0,0,12,13+24)"))
    assert not poly.is_zero


def test_contact_polynomial_controls_zero():
    assert contact_existence_polynomial(parse_algebra("(0,0,0,0,12)")).is_zero
    assert contact_existence_polynomial(LieAlgebra.abelian(5)).is_zero


def test_contact_polynomial_even_dimension_rejected():
    with pytest.raises(InputError):
        contact_existence_polynomial(LieAlgebra.abelian(4))


def test_contact_polynomial_basis_covariant():
    # unimodular change of basis preserves the zero / nonzero verdict
    p = [
        [1, 0, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 2, 0, 1, 0],
        [0, 0, 1, 0, 1],
    ]
    cols = [[p[i][j] for i in range(5)] for j in range(5)]
    for spec, nonzero in (("(0,0,0,0,12+34)", True), ("(0,0,0,0,12)", False)):
        alg = parse_algebra(spec)
        conjugated = change_of_basis(alg, cols)
        assert (not contact_existence_polynomial(conjugated).is_zero) is nonzero


def test_obstruction_filter_inconclusive_on_admissible():
    alg = parse_algebra("(0,0,0,0,12+34)")
    alpha = parse_form("2*e5", 5)
    verdict = ccy_obstruction_filter(alg, alpha)
    assert not verdict.obstructed
    assert verdict.space_dimension == 5
    assert verdict.witness is not None and verdict.witness_value != 0
    # the returned witness genuinely satisfies the quadratic condition
    vol = verdict.witness.wedge(verdict.witness).wedge(alpha)
    assert vol.coefficient((1, 2, 3, 4, 5)) == verdict.witness_value
    # the catalog example witness works too: gamma = e13 - e24 has value 4
    gamma = KForm(5, 2, {(1, 3): 1, (2, 4): -1})
    assert gamma.wedge(gamma).wedge(alpha).coefficient((1, 2, 3, 4, 5)) == 4


def test_obstruction_filter_requires_contact():
    with pytest.raises(NotContactError):
        ccy_obstruction_filter(parse_algebra("(0,0,0,0,12)"), parse_form("2*e5", 5))


def test_obstruction_filter_is_refused_outside_dimension_5():
    # q is the top coefficient of a 5-form: it would vanish identically on
    # h3 and h7, which carry contact Calabi-Yau structures
    for spec, alpha in (("(0,0,12)", "2*e3"), ("(0,0,0,0,0,0,12+34+56)", "2*e7")):
        alg = parse_algebra(spec)
        with pytest.raises(InputError):
            ccy_obstruction_filter(alg, parse_form(alpha, alg.dim))
    catalog = Catalog.from_json('[{"name":"h3","spec":"(0,0,12)"}]')
    (entry,) = classify_catalog(catalog, seed=0).entries
    assert entry.admits_contact and entry.filter_samples == ()


def test_obstruction_filter_runs_on_other_contact_algebras():
    for spec in ("(0,0,12,13,14+23)", "(0,0,0,12,13+24)"):
        verdict = ccy_obstruction_filter(parse_algebra(spec), parse_form("2*e5", 5))
        # the exact necessary condition turns out not to obstruct at 2*e5;
        # the verdict and witness are recorded either way
        if not verdict.obstructed:
            assert verdict.witness_value != 0


def test_filter_witness_space_is_sound():
    # every member of W is closed and kappa-orthogonal by construction
    alg = parse_algebra("(0,0,0,0,12+34)")
    alpha = parse_form("2*e5", 5)
    verdict = ccy_obstruction_filter(alg, alpha)
    gamma = verdict.witness
    assert alg.d(gamma).is_zero
    assert gamma.wedge(alg.d(alpha)).is_zero


def test_closed_two_forms_read_the_same_ints_as_the_dense_d_matrix():
    # the int d_rows in lowest terms are scaled(d_matrix): the kernel is unchanged
    rng = random.Random(9)
    algebras = [entry.algebra() for entry in Catalog.default()]
    for spec in ("(0,0,12,13,14+23)", "(0,0,0,0,12+34)", "(0,0,12,13,14,15)", "(0,0,0,12)"):
        alg = parse_algebra(spec)
        for _ in range(4):
            frame = [[Q(int(i == j)) for i in range(alg.dim)] for j in range(alg.dim)]
            for col in frame:
                col[rng.randrange(alg.dim)] += Q(rng.randint(-3, 3), rng.randint(1, 4))
            if linalg.det(frame):
                algebras.append(change_of_basis(alg, frame))
    assert len(algebras) > 15
    for alg in algebras:
        ncols = len(basis_tuples(alg.dim, 2))
        rows, den = scaled(d_matrix(alg, 2))
        dense = [[row.get(c, 0) for c in range(ncols)] for row in d_rows(alg, 2)]
        assert linalg.lowest(dense, alg.d1_ints[1]) == (rows, den)
        assert closed_two_forms(alg) == linalg.kernel(rows, ncols)


def test_default_catalog_jacobi_and_size():
    catalog = Catalog.default()
    assert len(catalog.entries) == 5
    for entry in catalog:
        entry.algebra()  # raises on Jacobi failure


def test_catalog_json_roundtrip():
    catalog = Catalog.default()
    text = json.dumps([{"name": e.name, "spec": e.spec, "notes": e.notes} for e in catalog])
    again = Catalog.from_json(text)
    assert [e.spec for e in again] == [e.spec for e in catalog]


def test_classify_catalog_summary():
    report = classify_catalog(Catalog.default(), seed=0, random_samples=2)
    by_name = {e.name: e for e in report.entries}
    assert by_name["n5_heis"].ccy_verified
    assert by_name["n5_heis"].summary == "CCY verified"
    assert not by_name["n5_step4"].ccy_verified
    assert not by_name["n5_step3"].ccy_verified
    assert by_name["n5_h3xR2"].summary == "no invariant contact form"
    assert by_name["abelian5"].summary == "no invariant contact form"
    contact_flags = [e.admits_contact for e in report.entries]
    assert contact_flags == [True, True, True, False, False]


def test_classify_filter_never_contradicts_verified_ccy():
    report = classify_catalog(Catalog.default(), seed=1, random_samples=2)
    for entry in report.entries:
        if entry.ccy_verified:
            for _, verdict in entry.filter_samples:
                # at most the sampled alphas away from the ansatz may differ;
                # the ansatz alpha itself is re-checked inside classify_entry,
                # and any Obstructed result there raises. Here: samples on the
                # admissible algebra must stay sound.
                assert verdict["verdict"] in ("Inconclusive", "Obstructed")


def test_classify_deterministic_per_seed():
    first = classify_catalog(Catalog.default(), seed=4, random_samples=1)
    again = classify_catalog(Catalog.default(), seed=4, random_samples=1)
    assert first.to_dict() == again.to_dict()


def test_empty_catalog():
    report = classify_catalog(Catalog(()), seed=0)
    assert report.entries == ()


def test_ansatz_table_is_verified():
    # the shipped constructive data must itself verify
    from nilgeo.algdsl import parse_endo
    from nilgeo.exterior import ComplexKForm
    from nilgeo.structures import check_ccy, check_contact

    for spec, data in ANSATZ_TABLE.items():
        alg = parse_algebra(spec)
        epsilon = parse_form(data["epsilon"], alg.dim)
        if not isinstance(epsilon, ComplexKForm):
            epsilon = ComplexKForm.from_real(epsilon)
        structure = check_ccy(
            check_contact(alg, parse_form(data["alpha"], alg.dim)),
            parse_endo(data["J"], alg.dim),
            epsilon,
        )
        assert structure is not None


# -- the int paths against the KForm and Fraction references -------------------


def rational_frame(rng, dim, dense):
    """A seeded invertible frame of rational columns: dense, or the identity
    with one rational entry added to each column."""
    while True:
        if dense:
            cols = [[Q(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(dim)] for _ in range(dim)]
        else:
            cols = [[Q(int(i == j)) for i in range(dim)] for j in range(dim)]
            for col in cols:
                col[rng.randrange(dim)] += Q(rng.randint(-3, 3), rng.randint(1, 4))
        if linalg.det(cols):
            return cols


# Dims 3-9: Heisenberg, su(2), filiform and split algebras (an even dimension
# is an input error on both paths); the reference
# expansion takes seconds on a dense rational frame at dim 9, so dim 9 gets
# one rational entry per column.
FRAMED = ("(0,0,12)", "(23,-13,12)", "(0,0,0)", "(0,0,12,0)", "(0,0,0,0,0,0,12+34+56)", "(0,0,12,13,14,15,16)",
          "(0,0,12,13,14+23,15+24,16+25)", "(0,0,0,0,12,0)", "(0,0,0,0,0,0,0,0,12+34+56+78)",
          "(0,0,0,0,0,0,12+34,56)", "(0,0,12,13,14,15,16,17,18)", "(0,0,0,0,0,0,12,13,23)")


def framed_algebras(seed):
    rng = random.Random(seed)
    for spec in FRAMED + NILPOTENT_5 + SOLVABLE_5:
        base = parse_algebra(spec)
        for _ in range(2):
            yield change_of_basis(base, rational_frame(rng, base.dim, dense=base.dim <= 7))


def polynomial_outcome(poly, alg):
    try:
        result = poly(alg)
    except InputError as exc:
        return str(exc)
    return result.terms, str(result)


def test_contact_polynomial_matches_the_kform_expansion():
    algebras = [parse_algebra(spec) for spec in NILPOTENT_5]
    algebras += [parse_algebra(entry["spec"]) for entry in json.loads(CATALOG_3_5_7)]
    algebras += list(framed_algebras(2023))
    assert {alg.dim for alg in algebras} == set(range(3, 10))
    nonzero = 0
    for alg in algebras:
        expected = polynomial_outcome(reference.contact_existence_polynomial, alg)
        assert polynomial_outcome(contact_existence_polynomial, alg) == expected, serialize_algebra(alg)
        nonzero += isinstance(expected, tuple) and bool(expected[0])
    assert nonzero > 20  # rational coefficients on most of them: the frames have denominators


def filter_outcome(alg, alpha, closed=None):
    check = reference.obstruction_filter if closed is None else ccy_obstruction_filter
    try:
        return check(alg, alpha, closed).to_dict()
    except NotContactError as exc:
        return exc.check, exc.witness, str(exc)


def test_sampled_alphas_and_the_filter_match_the_fraction_references():
    # the default catalog over 40 seeds, then dim-5 algebras in seeded rational frames
    cases = [(entry.algebra(), range(40)) for entry in Catalog.default()]
    cases += [(alg, range(3)) for alg in framed_algebras(5) if alg.dim == 5]
    seen = set()
    for alg, seeds in cases:
        tables = _FilterTables(alg)
        for seed in seeds:
            alphas = _sample_alphas(alg, seed, 3)
            expected = reference.sample_alphas(alg, seed, 3)
            assert alphas == expected and [str(a) for a in alphas] == [str(a) for a in expected]
            for alpha in alphas:
                outcome = filter_outcome(alg, alpha)
                assert filter_outcome(alg, alpha, tables) == outcome, (serialize_algebra(alg), str(alpha))
                seen.add(outcome[0] if isinstance(outcome, tuple) else outcome["verdict"])
    assert seen == {"contact.volume", "Inconclusive", "Obstructed"}


def test_filter_tables_from_given_closed_forms_match():
    alg = parse_algebra("(0,0,12,13,14+23)")
    closed = closed_two_forms(alg)
    for alpha in _sample_alphas(alg, 11, 6):
        assert filter_outcome(alg, alpha, closed) == filter_outcome(alg, alpha, _FilterTables(alg, closed))


def test_ansatz_key_matches_the_fraction_rendering():
    # classify looks the ansatz up by serialize_algebra, now rendered from ints
    algebras = [entry.algebra() for entry in Catalog.default()] + list(framed_algebras(7))
    algebras.append(parse_algebra('{"dim": 11, "d": {"11": [["-3/2", 1, 2], ["1", 3, 4]], "10": [["2/9", 5, 6]]}}'))
    for alg in algebras:
        assert serialize_algebra(alg) == reference.serialize_algebra(alg)
