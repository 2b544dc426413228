from fractions import Fraction as Q

import pytest

from nilgeo.errors import InputError
from nilgeo.exterior import (
    ComplexKForm,
    Endo,
    KForm,
    Metric,
    Vector,
    contract,
    evaluate,
    hodge_star,
    pullback,
    wedge,
)


def test_wedge_basis_product():
    e1 = KForm.monomial(5, (1,))
    e2 = KForm.monomial(5, (2,))
    assert e1.wedge(e2) == KForm.monomial(5, (1, 2))


def test_wedge_complex_bilinear_expansion():
    e1 = KForm.monomial(3, (1,))
    e2 = KForm.monomial(3, (2,))
    z = ComplexKForm(e1, e2).wedge(ComplexKForm(e1, -1 * e2))
    assert z.re.is_zero
    assert z.im == KForm.monomial(3, (1, 2), -2)


def test_wedge_kappa_square_dim5():
    kappa = KForm(5, 2, {(1, 2): 1, (3, 4): 1})
    assert kappa.wedge(kappa) == KForm.monomial(5, (1, 2, 3, 4), 2)


def test_wedge_dimension_mismatch():
    with pytest.raises(InputError):
        KForm.monomial(3, (1,)).wedge(KForm.monomial(4, (2,)))


def test_contract_examples():
    form = KForm(5, 2, {(1, 2): 1, (3, 4): 1})
    assert contract(Vector.basis(5, 1), form) == KForm.monomial(5, (2,))
    assert contract(Vector.basis(5, 2), KForm.monomial(5, (1, 2))) == KForm.monomial(5, (1,), -1)
    assert contract(Vector.basis(5, 5), KForm.monomial(5, (1, 2))).is_zero


def test_contract_degree_zero_rejected():
    with pytest.raises(InputError):
        contract(Vector.basis(3, 1), KForm.scalar(3, 2))


def test_evaluate_determinant_convention():
    e12 = KForm.monomial(3, (1, 2))
    x1, x2 = Vector.basis(3, 1), Vector.basis(3, 2)
    assert evaluate(e12, [x1, x2]) == 1
    assert evaluate(e12, [x2, x1]) == -1
    assert evaluate(2 * KForm.monomial(3, (3,)), [Vector.basis(3, 3)]) == 2


def test_evaluate_arity_mismatch():
    with pytest.raises(InputError):
        evaluate(KForm.monomial(3, (1, 2)), [Vector.basis(3, 1)])


def test_hodge_star_euclidean():
    assert hodge_star(KForm.monomial(3, (1,)), Metric.identity(3)) == KForm.monomial(3, (2, 3))
    assert hodge_star(KForm.monomial(2, (1,)), Metric.identity(2)) == KForm.monomial(2, (2,))
    assert hodge_star(KForm.monomial(2, (2,)), Metric.identity(2)) == KForm.monomial(2, (1,), -1)
    assert hodge_star(KForm.monomial(1, (1,)), Metric.identity(1)) == KForm.scalar(1, 1)


def test_hodge_star_double_is_minus_one_on_dim2_one_forms():
    g = Metric.identity(2)
    for idx in ((1,), (2,)):
        form = KForm.monomial(2, idx)
        assert hodge_star(hodge_star(form, g), g) == -form


def test_hodge_star_defining_identity_nondiagonal():
    # zeta ^ *a = <zeta, a> vol for a non-diagonal metric with square determinant
    b = [[1, 1, 0], [0, 1, 2], [0, 0, 1]]
    g = Metric(
        [
            [sum(b[k][i] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
    )
    ginv = g.inverse_matrix()
    a = KForm(3, 1, {(1,): Q(2), (3,): Q(-1, 2)})
    star_a = hodge_star(a, g)
    vol = hodge_star(KForm.scalar(3, 1), g)
    for i in range(1, 4):
        zeta = KForm.monomial(3, (i,))
        pairing = sum(
            ginv[i - 1][j - 1] * a.coefficient((j,)) for j in range(1, 4)
        )
        assert zeta.wedge(star_a) == pairing * vol


def test_hodge_star_rejects_non_square_determinant():
    with pytest.raises(InputError):
        hodge_star(KForm.monomial(2, (1,)), Metric.diagonal([2, 1]))


def test_hodge_star_rejects_indefinite_metric():
    with pytest.raises(InputError):
        hodge_star(KForm.monomial(2, (1,)), Metric.diagonal([1, -1]))


def test_hodge_star_orientation_flip():
    form = KForm.monomial(3, (1,))
    g = Metric.identity(3)
    assert hodge_star(form, g, orientation=-1) == -hodge_star(form, g)


def test_pullback_examples():
    a3 = KForm.monomial(3, (3,))
    a1 = KForm.monomial(3, (1,))
    span_x1 = [Vector.basis(3, 1)]
    assert pullback(a3, span_x1).is_zero
    assert pullback(a1, span_x1) == KForm.monomial(1, (1,))
    im_eps = KForm(5, 2, {(1, 4): 1, (2, 3): 1})
    assert pullback(im_eps, [Vector.basis(5, 1), Vector.basis(5, 3)]).is_zero


def test_pullback_higher_degree_than_subspace_is_zero():
    dalpha = KForm.monomial(3, (1, 2), 2)
    restricted = pullback(dalpha, [Vector.basis(3, 1)])
    assert restricted.is_zero and restricted.degree == 2


def test_pullback_dependent_vectors_rejected():
    with pytest.raises(InputError):
        pullback(KForm.monomial(3, (1,)), [Vector.basis(3, 1), 2 * Vector.basis(3, 1)])


def test_pullback_commutes_with_wedge():
    a = KForm(4, 1, {(1,): Q(1), (3,): Q(2)})
    b = KForm(4, 1, {(2,): Q(1), (4,): Q(-1, 2)})
    span = [Vector.basis(4, 1), Vector([0, 1, 1, 0]), Vector([0, 0, 0, 2])]
    assert pullback(a.wedge(b), span) == pullback(a, span).wedge(pullback(b, span))


def test_endo_pairs_and_square():
    j = Endo.from_pairs(4, [(1, 2), (3, 4)])
    assert j.apply(Vector.basis(4, 1)) == Vector.basis(4, 2)
    assert j.apply(Vector.basis(4, 2)) == -Vector.basis(4, 1)
    assert all(j.apply(j.apply(Vector.basis(4, k))) == -Vector.basis(4, k) for k in range(1, 5))


def test_metric_positive_definite_on_demand():
    assert Metric.diagonal([1, 2, 3]).is_positive_definite()
    assert not Metric.diagonal([1, 0, 3]).is_positive_definite()
    # degenerate forms are still representable
    g = Metric.diagonal([1, 1, 0])
    assert g.bilinear(Vector.basis(3, 3), Vector.basis(3, 3)) == 0


def test_metric_rejects_asymmetric():
    with pytest.raises(InputError):
        Metric([[1, 2], [3, 1]])


def test_kform_rejects_bad_tuples():
    with pytest.raises(InputError):
        KForm(3, 2, {(2, 1): 1})
    with pytest.raises(InputError):
        KForm(3, 2, {(1, 4): 1})
    with pytest.raises(InputError):
        KForm(3, 2, {(1, 1): 1})


def test_zero_coefficients_dropped():
    form = KForm(3, 1, {(1,): 0, (2,): 1})
    assert (1,) not in form.terms
    assert form - form == KForm.zero(3, 1)


def test_complex_scale_rotation():
    eps = ComplexKForm(KForm.monomial(3, (1,)), KForm.monomial(3, (2,)))
    rotated = eps.scale(Q(4, 5), Q(3, 5))
    assert rotated.re == KForm(3, 1, {(1,): Q(4, 5), (2,): Q(-3, 5)})
    assert rotated.im == KForm(3, 1, {(1,): Q(3, 5), (2,): Q(4, 5)})


def test_wedge_mixed_real_complex():
    eps = ComplexKForm(KForm.monomial(3, (1,)), KForm.monomial(3, (2,)))
    real = KForm.monomial(3, (3,))
    out = wedge(real, eps)
    assert out.re == KForm.monomial(3, (1, 3), -1)
    assert out.im == KForm.monomial(3, (2, 3), -1)


# -- the literal reader --------------------------------------------------------

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilgeo import linalg
from nilgeo.exterior import MAX_LITERAL_DIGITS, literal, read_json


@given(st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True))
@example("-0")
@example("0/7")
@example("-12/08")
@example("3/0")
@settings(max_examples=300, deadline=None)
def test_literal_agrees_with_fraction_on_p_q_strings(text):
    try:
        expected = Q(text).as_integer_ratio()
    except ZeroDivisionError:
        with pytest.raises(InputError):
            literal(text)
    else:
        assert literal(text) == expected


@pytest.mark.parametrize("x", [
    "1e5", "1E-2", "0.5", ".5", "5.", "+1", " 1", "1 ", "1_000", "", "-", "1/", "/2", "1/-2", "--1",
    "١", "1/٢", "３", "²", 1.5, True, None, [1],
    "9" * (MAX_LITERAL_DIGITS + 1), "-" + "9" * (MAX_LITERAL_DIGITS + 1), "1/" + "9" * (MAX_LITERAL_DIGITS + 1),
])
def test_literal_refuses_everything_but_ints_fractions_and_bounded_p_q_strings(x):
    with pytest.raises(InputError):
        literal(x)


def test_literals_at_the_digit_bound_and_json_integers_beyond_it():
    most = "9" * MAX_LITERAL_DIGITS
    assert literal(f"-{most}/{most}") == (-1, 1) and literal(Q(-2, 4)) == (-1, 2)
    assert read_json(f"[{most}, -{most}]", "test") == [int(most), -int(most)]
    for digits in (MAX_LITERAL_DIGITS + 1, 5000):  # 5000 is past what json.loads itself converts
        with pytest.raises(InputError):
            read_json(f'{{"x": [1, {"9" * digits}]}}', "test")


@given(st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 12)), min_size=1, max_size=36), st.randoms())
@settings(max_examples=100, deadline=None)
def test_metric_from_literals_matches_the_fraction_metric(entries, rng):
    # symmetric n x n matrices of p/q, spelled as JSON ints, "p/q" strings
    # (not in lowest terms) and Fractions, against linalg.scaled of the Fractions
    n = max(k for k in range(1, 7) if k * (k + 1) // 2 <= len(entries))
    upper = iter(entries)
    values = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            values[i][j] = values[j][i] = next(upper)
    spelled = [[rng.choice((f"{p}/{q}", Q(p, q), p if q == 1 else f"{2 * p}/{2 * q}")) for p, q in row]
               for row in values]
    g = Metric(spelled)
    assert (g.num, g.den) == linalg.scaled([[Q(p, q) for p, q in row] for row in values])
