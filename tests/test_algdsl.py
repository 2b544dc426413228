import json
from fractions import Fraction as Q

import pytest

from nilgeo.algdsl import (
    parse_algebra,
    parse_endo,
    parse_form,
    parse_vector,
    parse_vectors,
    serialize_algebra,
)
from nilgeo.cealg import JacobiError
from nilgeo.errors import InputError
from nilgeo.exterior import ComplexKForm, KForm, Vector

from .fraction_forms import serialize_algebra_json


def test_parse_heisenberg():
    alg = parse_algebra("(0,0,12)")
    assert alg.dim == 3
    assert alg.d1[0].is_zero and alg.d1[1].is_zero
    assert alg.d1[2] == KForm.monomial(3, (1, 2))
    assert alg.bracket(Vector.basis(3, 1), Vector.basis(3, 2)) == -Vector.basis(3, 3)


def test_parse_five_dimensional():
    alg = parse_algebra("(0,0,0,0,12+34)")
    assert alg.d1[4] == KForm(5, 2, {(1, 2): 1, (3, 4): 1})


def test_parse_invalid_pair():
    with pytest.raises(InputError):
        parse_algebra("(0,0,11)")
    with pytest.raises(InputError):
        parse_algebra("(0,0,21)")


def test_parse_index_out_of_range():
    with pytest.raises(InputError):
        parse_algebra("(0,14,0)")


def test_parse_jacobi_failure():
    with pytest.raises(JacobiError):
        parse_algebra("(0,34,0,12)")


JACOBI_GOLDENS = (
    ("(0,0,12,34,0)", "d(d(e4)) = e124 != 0; Jacobi identity fails"),
    ("(0,0,0,12,13,45+23)", "d(d(e6)) = e125 - e134 != 0; Jacobi identity fails"),
    ("(0,0,0,0,0,12+34,35+2*16)", "d(d(e7)) = -2*e134 != 0; Jacobi identity fails"),
    (
        json.dumps({"dim": 11, "d": {"10": [["1/2", 1, 11]], "11": [["3", 1, 2], ["-2/3", 3, 4]]}}),
        "d(d(e10)) = 1/3*e1^e3^e4 != 0; Jacobi identity fails",
    ),
)


@pytest.mark.parametrize("spec, message", JACOBI_GOLDENS)
def test_jacobi_failure_messages_are_golden(spec, message):
    # the first failing generator and its d(d e^k), over the rationals
    with pytest.raises(JacobiError) as info:
        parse_algebra(spec)
    assert str(info.value) == message


def test_parse_rational_coefficients():
    alg = parse_algebra("(0,0,-12+3/2*13)")
    assert alg.d1[2] == KForm(3, 2, {(1, 2): Q(-1), (1, 3): Q(3, 2)})


def test_serialize_roundtrip_catalog():
    for spec in (
        "(0,0,12)",
        "(0,0,0,0,12+34)",
        "(0,0,12,13,14+23)",
        "(0,0,0,12,13+24)",
        "(0,0,0,0,0)",
        "(0,0,-12+3/2*13)",
    ):
        alg = parse_algebra(spec)
        assert parse_algebra(serialize_algebra(alg)) == alg


def test_json_algebra_roundtrip():
    alg = parse_algebra("(0,0,0,0,12+34)")
    again = parse_algebra(serialize_algebra_json(alg))
    assert again == alg


def test_json_algebra_large_dimension():
    # 11-dimensional Heisenberg-type algebra, beyond compact notation
    text = (
        '{"dim": 11, "d": {"11": [["1",1,2],["1",3,4],["1",5,6],["1",7,8],["1",9,10]]}}'
    )
    alg = parse_algebra(text)
    assert alg.dim == 11
    assert serialize_algebra(alg).startswith("{")
    assert parse_algebra(serialize_algebra(alg)) == alg


def test_parse_form_basics():
    kappa = parse_form("e1^e2 + e3^e4", 5)
    assert kappa == KForm(5, 2, {(1, 2): 1, (3, 4): 1})
    alpha = parse_form("2*e3", 3)
    assert alpha == KForm.monomial(3, (3,), 2)
    assert parse_form("3/5*e1 - e2", 3) == KForm(3, 1, {(1,): Q(3, 5), (2,): Q(-1)})


def test_parse_form_complex():
    eps = parse_form("(e1+i*e2)^(e3+i*e4)", 5)
    assert isinstance(eps, ComplexKForm)
    assert eps.re == KForm(5, 2, {(1, 3): 1, (2, 4): -1})
    assert eps.im == KForm(5, 2, {(1, 4): 1, (2, 3): 1})


def test_parse_form_presence_of_i_forces_complex():
    val = parse_form("e1 + i*e2 - i*e2", 3)
    assert isinstance(val, ComplexKForm)
    assert val.im.is_zero


def test_parse_form_syntax_errors():
    for bad in ("e1^^e2", "e1 +", "(e1", "e1)", "^e1", "e0^"):
        with pytest.raises(InputError):
            parse_form(bad, 5)


def test_parse_form_index_range():
    with pytest.raises(InputError):
        parse_form("e6", 5)


def test_parse_form_mixed_degrees():
    with pytest.raises(InputError):
        parse_form("e1 + e2^e3", 5)


def test_parse_endo_pairs():
    j = parse_endo("pairs:(1,2),(3,4)", 5)
    assert j.apply(Vector.basis(5, 3)) == Vector.basis(5, 4)
    assert j.apply(Vector.basis(5, 5)).is_zero


def test_parse_endo_matrix():
    m = parse_endo('matrix:[[0, -1], [1, 0]]', 2)
    assert m.apply(Vector.basis(2, 1)) == Vector.basis(2, 2)
    m2 = parse_endo('[["1/2", 0], [0, 1]]', 2)
    assert m2.apply(Vector.basis(2, 1)) == Q(1, 2) * Vector.basis(2, 1)


def test_parse_endo_errors():
    with pytest.raises(InputError):
        parse_endo("pairs:(1,1)", 3)
    with pytest.raises(InputError):
        parse_endo("pairs:(1,2),(2,3)", 3)
    with pytest.raises(InputError):
        parse_endo("matrix:[[1,2],[3,4],[5,6]]", 2)


def test_parse_vector():
    assert parse_vector("X1", 3) == Vector.basis(3, 1)
    assert parse_vector("X1 + 2*X3 - 1/2*X2", 3) == Vector([1, Q(-1, 2), 2])
    assert parse_vector('[0, "1/2", 1]', 3) == Vector([0, Q(1, 2), 1])
    assert parse_vectors("X1; X3", 3) == [Vector.basis(3, 1), Vector.basis(3, 3)]
    with pytest.raises(InputError):
        parse_vector("X4", 3)
    with pytest.raises(InputError):
        parse_vector("Y1", 3)


def test_is_nilpotent_on_heisenberg_and_a_solvable_algebra():
    assert parse_algebra("(0,0,12)").is_nilpotent()
    # a solvable non-nilpotent algebra passing Jacobi: d(e2) = 12 means
    # [X1, X2] = -X2, whose lower central series stabilizes at span{X2}
    assert not parse_algebra("(0,12)").is_nilpotent()


def test_compact_monomial_generators():
    # rendered Salamon-style monomials parse back for dim <= 9
    assert parse_form("e12 + e34", 5) == KForm(5, 2, {(1, 2): 1, (3, 4): 1})
    assert parse_form("2*e1234", 5) == KForm.monomial(5, (1, 2, 3, 4), 2)
    with pytest.raises(InputError):
        parse_form("e21", 5)  # not strictly increasing
    assert parse_form("e12", 12) == KForm.monomial(12, (12,))  # a real single index
    with pytest.raises(InputError):
        parse_form("e12", 10)  # out of range, and too large for compact monomials


# -- hypothesis round-trip properties ---------------------------------------

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def kforms(draw, max_dim=7):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    degree = draw(st.integers(min_value=0, max_value=dim))
    pool = list(combinations(range(1, dim + 1), degree))
    chosen = draw(
        st.lists(st.sampled_from(pool), unique=True, min_size=0, max_size=4)
    )
    terms = {}
    for idx in chosen:
        num = draw(st.integers(min_value=-9, max_value=9))
        den = draw(st.integers(min_value=1, max_value=9))
        terms[idx] = Q(num, den)
    return KForm(dim, degree, terms)


@given(kforms())
@settings(max_examples=200, deadline=None)
def test_form_render_parse_roundtrip(form):
    parsed = parse_form(str(form), form.dim)
    if form.is_zero:
        assert parsed.is_zero
    else:
        assert parsed == form


@given(kforms(), kforms())
@settings(max_examples=100, deadline=None)
def test_complex_form_render_parse_roundtrip(re_part, im_part):
    if re_part.dim != im_part.dim or re_part.degree != im_part.degree:
        return
    value = ComplexKForm(re_part, im_part)
    parsed = parse_form(str(value), value.dim)
    if not isinstance(parsed, ComplexKForm):
        parsed = ComplexKForm.from_real(parsed)
    if value.is_zero:
        assert parsed.is_zero
    else:
        assert parsed.re == value.re and parsed.im == value.im


@given(
    st.sampled_from(
        ["(0,0,12)", "(0,0,0,0,12+34)", "(0,0,12,13,14+23)", "(0,0,0,12,13+24)"]
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=-2, max_value=2),
        ),
        max_size=4,
    ),
)
@settings(max_examples=100, deadline=None)
def test_algebra_serialize_roundtrip_conjugated(spec, ops):
    from nilgeo.cealg import change_of_basis

    alg = parse_algebra(spec)
    n = alg.dim
    p = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        i, j = i % n, j % n
        if i == j:
            continue
        for k in range(n):
            p[i][k] += c * p[j][k]
    cols = [[p[i][j] for i in range(n)] for j in range(n)]
    conjugated = change_of_basis(alg, cols)
    assert parse_algebra(serialize_algebra(conjugated)) == conjugated


def _generic_one_form(dim: int, seed: int) -> str:
    return "(" + "+".join(f"{(k * seed) % 7 + 1}*e{k}" for k in range(1, dim + 1)) + ")"


def test_wedge_size_bound_refuses_a_large_product_before_expanding_it(capsys):
    import json
    import time

    from nilgeo.cli import main

    # five generic 1-forms on dimension 30 expand to about 10^5 terms
    text = "^".join(_generic_one_form(30, seed) for seed in range(1, 6))
    start = time.perf_counter()
    with pytest.raises(InputError, match="expression too large"):
        parse_form(text, 30)
    argv = ["check-ccy", "--algebra", '{"dim": 31, "d": {}}', "--alpha", "e31",
            "--J", "pairs:(1,2)", f"--epsilon={text}"]
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.5
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error" and "expression too large" in json.dumps(report)
    # three factors stay within the bound, and so does the Heisenberg volume
    # form at n = 10 (its last wedge is 512 by 2 terms)
    assert len(parse_form("^".join(_generic_one_form(30, s) for s in (1, 2, 3)), 30).terms) > 1000
    heisenberg = "^".join(f"(e{2 * k - 1}+i*e{2 * k})" for k in range(1, 11))
    assert parse_form(heisenberg, 21).degree == 10
