"""The verification path on ints against its Fraction references.

Subalgebra.pull against `exterior.pullback`, check_special_legendrian against
the Fraction check of tests/fraction_structures.py, forms and vectors against
their Fraction views and the renderings of tests/fraction_forms.py, and
`linalg.rref_ints` against sympy. Last, the number of Fractions that
one passing request builds.
"""

import contextlib
import io
import math
import random
import time
from fractions import Fraction as Q
from math import gcd

import pytest

from nilgeo import linalg
from nilgeo.algdsl import parse_algebra
from nilgeo.cealg import change_of_basis
from nilgeo.cli import main
from nilgeo.errors import InputError
from nilgeo.exterior import ComplexKForm, KForm, Vector, add_terms, pullback, wedge_terms
from nilgeo.legendrian import Subalgebra, check_special_legendrian
from nilgeo.models import heisenberg_ccy, heisenberg_ccy_data
from nilgeo.structures import check_ccy, check_contact

from . import fraction_structures as reference
from .fraction_forms import render, render_vector
from .test_curvature import transported_data
from .test_properties import from_sympy, rand_form, rand_rational_frame, to_sympy


def filiform(dim: int):
    return parse_algebra("(0,0," + ",".join(f"1{k - 1}" for k in range(3, dim + 1)) + ")")


def rand_ratio(rng, den=12):
    return Q(rng.randint(-5, 5), rng.randint(1, den))


def rand_span(rng, dim, m):
    """m independent vectors with mixed rational coordinates, some zero."""
    while True:
        vs = [Vector([rand_ratio(rng) if rng.random() < 0.7 else 0 for _ in range(dim)]) for _ in range(m)]
        if linalg.rank([list(v.coeffs) for v in vs]) == m:
            return vs


def test_pull_is_the_fraction_pullback_in_every_degree():
    rng = random.Random(2006)
    for dim in range(3, 10):
        alg = filiform(dim)
        for m in sorted({1, 2, rng.randint(1, dim), dim}):
            basis = rand_span(rng, dim, m)
            sub = Subalgebra(alg, basis)
            for degree in range(min(m + 1, dim) + 1):  # every degree 0..m, and one above m
                form = rand_form(rng, dim, degree, sparsity=rng.randint(1, 6))
                pulled = sub.pull(form)
                assert pulled == pullback(form, basis), (dim, m, degree)
                assert (pulled.dim, pulled.degree) == (m, degree)
            eps = ComplexKForm(rand_form(rng, dim, min(m, 3)), rand_form(rng, dim, min(m, 3)))
            assert sub.pull(eps) == pullback(eps, basis)


def test_a_dependent_span_is_still_an_input_error():
    rng = random.Random(15)
    alg = filiform(5)
    for _ in range(20):
        u, v = rand_span(rng, 5, 2)
        for basis in ([u, u * 2], [u, v, u + v * Q(3, 7)], [u, Vector([0] * 5)]):
            with pytest.raises(InputError):
                Subalgebra(alg, basis)


def legendrian_spans(rng, n, coords):
    """Spans of n vectors, given the coordinates coords(i) of X_i: the odd X's
    (special), the even ones, rational combinations of the odd ones, mixed
    spans of the contact distribution, and spans with a Reeb component."""
    dim = 2 * n + 1
    odd, even = [coords(2 * k - 1) for k in range(1, n + 1)], [coords(2 * k) for k in range(1, n + 1)]
    spans = [odd, even] + ([[coords(1), coords(2)] + odd[2:]] if n > 1 else [])
    for _ in range(6):
        while True:
            m = [[rand_ratio(rng, 5) for _ in range(n)] for _ in range(n)]
            if linalg.det(m):
                break
        spans.append([sum((v * m[i][j] for j, v in enumerate(odd)), Vector([0] * dim)) for i in range(n)])
        xi = [coords(i) for i in range(1, dim)]
        spans.append([sum((v * rand_ratio(rng, 4) for v in xi), Vector([0] * dim)) for _ in range(n)])
        spans.append([v + coords(dim) * rand_ratio(rng) for v in odd])
    return spans


def special_legendrian_cases():
    rng = random.Random(31)
    for n in (1, 2, 3):
        ccy = heisenberg_ccy(n)
        yield ccy, legendrian_spans(rng, n, lambda i, dim=2 * n + 1: Vector.basis(dim, i))
        for seed in range(2):
            alg, alpha, J, epsilon = heisenberg_ccy_data(n)
            cols = rand_rational_frame(random.Random(seed), alg.dim)  # the frame transported_data draws
            inverse = linalg.inverse([list(row) for row in zip(*cols)])
            alg, alpha, J, epsilon = transported_data(random.Random(seed), alg, alpha, J, epsilon)
            transported = check_ccy(check_contact(alg, alpha), J, epsilon)
            yield transported, legendrian_spans(rng, n, lambda i: Vector([row[i - 1] for row in inverse]))


def test_special_legendrian_verdicts_and_details_match_the_fraction_check():
    verdicts = set()
    for ccy, spans in special_legendrian_cases():
        for basis in spans:
            try:
                sub = Subalgebra(ccy.alg, basis)
            except InputError:
                continue
            report = check_special_legendrian(sub, ccy)
            detail = {k: v for k, v in report.detail.items() if k != "closed_under_bracket"}
            assert (report.verdict.value, detail) == reference.special_legendrian(basis, ccy)
            verdicts.add((report.verdict.value, detail.get("orientation"), "calibration" in detail))
    assert verdicts >= {("SpecialLegendrian", "+1", False), ("SpecialLegendrian", "-1", False),
                        ("LegendrianOnly", None, False), ("LegendrianOnly", None, True), ("NotLegendrian", None, False)}


def test_forms_and_vectors_on_ints_agree_with_their_fraction_views():
    rng = random.Random(19)
    for _ in range(400):
        dim = rng.randint(1, 11)  # past 9 the generators render as e1^e2
        degree = rng.randint(0, min(dim, 4))
        a, b = (KForm(dim, degree, {idx: rand_ratio(rng) for idx in
                                    rand_form(rng, dim, degree, sparsity=rng.randint(0, 6)).terms}) for _ in range(2))
        for form in (a, b):
            assert form.den > 0 and gcd(form.den, *form.nums.values()) == 1 and all(form.nums.values())
            assert KForm(dim, form.degree, form.terms) == form
            assert str(form) == render(form)
        assert (a == b) == (a.terms == b.terms)
        assert a.wedge(b).terms == {key: c for key, c in wedge_terms(a.terms, b.terms).items() if c}
        assert (a + b).terms == {key: c for key, c in add_terms(dict(a.terms), 1, b.terms).items() if c}
        c = rand_ratio(rng)
        assert (a * c).terms == {key: c * x for key, x in a.terms.items() if c * x}
        u, v = (Vector([rand_ratio(rng) if rng.random() < 0.6 else 0 for _ in range(dim)]) for _ in range(2))
        assert str(u) == render_vector(u) and (u + v).coeffs == tuple(x + y for x, y in zip(u.coeffs, v.coeffs))
        assert Vector(u.coeffs) == u and (u == v) == (u.coeffs == v.coeffs)


def test_rref_ints_is_den_times_the_rref():
    rng = random.Random(23)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        ints = [[rng.randint(-6, 6) if rng.random() < 0.6 else 0 for _ in range(ncols)] for _ in range(nrows)]
        reduced, pivots, den = linalg.rref_ints([{c: x for c, x in enumerate(row) if x} for row in ints])
        dense, expected = to_sympy([[Q(x) for x in row] for row in ints]).rref()
        assert pivots == list(expected) and den > 0
        assert [[Q(row.get(c, 0), den) for c in range(ncols)] for row in reduced] == [
            from_sympy(dense.row(i)) for i in range(len(pivots))]
        assert all(type(x) is int for row in reduced for x in row.values())


def test_dense_int_eliminations_stay_within_the_size_of_the_minors():
    # a row scaled so that the pivot divides it is divided by the gcd of its
    # entries afterwards: each echelon row stays a small multiple of a vector
    # of (k+1)-minors, within Hadamard's bound (9 sqrt(n))^n for entries |x| <= 9.
    # Without that division a dense 40 x 40 matrix reaches 3000-bit entries.
    rng = random.Random(1968)
    for n in (20, 30, 40):
        rows = [{c: rng.randint(-9, 9) for c in range(n)} for _ in range(n)]
        bound = n * math.log2(9 * math.sqrt(n))
        pivots = linalg._eliminate(rows)
        assert len(pivots) == n
        assert max(abs(x).bit_length() for _, _, row in pivots for x in row.values()) <= bound
        reduced, _, den = linalg.rref_ints(rows)
        assert den.bit_length() <= bound and all(abs(x).bit_length() <= bound for x in reduced[0].values())


def test_check_contact_in_a_dense_frame_of_dimension_19():
    # H19 carried into a seeded dense rational frame: d(alpha) is dense, and the
    # Reeb solve eliminates 20 dense int rows; its field is P^-1 applied to the
    # old one
    alg, alpha, _, _ = heisenberg_ccy_data(9)
    cols = rand_rational_frame(random.Random(19), alg.dim)
    frame = [Vector(col) for col in cols]
    start = time.perf_counter()
    moved = change_of_basis(alg, cols)
    contact = check_contact(moved, pullback(alpha, frame))
    assert time.perf_counter() - start < 20
    p = [list(row) for row in zip(*cols)]
    assert contact.reeb == Vector(linalg.matvec(linalg.inverse(p), check_contact(alg, alpha).reeb.coeffs))
    assert len(contact.kappa.nums) > 4 * alg.dim  # d(alpha) is dense in the frame


def fractions_built(argv) -> int:
    """How many Fractions one in-process request builds, after a first run
    has imported what it needs."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0
        count = [0]
        original = Q.__dict__["__new__"]

        def counting(cls, *args, **kwargs):
            count[0] += 1
            return original(cls, *args, **kwargs)

        Q.__new__ = staticmethod(counting)
        try:
            assert main(list(argv)) == 0
        finally:
            Q.__new__ = original
    return count[0]


def test_check_ccy_and_legendrian_requests_build_no_fraction():
    assert fractions_built(["check-contact", "--algebra", "(0,0,12)", "--alpha", "e3 + 1/2*e1"]) == 0
    h5 = ["--algebra", "(0,0,0,0,12+34)", "--alpha", "2*e5", "--J", "pairs:(1,2),(3,4)"]
    assert fractions_built(["check-ccy", *h5, "--epsilon", "(3/5+4/5*i)*(e1+i*e2)^(e3+i*e4)"]) == 0
    h7 = ["--algebra", "(0,0,0,0,0,0,12+34+56)", "--alpha", "2*e7", "--J", "pairs:(1,2),(3,4),(5,6)"]
    epsilon = "(e1+i*e2)^(e3+i*e4)^(e5+i*e6)"
    assert fractions_built(["legendrian", *h7, "--epsilon", epsilon, "--span", "X1;X3;X5"]) == 0
    # the count does see Fractions: the obstruction command still builds them
    h3 = ["--algebra", "(0,0,12)", "--alpha", "2*e3", "--J", "pairs:(1,2)", "--epsilon", "e1 + i*e2"]
    assert fractions_built(["obstruction", *h3, "--span", "X1"]) > 0
