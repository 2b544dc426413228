import random
from fractions import Fraction as Q

import pytest

from nilgeo.errors import InputError
from nilgeo.exterior import Vector
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
from nilgeo.models import PYTHAGOREAN_ROTATIONS, heisenberg_ccy, heisenberg_ccy_data
from nilgeo.structures import _check_epsilon_clauses, check_ccy, check_contact

from .test_curvature import transported_data

CCY1 = heisenberg_ccy(1)
CCY2 = heisenberg_ccy(2)


def test_span_x1_is_special_legendrian():
    sub = Subalgebra(CCY1.alg, [Vector.basis(3, 1)])
    report = check_special_legendrian(sub, CCY1)
    assert report.verdict is LegendrianVerdict.SPECIAL_LEGENDRIAN
    assert report.integrable
    assert report.pullback_alpha.is_zero
    assert report.pullback_im.is_zero
    assert not report.pullback_re.is_zero


def test_span_x2_is_legendrian_only():
    sub = Subalgebra(CCY1.alg, [Vector.basis(3, 2)])
    report = check_special_legendrian(sub, CCY1)
    assert report.verdict is LegendrianVerdict.LEGENDRIAN_ONLY
    assert str(report.pullback_im) == "e1"


def test_span_x3_is_not_legendrian():
    sub = Subalgebra(CCY1.alg, [Vector.basis(3, 3)])
    report = check_special_legendrian(sub, CCY1)
    assert report.verdict is LegendrianVerdict.NOT_LEGENDRIAN


def test_five_dim_x1_x3_special():
    sub = Subalgebra(CCY2.alg, [Vector.basis(5, 1), Vector.basis(5, 3)])
    report = check_special_legendrian(sub, CCY2)
    assert report.verdict is LegendrianVerdict.SPECIAL_LEGENDRIAN
    assert str(report.pullback_re) == "e12"
    assert report.detail["gram_determinant"] == "1"


def test_special_legendrian_pullback_of_dalpha_vanishes():
    sub = Subalgebra(CCY2.alg, [Vector.basis(5, 1), Vector.basis(5, 3)])
    dalpha = CCY2.alg.d(CCY2.contact.alpha)
    assert sub.pull(dalpha).is_zero


def test_wrong_dimension_rejected():
    sub = Subalgebra(CCY2.alg, [Vector.basis(5, 1)])
    with pytest.raises(InputError):
        check_special_legendrian(sub, CCY2)


def test_non_integrable_subspace_flagged_but_classified():
    # span{X1, X2} is not bracket-closed ([X1,X2] = -X5 leaves the plane), so
    # no compact submanifold corresponds to it; the verdict is still computed.
    # Both alpha and Im epsilon pull back to zero, but so does Re epsilon, so
    # the plane is not calibrated.
    sub = Subalgebra(CCY2.alg, [Vector.basis(5, 1), Vector.basis(5, 2)])
    report = check_special_legendrian(sub, CCY2)
    assert not report.integrable
    assert report.verdict is LegendrianVerdict.LEGENDRIAN_ONLY
    assert report.pullback_re.is_zero
    assert "calibration" in report.detail


def test_subalgebra_independence_required():
    with pytest.raises(InputError):
        Subalgebra(CCY1.alg, [Vector.basis(3, 1), 3 * Vector.basis(3, 1)])


def test_comass_probe_exact_values():
    assert comass_probe(CCY1, [Vector.basis(3, 1)]) == 1
    assert comass_probe(CCY1, [Vector.basis(3, 2)]) == 0
    assert comass_probe(CCY2, [Vector.basis(5, 1), Vector.basis(5, 3)]) == 1


def test_comass_probe_requires_orthonormal_frame():
    with pytest.raises(InputError):
        comass_probe(CCY1, [2 * Vector.basis(3, 1)])
    with pytest.raises(InputError):
        comass_probe(CCY1, [Vector.basis(3, 3)])  # g(X3,X3) = 4


def test_comass_bound_sampled():
    value = comass_sample(CCY2, 20000, seed=11)
    assert 0 < value <= 1 + 1e-9


def test_comass_deterministic_per_seed():
    a = comass_sample(CCY1, 8192, seed=5)
    b = comass_sample(CCY1, 8192, seed=5)
    assert a == b


def test_comass_bound_holds_at_a_million_samples():
    for seed in (0, 42):
        assert comass_sample(CCY2, 10**6, seed=seed) <= 1 + 1e-9


def test_rotation_family_obstruction():
    sub = Subalgebra(CCY1.alg, [Vector.basis(3, 1)])
    family = FamilySpec.rotation(
        CCY1, [(0, 1, 0), (1, Q(4, 5), Q(3, 5)), (2, Q(3, 5), Q(4, 5))]
    )
    samples = extension_obstruction(sub, family)
    assert [s.class_zero for s in samples] == [True, False, False]
    assert str(samples[1].pullback_im) == "3/5*e1"


def test_constant_family_all_zero_classes():
    sub = Subalgebra(CCY1.alg, [Vector.basis(3, 1)])
    family = FamilySpec(tuple(FamilySample(Q(t), CCY1) for t in (0, 1, Q(1, 2))))
    samples = extension_obstruction(sub, family)
    assert all(s.class_zero for s in samples)
    assert all(s.primitive is not None for s in samples)


def test_family_requires_t0_and_special_legendrian():
    sub = Subalgebra(CCY1.alg, [Vector.basis(3, 1)])
    with pytest.raises(InputError):
        extension_obstruction(sub, FamilySpec((FamilySample(Q(1), CCY1),)))
    sub2 = Subalgebra(CCY1.alg, [Vector.basis(3, 2)])
    with pytest.raises(InputError):
        extension_obstruction(sub2, FamilySpec((FamilySample(Q(0), CCY1),)))


def test_rotation_family_rejects_non_unit_pairs():
    with pytest.raises(InputError):
        FamilySpec.rotation(CCY1, [(0, Q(1, 2), Q(1, 2))])


def test_family_from_json():
    alg = CCY1.alg
    text = (
        '[{"t": "0", "alpha": "2*e3", "J": "pairs:(1,2)", "epsilon": "e1 + i*e2"},'
        ' {"t": "1/2", "alpha": "2*e3", "J": "pairs:(1,2)",'
        '  "epsilon": "(4/5 + 3/5*i)*(e1 + i*e2)"}]'
    )
    family = FamilySpec.from_json(alg, text)
    assert [s.t for s in family] == [0, Q(1, 2)]
    sub = Subalgebra(alg, [Vector.basis(3, 1)])
    samples = extension_obstruction(sub, family)
    assert [s.class_zero for s in samples] == [True, False]


def test_obstruction_phase_equivariance():
    # rotating the whole family by a fixed unit phase mixes the pulled-back
    # real and imaginary parts linearly, exactly
    sub = Subalgebra(CCY1.alg, [Vector.basis(3, 1)])
    u_c, u_s = Q(5, 13), Q(12, 13)
    for t, (c, s) in enumerate(PYTHAGOREAN_ROTATIONS):
        eps_t = CCY1.epsilon.scale(c, s)
        rotated = eps_t.scale(u_c, u_s)
        lhs = sub.pull(rotated.im)
        rhs = u_s * sub.pull(eps_t.re) + u_c * sub.pull(eps_t.im)
        assert lhs == rhs


def rotated_structures():
    """H3, H5 and H7 as shipped and carried into a seeded rational frame,
    with epsilon already rotated off the real axis in the frame."""
    rng = random.Random(23)
    for n in (1, 2, 3):
        yield heisenberg_ccy(n)
        alg, alpha, J, epsilon = transported_data(rng, *heisenberg_ccy_data(n))
        yield check_ccy(check_contact(alg, alpha), J, epsilon.scale(Q(3, 5), Q(-4, 5)))


# the Pythagorean rotations and their images in the other quadrants
ROTATIONS = [(t, c, s) for t, (c, s) in enumerate(PYTHAGOREAN_ROTATIONS)]
ROTATIONS += [(t + 4, -s, c) for t, c, s in ROTATIONS] + [(Q(1, 2), Q(-20, 29), Q(-21, 29)), (9, 0, -1)]


def test_rotation_samples_pass_every_epsilon_clause():
    # FamilySpec.rotation does not re-run the clauses on its samples; each
    # sample must pass them in full and equal the rotation of ComplexKForm.scale
    for ccy in rotated_structures():
        family = FamilySpec.rotation(ccy, ROTATIONS)
        assert [s.t for s in family] == [Q(t) for t, _, _ in ROTATIONS]
        for sample, (_, c, s) in zip(family, ROTATIONS):
            epsilon = sample.ccy.epsilon
            assert epsilon == ccy.epsilon.scale(c, s) and sample.ccy.contact is ccy.contact
            contact = sample.ccy.contact
            _check_epsilon_clauses(ccy.alg, contact.kappa, [contact.reeb], ccy.J, epsilon, ccy.n, False)
            assert check_ccy(contact, ccy.J, epsilon).epsilon == epsilon


@pytest.mark.parametrize("c, s", [(1, 1), (0, 0), (Q(3, 5), Q(3, 5)), (Q(4, 5), Q(3, 4)), ("3/5", "-4/5 "), (0.6, 0.8)])
def test_non_unit_rotations_are_input_errors(c, s):
    # the exact unit check stays; a string or float that is no exact rational is refused too
    with pytest.raises(InputError):
        FamilySpec.rotation(CCY2, [(0, 1, 0), (1, c, s)])
