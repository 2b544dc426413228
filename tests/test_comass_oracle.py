"""`legendrian.comass_sample` against the einsum sampler it replaced
(`tests/einsum_comass.py`): the same float, compared with ==, on the
Heisenberg structures with epsilon plain and rotated, in the model frame and
in seeded rational frames where the metric is dense, at sample counts that
cross the chunk edges; and on stubbed draws that reach the degenerate-row
branch of Gram-Schmidt."""

import random
from fractions import Fraction as Q

import numpy as np
import pytest

from nilgeo.legendrian import _CHUNK, FamilySpec, comass_sample
from nilgeo.models import heisenberg_ccy, heisenberg_ccy_data
from nilgeo.structures import check_ccy, check_contact

from . import einsum_comass as reference
from .test_curvature import transported_data

SAMPLES = (1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)
SEEDS = (0, 7, 2**40 + 3)
ROTATION = (Q(3, 5), Q(4, 5))


def rotated(ccy):
    return FamilySpec.rotation(ccy, [(0, *ROTATION)]).samples[0].ccy


def structures(n):
    """H_{2n+1} as shipped and carried into a seeded rational frame, each
    with epsilon plain and rotated by 3/5 + 4/5 i."""
    model = heisenberg_ccy(n)
    alg, alpha, J, epsilon = transported_data(random.Random(n), *heisenberg_ccy_data(n))
    framed = check_ccy(check_contact(alg, alpha), J, epsilon)
    return {"model": model, "model_rotated": rotated(model), "frame": framed, "frame_rotated": rotated(framed)}


# n = 4 in a frame: epsilon has C(9, 4) = 126 terms, one det each; one seed there
@pytest.mark.parametrize("n, seeds", [(1, SEEDS), (2, SEEDS), (3, SEEDS), (4, (11,))])
def test_comass_sample_equals_the_einsum_reference(n, seeds):
    cases = structures(n)
    dense = cases["frame"].metric.num
    assert sum(x != 0 for row in dense for x in row) > len(dense)  # the framed metric is not diagonal
    assert len(cases["model_rotated"].epsilon.re.nums) == 2 * len(cases["model"].epsilon.re.nums)
    for name, ccy in cases.items():
        for samples in SAMPLES:
            for seed in seeds:
                value = comass_sample(ccy, samples, seed=seed)
                assert value == reference.comass_sample(ccy, samples, seed=seed), (name, samples, seed)
                assert 0 < value <= 1 + 1e-9


def test_no_samples_read_zero():
    assert comass_sample(heisenberg_ccy(1), 0) == reference.comass_sample(heisenberg_ccy(1), 0) == 0.0


class RepeatingGenerator:
    """A generator whose frames carry vector `source` again as vector
    `target` in the samples `rows` selects, so that Gram-Schmidt leaves a
    norm of rounding size there; with `source` None the vector is zero."""

    def __init__(self, seed, rows, source, target, default_rng):
        self.rng, self.rows, self.source, self.target = default_rng(seed), rows, source, target

    def standard_normal(self, shape):
        frames = self.rng.standard_normal(shape)
        frames[self.rows, self.target] = 0.0 if self.source is None else frames[self.rows, self.source]
        return frames


def stub_draws(monkeypatch, rows, source=0, target=1):
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: RepeatingGenerator(seed, rows, source, target, real))


@pytest.mark.parametrize("samples", [5, _CHUNK + 3])
def test_degenerate_draws_read_zero(monkeypatch, samples):
    # every frame repeats a vector: each row is zeroed and each value is 0;
    # without the zeroing the rounding-size row would be scaled to norm 1
    stub_draws(monkeypatch, slice(None))
    ccy = heisenberg_ccy(2)
    assert comass_sample(ccy, samples, seed=3) == reference.comass_sample(ccy, samples, seed=3) == 0.0
    rotated_ccy = rotated(ccy)
    assert comass_sample(rotated_ccy, samples, seed=3) == reference.comass_sample(rotated_ccy, samples, seed=3) == 0.0


@pytest.mark.parametrize("n, source, target", [(1, None, 0), (2, 0, 1), (3, 0, 2), (3, 1, 2), (3, None, 1)])
def test_samplers_agree_when_some_draws_are_degenerate(monkeypatch, n, source, target):
    stub_draws(monkeypatch, slice(None, None, 2), source, target)
    for ccy in structures(n).values():
        for samples in (7, _CHUNK + 1):
            value = comass_sample(ccy, samples, seed=5)
            assert value == reference.comass_sample(ccy, samples, seed=5)
            assert 0 < value <= 1 + 1e-9  # the odd samples are whole frames
