"""Reference comass sampler: `legendrian.comass_sample` as it was computed
before its inner products became explicit sums over the metric's cells.

The frames stay in the (sample, vector, coordinate) layout of the draw; each
g-inner product of Gram-Schmidt is one three-operand `einsum`, and the
normalization divides the rows of nonzero norm through a boolean mask. The
draw, the chunking, the determinants and their order are the ones the
sampler keeps, so the tests compare its float with this one exactly.
"""

import numpy as np

from nilgeo.legendrian import _CHUNK


def comass_sample(ccy, samples: int, seed: int = 0) -> float:
    if samples <= 0:
        return 0.0
    n, dim, re = ccy.n, ccy.dim, ccy.epsilon.re
    g = np.array([[x / ccy.metric.den for x in row] for row in ccy.metric.num])
    terms = [(idx, c / re.den) for idx, c in re.nums.items()]
    nchunks = (samples + _CHUNK - 1) // _CHUNK
    seeds = np.random.SeedSequence(seed).spawn(nchunks)
    best = 0.0
    for ci in range(nchunks):
        count = min(_CHUNK, samples - ci * _CHUNK)
        rng = np.random.default_rng(seeds[ci])
        frames = rng.standard_normal((count, n, dim))
        # Gram-Schmidt against g across the batch
        for i in range(n):
            for j in range(i):
                proj = np.einsum("sd,de,se->s", frames[:, i], g, frames[:, j])
                frames[:, i] -= proj[:, None] * frames[:, j]
            norms = np.sqrt(np.einsum("sd,de,se->s", frames[:, i], g, frames[:, i]))
            good = norms > 1e-12
            frames[good, i] /= norms[good, None]
            frames[~good, i] = 0.0  # degenerate draw contributes value 0
        values = np.zeros(count)
        for idx, coeff in terms:
            sub = frames[:, :, [k - 1 for k in idx]]
            values += coeff * np.linalg.det(sub)
        chunk_max = float(np.max(np.abs(values))) if count else 0.0
        best = max(best, chunk_max)
    return best
