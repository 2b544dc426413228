"""Special Legendrian subalgebras, calibration sampling, and the extension
obstruction on families of volume forms.

The invariant model of a compact submanifold is a subalgebra of the ambient
algebra; pullbacks and cohomology classes are computed exactly in its
Chevalley-Eilenberg complex.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import linalg
from .algdsl import parse_endo, parse_form
from .cealg import LieAlgebra, is_exact
from .errors import InputError
from .exterior import KForm, evaluate, pullback, rat
from .structures import CCYStructure, _check_epsilon_clauses, check_ccy, check_contact


class Subalgebra:
    """A subspace of the parent algebra spanned by exact vectors.

    Independence is verified at construction. Closure under the bracket is
    computed (not required); when the subspace is closed, an induced Lie
    algebra on the subspace is available for cohomology computations.
    """

    def __init__(self, parent: LieAlgebra, basis):
        basis = list(basis)
        if not basis:
            raise InputError("subalgebra needs at least one basis vector")
        if any(v.dim != parent.dim for v in basis):
            raise InputError("basis vector dimension mismatch")
        if linalg.rank([list(v.coeffs) for v in basis]) != len(basis):
            raise InputError("subalgebra basis is linearly dependent")
        self.parent = parent
        self.basis = basis
        self._structure: list[list[list[Fraction] | None]] | None = None
        self.closed_under_bracket = self._compute_closure()

    def _compute_closure(self) -> bool:
        k = len(self.basis)
        cols = [[b[i] for b in self.basis] for i in range(self.parent.dim)]
        table: list[list[list[Fraction] | None]] = [[None] * k for _ in range(k)]
        closed = True
        for i in range(k):
            for j in range(k):
                w = self.parent.bracket(self.basis[i], self.basis[j])
                coords = linalg.solve(cols, list(w.coeffs))
                table[i][j] = coords
                if coords is None:
                    closed = False
        self._structure = table
        return closed

    @property
    def dim(self) -> int:
        return len(self.basis)

    def induced_algebra(self) -> LieAlgebra:
        """Chevalley-Eilenberg structure of the subalgebra (requires closure)."""
        if not self.closed_under_bracket:
            raise InputError("subspace is not closed under the bracket")
        k = self.dim
        d1 = []
        for p in range(k):
            terms = {}
            for i in range(k):
                for j in range(i + 1, k):
                    c = self._structure[i][j][p]
                    if c:
                        terms[(i + 1, j + 1)] = -c
            d1.append(KForm(k, 2, terms))
        return LieAlgebra(d1)

    def pull(self, form):
        return pullback(form, self.basis)


class LegendrianVerdict(enum.Enum):
    NOT_LEGENDRIAN = "NotLegendrian"
    LEGENDRIAN_ONLY = "LegendrianOnly"
    SPECIAL_LEGENDRIAN = "SpecialLegendrian"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class LegendrianReport:
    verdict: LegendrianVerdict
    integrable: bool
    pullback_alpha: KForm
    pullback_im: KForm
    pullback_re: KForm
    detail: dict

    @property
    def is_special(self) -> bool:
        return self.verdict is LegendrianVerdict.SPECIAL_LEGENDRIAN


def check_special_legendrian(sub: Subalgebra, ccy: CCYStructure) -> LegendrianReport:
    """Classify a candidate subalgebra of half the contact-distribution rank.

    SpecialLegendrian requires the exact vanishing of the pullbacks of the
    contact form and of the imaginary volume part, and additionally verifies
    the calibration identity: the pullback of the real part is a nonzero
    multiple of the induced volume form whose square equals the Gram
    determinant (the calibration bound is attained). Non-closure under the
    bracket is flagged but the verdict is still computed.
    """
    n = ccy.n
    if sub.dim != n:
        raise InputError(f"subalgebra dimension {sub.dim} != n = {n}")
    if sub.parent != ccy.alg:
        raise InputError("subalgebra parent is not the structure's algebra")
    p_alpha = sub.pull(ccy.contact.alpha)
    p_eps = sub.pull(ccy.epsilon)
    detail: dict = {
        "pullback_alpha": str(p_alpha),
        "pullback_im": str(p_eps.im),
        "pullback_re": str(p_eps.re),
        "closed_under_bracket": sub.closed_under_bracket,
    }
    if not p_alpha.is_zero:
        verdict = LegendrianVerdict.NOT_LEGENDRIAN
    elif not p_eps.im.is_zero:
        verdict = LegendrianVerdict.LEGENDRIAN_ONLY
    else:
        top = tuple(range(1, n + 1))
        c = p_eps.re.coefficient(top)
        gram = ccy.metric.restrict(sub.basis)
        det_gram = linalg.det(gram)
        detail["volume_coefficient"] = str(c)
        detail["gram_determinant"] = str(det_gram)
        if c == 0 or c * c != det_gram or len(p_eps.re.terms) != 1:
            verdict = LegendrianVerdict.LEGENDRIAN_ONLY
            detail["calibration"] = "pullback of Re epsilon is not the induced volume form"
        else:
            verdict = LegendrianVerdict.SPECIAL_LEGENDRIAN
            detail["orientation"] = "+1" if c > 0 else "-1"
    return LegendrianReport(
        verdict=verdict,
        integrable=sub.closed_under_bracket,
        pullback_alpha=p_alpha,
        pullback_im=p_eps.im,
        pullback_re=p_eps.re,
        detail=detail,
    )


def comass_probe(ccy: CCYStructure, frame) -> Fraction:
    """Exact calibration value of the real volume part on a g-orthonormal frame.

    The frame must be exactly orthonormal for the induced metric; otherwise
    the value would involve an irrational normalization and InputError is
    raised. Returns the signed value (its absolute value is bounded by 1).
    """
    frame = list(frame)
    if len(frame) != ccy.n:
        raise InputError(f"probe frame must have {ccy.n} vectors")
    gram = ccy.metric.restrict(frame)
    for i in range(len(frame)):
        for j in range(len(frame)):
            if gram[i][j] != Fraction(int(i == j)):
                raise InputError("probe frame is not g-orthonormal; use comass_sample")
    return evaluate(ccy.epsilon.re, frame)


_CHUNK = 4096
# Largest comass --samples: 10^6 frames at n = 3 take about 3 s on a 2-CPU
# x86-64 host; goldens and benchmark inputs reach 10^5.
MAX_COMASS_SAMPLES = 10**6


def comass_sample(ccy: CCYStructure, samples: int, seed: int = 0) -> float:
    """Monte Carlo comass estimate of the real volume part.

    Draws random n-frames, orthonormalizes them against the induced metric in
    floating point, and returns the maximum absolute value of Re(epsilon) on
    the frames. Deterministic given the seed (work is split into fixed-size
    chunks with spawned generators).
    """
    if samples <= 0:
        return 0.0
    n, dim = ccy.n, ccy.dim
    g = np.array([[float(x) for x in row] for row in ccy.metric.matrix])
    terms = [(idx, float(c)) for idx, c in ccy.epsilon.re.terms.items()]
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


@dataclass(frozen=True)
class FamilySample:
    t: Fraction
    ccy: CCYStructure


@dataclass(frozen=True)
class FamilySpec:
    """A family of verified structures given at finitely many rational parameters."""

    samples: tuple

    def __iter__(self):
        return iter(self.samples)

    @classmethod
    def from_structures(cls, pairs) -> FamilySpec:
        samples = tuple(FamilySample(Fraction(t), ccy) for t, ccy in pairs)
        return cls(samples)

    @classmethod
    def rotation(cls, ccy: CCYStructure, rotations) -> FamilySpec:
        """Rotate the volume form by exact unit complex numbers.

        `rotations` is a list of (t, cos, sin) with cos^2 + sin^2 = 1. The
        contact form and J are the verified ones of ccy, so each rotated
        epsilon is re-verified by the epsilon clauses of check_ccy alone.
        """
        samples, contact = [], ccy.contact
        for t, c, s in rotations:
            c, s = Fraction(c), Fraction(s)
            if c * c + s * s != 1:
                raise InputError(f"({c}, {s}) is not a unit rotation")
            rotated = ccy.epsilon.scale(c, s)
            rotated = _check_epsilon_clauses(ccy.alg, contact.kappa, [contact.reeb], ccy.J, rotated, ccy.n, False)
            samples.append(FamilySample(Fraction(t), replace(ccy, epsilon=rotated)))
        return cls(tuple(samples))

    @classmethod
    def from_json(cls, alg: LieAlgebra, text: str) -> FamilySpec:
        """Entries {"t": "p/q", "alpha": ..., "J": ..., "epsilon": ...}."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad family JSON: {exc}") from exc
        samples = []
        try:
            for entry in data:
                t = rat(str(entry["t"]))
                alpha = parse_form(entry["alpha"], alg.dim)
                J = parse_endo(entry["J"], alg.dim)
                epsilon = parse_form(entry["epsilon"], alg.dim)
                contact = check_contact(alg, alpha)
                samples.append(FamilySample(t, check_ccy(contact, J, epsilon)))
        except (TypeError, ValueError, KeyError) as exc:
            raise InputError(f"malformed family entry: {exc}") from exc
        return cls(tuple(samples))


@dataclass(frozen=True)
class ObstructionSample:
    t: Fraction
    pullback_im: KForm
    class_zero: bool
    primitive: KForm | None

    def to_dict(self) -> dict:
        return {
            "t": str(self.t),
            "pullback_im": str(self.pullback_im),
            "class_zero": self.class_zero,
            "primitive": str(self.primitive) if self.primitive is not None else None,
        }


def extension_obstruction(sub: Subalgebra, family: FamilySpec) -> list[ObstructionSample]:
    """Per-sample cohomology classes of the pulled-back imaginary volume part.

    For each family parameter the imaginary part is pulled back to the
    subalgebra, verified closed, and its exactness decided in the subalgebra's
    cohomology. A zero class is reported together with one exact primitive.
    The subalgebra must be bracket-closed and special Legendrian at t = 0.
    """
    if not sub.closed_under_bracket:
        raise InputError("extension obstruction needs a bracket-closed subalgebra")
    base = next((s for s in family if s.t == 0), None)
    if base is None:
        raise InputError("family must contain a t = 0 sample")
    report = check_special_legendrian(sub, base.ccy)
    if not report.is_special:
        raise InputError(f"subalgebra is {report.verdict} at t = 0, not SpecialLegendrian")
    sub_alg = sub.induced_algebra()
    out = []
    for sample in family:
        pb = sub.pull(sample.ccy.epsilon.im)
        if not sub_alg.d(pb).is_zero:
            raise InputError(
                f"family malformed at t = {sample.t}: pulled-back form is not closed"
            )
        primitive = is_exact(pb, sub_alg)
        out.append(
            ObstructionSample(
                t=sample.t,
                pullback_im=pb,
                class_zero=primitive is not None,
                primitive=primitive,
            )
        )
    return out
