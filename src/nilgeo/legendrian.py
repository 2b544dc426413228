"""Special Legendrian subalgebras, calibration sampling, and the extension
obstruction on families of volume forms.

The invariant model of a compact submanifold is a subalgebra of the ambient
algebra; pullbacks and cohomology classes are computed exactly in its
Chevalley-Eilenberg complex.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction

from . import linalg
from .algdsl import parse_endo, parse_form
from .cealg import LieAlgebra, is_exact, span_algebra
from .errors import InputError
from .exterior import ComplexKForm, KForm, add_terms, common_den, evaluate, literal, rat, ratio, read_json, wedge_terms
from .structures import CCYStructure, _complex_form, ccy_epsilon, check_ccy, check_contact


class Subalgebra:
    """A subspace of the parent algebra spanned by exact vectors.

    Independence is verified at construction, and closure under the bracket
    computed (not required) in the same elimination (`cealg.span_algebra`);
    when the subspace is closed, the induced Lie algebra on it is kept for
    cohomology computations. The basis is kept as int coordinates over one
    denominator, `nums` / `den`.
    """

    def __init__(self, parent: LieAlgebra, basis):
        basis = list(basis)
        if not basis:
            raise InputError("subalgebra needs at least one basis vector")
        if any(v.dim != parent.dim for v in basis):
            raise InputError("basis vector dimension mismatch")
        try:
            self._induced = span_algebra(parent, basis)
        except ValueError:
            raise InputError("subalgebra basis is linearly dependent") from None
        self.parent = parent
        self.basis = basis
        self.nums, self.den = common_den(basis)
        self.closed_under_bracket = self._induced is not None
        # row i of the coordinate matrix V[i][j] = v_j(e^(i+1)), as the 1-form
        # it pulls e^(i+1) back to in the dual basis f^1..f^m, over den
        self._rows = [{(j,): v[i] for j, v in enumerate(self.nums, start=1) if v[i]} for i in range(parent.dim)]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def induced_algebra(self) -> LieAlgebra:
        """Chevalley-Eilenberg structure of the subalgebra (requires closure)."""
        if not self.closed_under_bracket:
            raise InputError("subspace is not closed under the bracket")
        return self._induced

    def pull(self, form):
        """The restriction of a form to the span, in the dual basis of the
        spanning vectors. e^I pulls back to the wedge of the rows V[i], i in
        I, so each coefficient is a sum of k x k minors of V (Cauchy-Binet);
        each term of the form is expanded once, over ints. Independence was
        decided at construction."""
        if isinstance(form, ComplexKForm):
            return ComplexKForm(self.pull(form.re), self.pull(form.im))
        if form.dim != self.parent.dim:
            raise InputError("pullback: vector dimension mismatch")
        out: dict = {}
        for idx, c in form.nums.items():
            terms = {(): c}
            for i in idx:
                terms = wedge_terms(terms, self._rows[i - 1])
            add_terms(out, 1, terms)
        return KForm._of(self.dim, form.degree, out, form.den * self.den**form.degree)


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
        # Over ints: c = num / re.den, and the Gram matrix of the basis is
        # positive definite (g is), so its determinant is the last leading minor
        num, g = p_eps.re.nums.get(tuple(range(1, n + 1)), 0), ccy.metric
        gv = [linalg.matvec(g.num, v) for v in sub.nums]
        minors, adjugate = linalg.sylvester([[linalg.dot(u, w) for w in gv] for u in sub.nums])
        if adjugate is None:
            raise ArithmeticError("the Gram matrix of independent vectors is not positive definite")
        det_num, det_den = minors[-1], (g.den * sub.den**2) ** n
        detail["volume_coefficient"] = ratio(num, p_eps.re.den)
        detail["gram_determinant"] = ratio(det_num, det_den)
        if num == 0 or num * num * det_den != det_num * p_eps.re.den**2 or len(p_eps.re.nums) != 1:
            verdict = LegendrianVerdict.LEGENDRIAN_ONLY
            detail["calibration"] = "pullback of Re epsilon is not the induced volume form"
        else:
            verdict = LegendrianVerdict.SPECIAL_LEGENDRIAN
            detail["orientation"] = "+1" if num > 0 else "-1"
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
# Largest comass --samples: 10^6 frames take about 1.6-1.9 s at n = 3 and
# 10-12 s at n = 5 on a 2-CPU x86-64 host; goldens and benchmark inputs reach
# 10^5.
MAX_COMASS_SAMPLES = 10**6


def comass_sample(ccy: CCYStructure, samples: int, seed: int = 0) -> float:
    """Monte Carlo comass estimate of the real volume part.

    Draws random n-frames, orthonormalizes them against the induced metric in
    floating point, and returns the maximum absolute value of Re(epsilon) on
    the frames. Deterministic given the seed (work is split into fixed-size
    chunks with spawned generators).

    The frames are held as (vector, coordinate, sample), so that each
    coordinate row is contiguous across the batch. A g-inner product of two
    vectors is the sum of (a[d] * g[d][e]) * b[e] over the nonzero cells of g
    in row-major order, added one term at a time to +0.0: per sample, that is
    the float `np.einsum("sd,de,se->s", a, g, b)` computes, and a skipped zero
    cell would only add a signed zero. The value of each frame is the sum of
    coeff * det over epsilon's terms, one `np.linalg.det` call per term.
    """
    import numpy as np  # only this sampler needs it

    if samples <= 0:
        return 0.0
    n, dim, re = ccy.n, ccy.dim, ccy.epsilon.re
    try:
        cells = [(d, e, x / ccy.metric.den) for d, row in enumerate(ccy.metric.num) for e, x in enumerate(row) if x]
        terms = [([k - 1 for k in idx], c / re.den) for idx, c in re.nums.items()]
    except OverflowError as exc:  # an int ratio past the float range
        raise InputError(f"comass --samples needs the metric and epsilon in floating-point range: {exc}") from None

    def dot(a, b, out, term):
        out.fill(0.0)
        for d, e, x in cells:
            np.multiply(a[d], x, out=term)
            term *= b[e]
            out += term
        return out

    nchunks = (samples + _CHUNK - 1) // _CHUNK
    seeds = np.random.SeedSequence(seed).spawn(nchunks)
    best = 0.0
    for ci in range(nchunks):
        count = min(_CHUNK, samples - ci * _CHUNK)
        rng = np.random.default_rng(seeds[ci])
        frames = np.ascontiguousarray(rng.standard_normal((count, n, dim)).transpose(1, 2, 0))
        inner, term = np.empty(count), np.empty(count)
        # Gram-Schmidt against g across the batch
        for i in range(n):
            v = frames[i]
            for j in range(i):
                v -= dot(v, frames[j], inner, term) * frames[j]
            norms = np.sqrt(dot(v, v, inner, term))
            good = norms > 1e-12
            np.divide(v, norms, out=v, where=good)
            if not good.all():
                v[:, ~good] = 0.0  # degenerate draw contributes value 0
        values = np.zeros(count)
        for cols, coeff in terms:
            values += coeff * np.linalg.det(frames[:, cols].transpose(2, 0, 1))
        best = max(best, float(np.max(np.abs(values))))
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
    def rotation(cls, ccy: CCYStructure, rotations) -> FamilySpec:
        """Rotate the volume form of a verified structure by exact unit complex numbers.

        `rotations` is a list of (t, cos, sin) with cos^2 + sin^2 = 1, which is
        checked exactly. Sample t is ccy with epsilon replaced by (cos + i sin)
        epsilon, scaled on epsilon's int term maps, and its clauses are not run
        again. They hold: ccy passed check_ccy, and the rotation keeps alpha
        and J, so every clause keeps its coefficients. The basic clause
        (iota_R epsilon = 0 and L_R epsilon = 0), type (n,0) (iota_{J X}
        epsilon = i iota_X epsilon) and closedness (d epsilon = 0) are
        C-linear equations in epsilon, so u epsilon solves them for every
        complex u. The normalization compares epsilon ^ conj(epsilon) with a
        fixed multiple of kappa^n, and (u epsilon) ^ conj(u epsilon) = |u|^2
        epsilon ^ conj(epsilon), with |u|^2 = cos^2 + sin^2 = 1.
        """
        samples, dim, degree = [], ccy.epsilon.dim, ccy.epsilon.degree
        (re, im), den = common_den((ccy.epsilon.re, ccy.epsilon.im))
        for t, c, s in rotations:
            (cp, cq), (sp, sq) = literal(c), literal(s)
            a, b, q = cp * sq, sp * cq, cq * sq  # cos = a / q, sin = b / q
            if a * a + b * b != q * q:
                raise InputError(f"({ratio(cp, cq)}, {ratio(sp, sq)}) is not a unit rotation")
            rotated = (add_terms({k: a * x for k, x in re.items()}, -b, im),
                       add_terms({k: b * x for k, x in re.items()}, a, im))
            epsilon = _complex_form(rotated, dim, degree, den * q)
            samples.append(FamilySample(Fraction(t), replace(ccy, epsilon=epsilon)))
        return cls(tuple(samples))

    @classmethod
    def from_json(cls, alg: LieAlgebra, text: str) -> FamilySpec:
        """Entries {"t": "p/q", "alpha": ..., "J": ..., "epsilon": ...}."""
        data = read_json(text, "family")
        samples = []
        try:
            for entry in data:
                t = rat(entry["t"])
                alpha = parse_form(entry["alpha"], alg.dim)
                J = parse_endo(entry["J"], alg.dim)
                epsilon = ccy_epsilon(alg, parse_form(entry["epsilon"], alg.dim))
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
