"""Verification of invariant contact, Sasakian, contact Calabi-Yau, Hypo and
r-contact structures on a Lie algebra.

Results come in two shapes. Single-verdict checks (check_contact,
check_calibrated_complex, check_sasakian, check_ccy) return the verified
structure and raise the CheckError subclass of the first failing clause,
with an exact witness. Multi-clause checks (check_hypo, check_r_contact_ccy)
return a Verdict: the ordered clauses, each with its witness, and the
structure when every clause passes.

The clauses are checked over the ints the forms, vectors and J are stored
in, one common denominator per table (`exterior.common_den`); Fractions are
built only for witnesses. The Reeb fields come from one fraction-free
elimination (`linalg.rref_ints`), positivity from one Gram-matrix elimination
(`linalg.sylvester`). No wedge power is expanded: kappa^n = n! sum_I Pf(K_II)
e^I, so a coefficient is one int `linalg.pfaffian`.
The epsilon clauses read one int table of the contractions iota_{X_k}
epsilon and one d(epsilon), which serves both ccy.basic and ccy.closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial

from . import linalg
from .cealg import LieAlgebra, bracket_terms, d_terms
from .errors import CheckError, InputError
from .exterior import ComplexKForm, Endo, KForm, Metric, Vector, add_terms, common_den, covectors, merge_indices


class NotContactError(CheckError):
    """The 1-form fails the contact volume condition."""


class NotCalibratedError(CheckError):
    """J fails one of the calibrated-complex-structure axioms."""


class NotSasakianError(CheckError):
    """The Nijenhuis condition for a Sasakian structure fails.

    The witness is the first failing basis pair; `failures` lists them all.
    """

    def __init__(self, failures: list[dict]):
        super().__init__("sasakian.nijenhuis", "N_J != -d(alpha) (x) R", failures[0])
        self.failures = tuple(failures)


class CCYError(CheckError):
    """A contact Calabi-Yau clause fails."""


@dataclass(frozen=True)
class Clause:
    """One verified condition with an exact witness for failures."""

    name: str
    ok: bool
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Verdict:
    """The ordered clauses of a multi-clause check; `structure` is set when
    every clause passes."""

    clauses: tuple
    structure: object = None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)

    def failing(self) -> list[Clause]:
        return [c for c in self.clauses if not c.ok]


@dataclass(frozen=True)
class ContactStructure:
    alg: LieAlgebra
    alpha: KForm
    reeb: Vector
    kappa: KForm

    @property
    def n(self) -> int:
        return (self.alg.dim - 1) // 2

    @property
    def dim(self) -> int:
        return self.alg.dim


def _pfaffian_minor(kcols, indices) -> int:
    """Pf(K_II), the e^I coefficient of kappa^n / n! for K the int matrix of
    kappa, read off its sparse columns (`_columns`)."""
    return linalg.pfaffian([[kcols[q - 1].get(p - 1, 0) for q in indices] for p in indices])


def _volume_form(alphas, dalpha: KForm, n: int) -> KForm:
    """alpha_1 ^ ... ^ alpha_r ^ (d alpha)^n, the r-contact volume: its
    coefficient is n! (-1)^(r(r-1)/2) Pf([[D, A], [-A^T, 0]]) for D the matrix
    of d alpha and A[i][k] = alpha_k(X_i), as that Pfaffian is the top
    coefficient of exp(d alpha + sum_k alpha_k ^ f_k) in r extra generators
    f_k. Both blocks are taken over one denominator s."""
    r, dim = len(alphas), dalpha.dim
    (*covs, dnums), s = common_den([*alphas, dalpha])
    covs, cols = [[t.get((i,), 0) for i in range(1, dim + 1)] for t in covs], _columns(dnums, dim)
    bordered = [[col.get(i, 0) for col in cols] + [cov[i] for cov in covs] for i in range(dim)]
    bordered += [[-x for x in cov] + [0] * r for cov in covs]
    sign = -1 if r * (r - 1) // 2 % 2 else 1
    top = sign * factorial(n) * linalg.pfaffian(bordered)
    return KForm._of(dim, dim, {tuple(range(1, dim + 1)): top}, s ** ((dim + r) // 2))


def _solve_reeb(alphas, dalpha: KForm) -> list[Vector] | None:
    """The Reeb fields: alpha_i(R_j) = delta_ij and iota_{R_j} d alpha = 0.

    One sparse elimination, with all r right-hand sides appended, of rows read
    off the term maps: alpha_i, and the columns of the matrix of d alpha (the
    -iota_{X_p} d alpha). Returns None when the solution is not unique or
    does not exist.
    """
    dim = dalpha.dim
    rows = [{**{k - 1: c for (k,), c in a.nums.items()}, dim + i: a.den} for i, a in enumerate(alphas)]
    reduced, pivots, den = linalg.rref_ints(rows + _columns(dalpha.nums, dim))
    if pivots != list(range(dim)):
        return None
    return [Vector._of([row.get(dim + j, 0) for row in reduced], den) for j in range(len(alphas))]


def _contact_n(dim: int) -> int:
    """n for a contact structure on an algebra of dimension dim = 2n + 1."""
    if dim % 2 == 0:
        raise InputError(f"contact structures need odd dimension, got {dim}")
    return (dim - 1) // 2


def _contact_differential(alg: LieAlgebra, alpha: KForm) -> KForm:
    """d alpha, after the input checks that every contact test shares."""
    dim = alg.dim
    _contact_n(dim)
    if not isinstance(alpha, KForm) or alpha.dim != dim or alpha.degree != 1:
        raise InputError("alpha must be a degree-1 form on the algebra")
    return alg.d(alpha)


def _not_contact(alpha: KForm, dalpha: KForm) -> NotContactError:
    return NotContactError(
        "contact.volume",
        f"alpha ^ (d alpha)^{(alpha.dim - 1) // 2} = 0",
        {"alpha": str(alpha), "d_alpha": str(dalpha)},
    )


def check_contact(alg: LieAlgebra, alpha: KForm) -> ContactStructure:
    """Verify the volume condition exactly and solve for the Reeb field.

    alpha ^ (d alpha)^n != 0 iff no nonzero v has alpha(v) = 0 and
    iota_v d alpha = 0 (in odd dimension the kernel of d alpha is then a
    line on which alpha is nonzero), i.e. iff the Reeb system has full rank;
    the Reeb elimination decides both, with no wedge power.
    """
    dalpha = _contact_differential(alg, alpha)
    reebs = _solve_reeb([alpha], dalpha)
    if reebs is None:
        raise _not_contact(alpha, dalpha)
    (reeb,) = reebs
    return ContactStructure(alg=alg, alpha=alpha, reeb=reeb, kappa=KForm._of(alg.dim, 2, dalpha.nums, 2 * dalpha.den))


def xi_basis(alg: LieAlgebra, alphas) -> list[Vector]:
    """Exact basis of the intersection of the kernels of the given 1-forms."""
    basis, den = linalg.kernel(covectors(alphas)[0], alg.dim)
    return [Vector._of(v, den) for v in basis]


def _sparse(v) -> dict[int, int]:
    return {k: x for k, x in enumerate(v) if x}


def _columns(terms: dict, dim: int) -> list[dict]:
    """The sparse columns of the matrix M[i][p] = beta(X_i, X_p) of a 2-form."""
    cols: list[dict] = [{} for _ in range(dim)]
    for (a, b), c in terms.items():
        cols[b - 1][a - 1], cols[a - 1][b - 1] = c, -c
    return cols


def _combine(cells, v: dict) -> dict:
    """sum_k v[k] cells[k] over term maps, for v sparse; zeros dropped."""
    out: dict = {}
    for k, vk in v.items():
        add_terms(out, vk, cells[k])
    return {key: c for key, c in out.items() if c}


def _check_calibration(alg, kappa, alphas, reebs, J) -> Metric:
    """The calibration axioms as identities of sparse int columns, shared by
    the contact (r = 1) and r-contact cases; returns g_J = kappa(., J.) on the
    algebra. Over ints: J = cols / jd, R_k = rs[k] / rd, alpha_k = covs[k] / ad."""
    dim = alg.dim
    cols, jd = J.columns()
    rs, rd = common_den(reebs)
    for idx, (reeb, r) in enumerate(zip(reebs, rs), start=1):
        if _combine(cols, _sparse(r)):
            raise NotCalibratedError(
                "calibrated.J_reeb",
                f"J(R_{idx}) != 0",
                {"reeb": str(reeb), "J_reeb": str(J.apply(reeb))},
            )
    # J^2 = -I + sum_k R_k (x) alpha_k, column by column over jd^2 and s
    covs, ad = covectors(alphas)
    s, jd2, reeb_cols = ad * rd, jd * jd, [_sparse(r) for r in rs]
    square = [_combine(cols, col) for col in cols]
    expected = [add_terms(_combine(reeb_cols, dict(enumerate(cov[j] for cov in covs))), -s, {j: 1}) for j in range(dim)]
    failing = [(i, j) for j, (sq, ex) in enumerate(zip(square, expected))
               for i in set(sq) | set(ex) if sq.get(i, 0) * s != ex.get(i, 0) * jd2]
    if failing:
        i, j = min(failing)
        value, required = Fraction(square[j].get(i, 0), jd2), Fraction(expected[j].get(i, 0), s)
        witness = {"entry": f"({i + 1},{j + 1})", "J^2": str(value), "expected": str(required)}
        raise NotCalibratedError("calibrated.J_square", "J^2 != -I + sum alpha_i (x) R_i", witness)
    # g_J(X_i, X_j) = kappa(X_i, J X_j): column j of K J is sum_p J_pj K[:, p], over gd
    kcols, kd = _columns(kappa.nums, dim), kappa.den
    g = [_combine(kcols, col) for col in cols]  # g[j][i] = g_J(X_i, X_j)
    gd = kd * jd
    asymmetric = [(max(i, j), min(i, j)) for j, col in enumerate(g) for i, x in col.items() if g[i].get(j, 0) != x]
    if asymmetric:
        i, j = min(asymmetric)
        gij, gji = Fraction(g[j].get(i, 0), gd), Fraction(g[i].get(j, 0), gd)
        witness = {"pair": f"(X{j + 1},X{i + 1})", "g(Xi,Xj)": str(gij), "g(Xj,Xi)": str(gji)}
        raise NotCalibratedError("calibrated.symmetric", "kappa(., J.) is not symmetric", witness)
    basis, fd = linalg.kernel(covs, dim)
    frame = [_sparse(v) for v in basis]
    gframe = [_combine(g, v) for v in frame]
    gram = [[sum(x * gv.get(i, 0) for i, x in u.items()) for gv in gframe] for u in frame]  # over gd fd^2
    minors, adjugate = linalg.sylvester(gram)
    if adjugate is None:
        k, den = len(minors), gd * fd * fd
        raise NotCalibratedError(
            "calibrated.positive",
            "g_J is not positive definite on the contact distribution",
            {
                "witness_vector": str(Vector._of(basis[k - 1], fd)),
                "leading_minor": str(Fraction(minors[-1], den**k)),
                "g(v,v)": str(Fraction(gram[k - 1][k - 1], den)),
            },
        )
    # J-invariance on xi follows: g_J(Ju, Jv) = kappa(Ju, J^2 v) = -kappa(Ju, v) = g_J(v, u)
    return Metric._of([[g[j].get(i, 0) for j in range(dim)] for i in range(dim)], gd)


def check_calibrated_complex(contact: ContactStructure, J: Endo) -> Metric:
    """Verify J(R)=0, J^2 = -I + alpha (x) R and that kappa(., J.) is a
    J-invariant positive inner product on the contact distribution.

    Returns g_J as a degenerate bilinear form on the whole algebra.
    """
    return _check_calibration(
        contact.alg, contact.kappa, [contact.alpha], [contact.reeb], J
    )


def _nijenhuis_table(J: Endo, alg: LieAlgebra) -> tuple[dict, int]:
    """(table, den): table[(i, j)] is N(X_i, X_j) != 0 for 1-based i < j, as
    sparse ints over den = jd^2 Cd, for J = cols / jd and the cells over Cd."""
    cols, jd = J.columns()
    (cells, cd), table = alg.brackets, {}
    for i, j in combinations(range(alg.dim), 2):
        # N = [JX, JY] - J([JX, Y] + [X, JY] - J[X, Y]), over jd^2 Cd
        inner = add_terms(bracket_terms(cells, cols[i], {j: 1}), 1, bracket_terms(cells, {i: 1}, cols[j]))
        add_terms(inner, -1, _combine(cols, cells[i].get(j, {})))
        out = add_terms(bracket_terms(cells, cols[i], cols[j]), -1, _combine(cols, inner))
        if any(out.values()):
            table[(i + 1, j + 1)] = out
    return table, jd * jd * cd


def nijenhuis_tensor(J: Endo, alg: LieAlgebra) -> dict[tuple[int, int], Vector]:
    """The exact Nijenhuis tensor N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] + J^2[X, Y]
    as the table {(i, j): N(X_i, X_j)} over the 1-based pairs i < j, contracted
    from the algebra's bracket cells."""
    if J.dim != alg.dim:
        raise InputError("endomorphism/algebra dimension mismatch")
    table, den = _nijenhuis_table(J, alg)
    return {key: Vector._of([table.get(key, {}).get(k, 0) for k in range(alg.dim)], den)
            for key in combinations(range(1, alg.dim + 1), 2)}


def _nijenhuis_failures(alg: LieAlgebra, J: Endo, dalpha: KForm, reeb: Vector) -> list[dict]:
    """The basis pairs where N_J != -d(alpha) (x) R, with both sides; for
    N = num / den, R = rs / rd and d alpha(X_i, X_j) = p / q, num q rd = -p rs den."""
    table, den = _nijenhuis_table(J, alg)
    rs, rd, q = reeb.nums, reeb.den, dalpha.den
    failures = []
    for i, j in sorted(set(table) | set(dalpha.nums)):
        num, p = table.get((i, j), {}), dalpha.nums.get((i, j), 0)
        if {k: x * q * rd for k, x in num.items() if x} != {k: -p * y * den for k, y in enumerate(rs) if p * y}:
            lhs, rhs = Vector._of([num.get(k, 0) for k in range(alg.dim)], den), reeb * Fraction(-p, q)
            failures.append({"pair": f"(X{i},X{j})", "nijenhuis": str(lhs), "required": str(rhs)})
    return failures


@dataclass(frozen=True)
class SasakianStructure:
    contact: ContactStructure
    J: Endo
    g_j: Metric


def check_sasakian(contact: ContactStructure, J: Endo) -> SasakianStructure:
    """Verify N_J = -d(alpha) (x) R on all basis pairs, exactly.

    Requires the calibration axioms; a calibration failure raises
    NotCalibratedError before any Nijenhuis evaluation. A Nijenhuis failure
    raises NotSasakianError carrying every failing pair.
    """
    g_j = check_calibrated_complex(contact, J)
    failures = _nijenhuis_failures(contact.alg, J, contact.kappa * 2, contact.reeb)
    if failures:
        raise NotSasakianError(failures)
    return SasakianStructure(contact=contact, J=J, g_j=g_j)


def volume_constant(n: int) -> tuple[int, int]:
    """The complex normalization constant (-1)^{n(n+1)/2} (2i)^n as (re, im)."""
    re, im = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}[n % 4]
    s = (-1) ** ((n * (n + 1) // 2) % 2) * 2**n
    return s * re, s * im


@dataclass(frozen=True)
class CCYStructure:
    """A verified contact Calabi-Yau triple with its induced metric data."""

    contact: ContactStructure
    J: Endo
    epsilon: ComplexKForm
    g_j: Metric
    metric: Metric

    @property
    def alg(self) -> LieAlgebra:
        return self.contact.alg

    @property
    def n(self) -> int:
        return self.contact.n

    @property
    def dim(self) -> int:
        return self.contact.dim


def induced_metric(g_j: Metric, alpha: KForm) -> Metric:
    """The Riemannian metric g_J + alpha (x) alpha of a calibrated structure,
    over ints: g_J = G / gd and alpha = a / ad give (ad^2 G + gd a a^T) / (gd ad^2)."""
    (cov,), ad = covectors([alpha])
    s = ad * ad
    rows = [[s * x + g_j.den * ci * cj for x, cj in zip(row, cov)] for row, ci in zip(g_j.num, cov)]
    return Metric._of(rows, g_j.den * s)


def _proportionality(lhs, rhs) -> Fraction | None:
    """The one rational t with rhs = t * lhs in both parts (re, im), if any.
    On a line of forms one coefficient of each part decides."""
    ratios = {b / a for a, b in zip(lhs, rhs) if a}
    if len(ratios) == 1 and all(a or not b for a, b in zip(lhs, rhs)):
        return ratios.pop()
    return None


def _wedge_conjugate_at(parts, index) -> tuple[int, int]:
    """The e^index coefficient of epsilon ^ conj(epsilon) as (re, im) over
    den^2, for epsilon = (re + i im) / den in int term maps, one lookup per
    term: (a + ib)_J (a - ib)_K summed over J + K = index."""
    re_terms, im_terms = parts
    members = set(index)
    re = im = 0
    for key in set(re_terms) | set(im_terms):
        if members.issuperset(key):
            a, b = re_terms.get(key, 0), im_terms.get(key, 0)
            rest = tuple(k for k in index if k not in key)
            sign, _ = merge_indices(key, rest)
            c, d = re_terms.get(rest, 0), im_terms.get(rest, 0)
            re += sign * (a * c + b * d)
            im += sign * (b * c - a * d)
    return re, im


def _contractions(terms: dict, dim: int) -> list[dict]:
    """cells[k] = the terms of iota_{X_(k+1)} of the form with these terms."""
    cells: list[dict] = [{} for _ in range(dim)]
    for idx, c in terms.items():
        for pos, k in enumerate(idx):
            cells[k - 1][idx[:pos] + idx[pos + 1 :]] = -c if pos % 2 else c
    return cells


def _complex_form(parts, dim: int, degree: int, den: int) -> ComplexKForm:
    """The ComplexKForm of int term maps (re, im) over den."""
    return ComplexKForm(*(KForm._of(dim, degree, terms, den) for terms in parts))


def _complex_epsilon(epsilon, dim: int, n: int) -> ComplexKForm:
    """epsilon as a complex form, after the input checks the epsilon clauses
    need: a form of degree n >= 1 on the algebra. check_ccy and
    check_r_contact_ccy run them before their first clause, so a wrong degree
    is an input error whichever clause would fail."""
    if not isinstance(epsilon, ComplexKForm):
        epsilon = ComplexKForm.from_real(epsilon)
    if epsilon.dim != dim or epsilon.degree != n:
        raise InputError(f"epsilon must be a complex degree-{n} form")
    if n == 0:  # a 1-dimensional algebra: a 0-form has no interior product
        raise InputError("contract: cannot contract a degree-0 form")
    return epsilon


def ccy_epsilon(alg: LieAlgebra, epsilon) -> ComplexKForm:
    """epsilon checked as the volume form of a contact structure on alg, for a
    caller that parses it before check_contact runs: a wrong degree is then an
    input error even where alpha is not contact."""
    return _complex_epsilon(epsilon, alg.dim, _contact_n(alg.dim))


def _check_epsilon_clauses(alg, kappa, reebs, J, epsilon: ComplexKForm, n, strict_def31) -> None:
    """Basic / type-(n,0) / closedness / normalization clauses for a complex
    epsilon of degree n (`_complex_epsilon`).

    Over ints: epsilon = (re + i im) / den, and C_k = iota_{X_k} epsilon is
    tabulated once, so iota_v epsilon = sum_k v_k C_k for every v the clauses
    contract with. d(epsilon) is computed once: it is the closedness witness,
    and once iota_R epsilon = 0, Cartan's formula leaves L_R epsilon =
    iota_R d(epsilon).
    """
    dim = alg.dim
    parts, den = common_den((epsilon.re, epsilon.im))
    cells = [_contractions(terms, dim) for terms in parts]  # cells[part][k] = C_k, over den
    d1, dd = alg.d1_ints
    deps = [{idx: c for idx, c in d_terms(d1, terms).items() if c} for terms in parts]  # over den dd
    # (a) basic with respect to every Reeb field
    for idx, reeb in enumerate(reebs, start=1):
        rs, rd = reeb.nums, reeb.den
        cont = [_combine(part, _sparse(rs)) for part in cells]
        if any(cont):
            raise CCYError(
                "ccy.basic",
                f"iota_R{idx} epsilon != 0",
                {"contraction": str(_complex_form(cont, dim, n - 1, den * rd))},
            )
        lie = [_combine(_contractions(terms, dim), _sparse(rs)) for terms in deps]
        if any(lie):
            raise CCYError(
                "ccy.basic",
                f"Lie derivative of epsilon along R{idx} != 0",
                {"lie_derivative": str(_complex_form(lie, dim, n, den * dd * rd))},
            )
    # (b) type (n,0): iota_{J X_i} epsilon = i iota_{X_i} epsilon for every basis
    # vector, sum_k J_ki C_k = i C_i over J's columns / jd
    jcols, jd = J.columns()
    re_cells, im_cells = cells
    for i, jcol in enumerate(jcols):
        lhs = [_combine(part, jcol) for part in cells]
        rhs = [{key: -jd * c for key, c in im_cells[i].items()}, {key: jd * c for key, c in re_cells[i].items()}]
        if lhs != rhs:
            raise CCYError(
                "ccy.type",
                f"iota_(J X{i + 1}) epsilon != i * iota_(X{i + 1}) epsilon",
                {"lhs": str(_complex_form(lhs, dim, n - 1, den * jd)),
                 "rhs": str(_complex_form(rhs, dim, n - 1, den * jd))},
            )
    # epsilon ^ kappa = 0 follows: J preserves xi, so it is a horizontal (n+1,1)-form
    # (c) closedness
    if any(deps):
        raise CCYError("ccy.closed", "d epsilon != 0", {"d_epsilon": str(_complex_form(deps, dim, n + 1, den * dd))})
    # (d) normalization. epsilon ^ conj(epsilon) and kappa^n are horizontal
    # 2n-forms (every iota_R kills both), a line, so one coefficient decides:
    # e^I, I the complement of the pivot coordinates of the Reeb fields.
    # Over ints: the lhs over den^2, and Pf(K_II) of the int K over kd^n.
    c_re, c_im = volume_constant(n)
    scale = factorial(n) if strict_def31 else 1  # kappa^n = n! sum_I Pf(K_II) e^I
    kcols, kdn = _columns(kappa.nums, dim), kappa.den**n
    pivots = {col for col, _, _ in linalg._eliminate([_sparse(reeb.nums) for reeb in reebs])}
    index = tuple(k for k in range(1, dim + 1) if k - 1 not in pivots)
    top = scale * _pfaffian_minor(kcols, index)
    lhs, rhs = _wedge_conjugate_at(parts, index), (c_re * top, c_im * top)
    if any(x * kdn != y * den * den for x, y in zip(lhs, rhs)):
        lhs, rhs = [Fraction(x, den * den) for x in lhs], [Fraction(y, kdn) for y in rhs]
        indices = combinations(range(1, dim + 1), 2 * n)
        top = KForm._of(dim, 2 * n, {I: scale * _pfaffian_minor(kcols, I) for I in indices}, kdn)
        rhs_form = ComplexKForm(c_re * top, c_im * top)
        lhs_form = epsilon.wedge(epsilon.conjugate())
        witness = {
            "lhs (epsilon ^ conj)": str(lhs_form),
            "rhs (required)": str(rhs_form),
            "mode": "strict Def" if strict_def31 else "with 1/n!",
        }
        ratio = _proportionality(lhs, rhs)
        if ratio is not None:
            witness["ratio_rhs_over_lhs"] = str(ratio)
        raise CCYError("ccy.normalization", "volume normalization fails", witness)


def check_ccy(
    contact: ContactStructure,
    J: Endo,
    epsilon: ComplexKForm,
    strict_def31: bool = False,
) -> CCYStructure:
    """Full contact Calabi-Yau verification.

    Clauses: epsilon basic, type (n,0), closed, and the exact volume
    normalization with constant (-1)^{n(n+1)/2} (2i)^n. The default
    normalization carries the 1/n! factor (the convention under which the
    standard nilpotent examples close up exactly); strict_def31 drops it.
    A real epsilon is taken as a complex form; one of the wrong degree is an
    input error, raised first. Preconditions (calibration, Sasakian) are
    verified next and raise their own errors.
    """
    epsilon = _complex_epsilon(epsilon, contact.dim, contact.n)
    sasakian = check_sasakian(contact, J)
    _check_epsilon_clauses(contact.alg, contact.kappa, [contact.reeb], J, epsilon, contact.n, strict_def31)
    return CCYStructure(
        contact=contact,
        J=J,
        epsilon=epsilon,
        g_j=sasakian.g_j,
        metric=induced_metric(sasakian.g_j, contact.alpha),
    )


@dataclass(frozen=True)
class HypoStructure:
    alpha: KForm
    omega1: KForm
    omega2: KForm
    omega3: KForm


def check_hypo(alpha, omega1, omega2, omega3, alg: LieAlgebra) -> Verdict:
    """Hypo conditions on a 5-dimensional algebra.

    Condition 1 and the closedness condition 3 are verified exactly. The
    pointwise compatibility condition 2 involves an orientation-dependent
    inequality; it is verified in the weakened exact form: the pairwise
    wedge products vanish and the three squares agree and are nonzero with
    v ^ alpha != 0 (which is condition 1), and the check is flagged as
    weakened in the resulting clause list.
    """
    if alg.dim != 5:
        raise InputError("Hypo structures are 5-dimensional")
    omegas = [omega1, omega2, omega3]
    degrees = [(alpha, 1)] + [(w, 2) for w in omegas]
    if not all(isinstance(f, KForm) and f.degree == k for f, k in degrees):
        raise InputError("Hypo structures need a real 1-form alpha and three real 2-forms")
    # each clause fails exactly when its witness is nonempty
    products: dict = {}
    for (a, wa), (b, wb) in combinations(enumerate(omegas, start=1), 2):
        prod = wa.wedge(wb)
        if not prod.is_zero:
            products[f"omega{a}^omega{b}"] = str(prod)
    squares = [w.wedge(w) for w in omegas]
    v = squares[0]
    if squares[1] != v or squares[2] != v:
        products["squares"] = ", ".join(str(s) for s in squares)
    if v.is_zero:
        products["v"] = "0"
    if v.wedge(alpha).is_zero:
        products["v^alpha"] = "0"
    closed: dict = {}
    for name, form in (("omega1", omega1), ("omega2^alpha", omega2.wedge(alpha)),
                       ("omega3^alpha", omega3.wedge(alpha))):
        dform = alg.d(form)
        if not dform.is_zero:
            closed[f"d({name})"] = str(dform)
    note = {"note": "verified in weakened exact form (wedge orthogonality and equal squares)"}
    clauses = (
        Clause("hypo.1.products", not products, products),
        Clause("hypo.2.compatibility", not products, note),
        Clause("hypo.3.closedness", not closed, closed),
    )
    ok = not (products or closed)
    return Verdict(clauses, HypoStructure(alpha, omega1, omega2, omega3) if ok else None)


@dataclass(frozen=True)
class RContactStructure:
    alg: LieAlgebra
    alphas: tuple
    reebs: tuple
    kappa: KForm
    J: Endo
    epsilon: ComplexKForm


def check_r_contact_ccy(
    alg: LieAlgebra, alphas, J: Endo, epsilon, strict_def31: bool = False
) -> Verdict:
    """Verify an r-contact Calabi-Yau structure clause by clause.

    One chain for every r, stopping at the first failing clause: equal
    differentials, volume, Reeb family, calibration, for r = 1 the Sasakian
    (Nijenhuis) condition, then the epsilon clauses of check_ccy.
    """
    alphas = list(alphas)
    r = len(alphas)
    if r == 0:
        raise InputError("need at least one 1-form")
    if (alg.dim - r) % 2 or alg.dim - r <= 0:
        raise InputError(f"dimension {alg.dim} is not 2n + {r}")
    if not all(isinstance(a, KForm) and a.dim == alg.dim and a.degree == 1 for a in alphas):
        raise InputError("alpha must be a degree-1 form on the algebra")
    n = (alg.dim - r) // 2
    epsilon = _complex_epsilon(epsilon, alg.dim, n)
    clauses = []
    try:
        dalpha = alg.d(alphas[0])
        for idx, a in enumerate(alphas[1:], start=2):
            da = alg.d(a)
            if da != dalpha:
                witness = {"d(alpha1)": str(dalpha), f"d(alpha{idx})": str(da)}
                raise CheckError("rccy.equal_differentials", "d(alpha_i) differ", witness)
        clauses.append(Clause("rccy.equal_differentials", True))
        volume = _volume_form(alphas, dalpha, n)
        if volume.is_zero:
            witness = {"alpha1^...^alphar^(dalpha)^n": "0"}
            raise CheckError("rccy.volume", "the volume form is zero", witness)
        clauses.append(Clause("rccy.volume", True, {"volume_form": str(volume)}))
        reebs = _solve_reeb(alphas, dalpha)
        if reebs is None:
            note = {"note": "no unique Reeb family"}
            raise CheckError("rccy.reeb_family", "no unique Reeb family", note)
        reeb_detail = {f"R{i + 1}": str(v) for i, v in enumerate(reebs)}
        clauses.append(Clause("rccy.reeb_family", True, reeb_detail))
        kappa = KForm._of(alg.dim, 2, dalpha.nums, 2 * dalpha.den)
        _check_calibration(alg, kappa, alphas, reebs, J)
        clauses.append(Clause("rccy.calibrated", True))
        if r == 1:
            failures = _nijenhuis_failures(alg, J, dalpha, reebs[0])
            if failures:
                raise NotSasakianError(failures)
            clauses.append(Clause("rccy.sasakian", True))
        _check_epsilon_clauses(alg, kappa, reebs, J, epsilon, n, strict_def31)
        clauses.append(Clause("rccy.epsilon", True))
    except CheckError as exc:
        clauses.append(Clause(exc.check, False, exc.witness))
        return Verdict(tuple(clauses))
    structure = RContactStructure(alg, tuple(alphas), tuple(reebs), kappa, J, epsilon)
    return Verdict(tuple(clauses), structure)
