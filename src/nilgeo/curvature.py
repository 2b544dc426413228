"""Left-invariant Riemannian geometry, all exact.

Every curvature quantity is a contraction of two tables, the algebra's
sparse bracket cells and the Connection's Christoffel table, built once per
algebra and per metric:

    c[i][j][k]      X_k component of [X_i, X_j]        (the bracket cells)
    gamma[i][j][k]  X_k component of nabla_{X_i} X_j   (Christoffel symbols)

gamma comes from the Koszul formula; Ricci and scalar curvature are single
contractions over it, and the transverse connection of a contact structure is
tabulated the same way on the basis, so its Ricci tensor, parallelism flags and
torsion are contractions too. The transverse Ricci tensor is computed from the
curvature definition and checked against the Ricci identity.

The kernels are fraction-free: the algebra, the metric, the Connection and
the CurvatureReport each store their tables as int numerators over one
common denominator, the contractions multiply and add ints, and each
reported entry becomes a Fraction exactly once. Tables are indexed from 0;
c is sparse (`LieAlgebra.brackets`), gamma dense.

Sign conventions, pinned so the curvature of the standard contact Calabi-Yau
examples comes out with lambda = -2:

    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    Ric(X, Y) = trace(Z -> R(Z, X) Y)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import linalg
from .cealg import LieAlgebra, bracket_terms
from .errors import CheckError, InputError
from .exterior import KForm, Metric, Vector, covector, two_form_matrix
from .linalg import axpy, bilinear, contract_first, dot, lincomb, matvec, scaled
from .structures import induced_metric


class NotAlphaEinsteinError(CheckError):
    """Ric is not of the form lambda g + nu alpha (x) alpha."""


@dataclass(frozen=True)
class Connection:
    """Levi-Civita connection as one Christoffel table (see the module doc),
    gamma = num / den in ints, with the inverse metric it was raised by as
    ginv = (ints, den); `gamma` is the table as Fractions."""

    alg: LieAlgebra
    metric: Metric
    ginv: tuple
    num: list
    den: int

    @cached_property
    def gamma(self) -> tuple:
        return tuple(
            tuple(tuple(Fraction(x, self.den) for x in cell) for cell in row) for row in self.num
        )

    def nabla_basis(self, i: int, j: int) -> Vector:
        """nabla_{X_i} X_j for 1-based basis indices."""
        return Vector(self.gamma[i - 1][j - 1])


def levi_civita(alg: LieAlgebra, g: Metric) -> Connection:
    """Koszul formula: 2 g(nabla_X Y, Z) = g([X,Y],Z) - g([Y,Z],X) + g([Z,X],Y).

    The lowered symbols are raised by the inverse metric. The raised table is
    verified to be torsion-free and metric-compatible before it is returned
    (an internal consistency guard, not a user-facing check).

    With g = G / D, g^-1 = M / E and c = C / Cd in ints, twice the lowered
    symbols lie over Cd D, so gamma = M.(twice lowered) / (2 E Cd D).
    """
    n = alg.dim
    if g.dim != n:
        raise InputError("metric dimension mismatch")
    if not g.is_positive_definite():
        raise InputError("levi_civita: metric is not positive definite")
    (cells, cd), gm, d, (m, e) = alg.brackets, g.num, g.den, g.inverse()
    # twice the lowered symbols, low_ijk = gc_ijk - gc_jki + gc_kij over cd d, for
    # gc_ijk = g([X_i, X_j], X_k): each nonzero gc entry lands in three places
    low = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(cells):
        for j, cell in row.items():
            for k, v in enumerate(lincomb([gm[p] for p in cell], cell.values())):
                if v:
                    low[i][j][k] += v
                    low[k][i][j] -= v
                    low[j][k][i] += v
    num = [[matvec(m, cell) if any(cell) else cell for cell in row] for row in low]
    torsion = 2 * e * d  # gamma_ij - gamma_ji = c_ij reads num_ij - num_ji = torsion C_ij
    for i in range(n):
        for j in range(n):
            cell = cells[i].get(j, {})
            if any(a - b != torsion * cell.get(k, 0) for k, (a, b) in enumerate(zip(num[i][j], num[j][i]))):
                raise ArithmeticError(f"Koszul connection has torsion at ({i + 1},{j + 1})")
        lowered = [matvec(gm, cell) if any(cell) else cell for cell in num[i]]
        for j in range(n):
            for k in range(j, n):
                if lowered[j][k] + lowered[k][j] != 0:
                    raise ArithmeticError(f"connection not metric at ({i + 1},{j + 1},{k + 1})")
    return Connection(alg, g, (m, e), num, torsion * cd)


def riemann(conn: Connection, x: Vector, y: Vector, z: Vector) -> Vector:
    """R(X, Y)Z for invariant fields."""
    xy = conn.alg.bracket(x, y).coeffs
    gamma, x, y, z = conn.gamma, x.coeffs, y.coeffs, z.coeffs
    first = bilinear(gamma, x, bilinear(gamma, y, z))
    second = bilinear(gamma, y, bilinear(gamma, x, z))
    third = bilinear(gamma, xy, z)
    return Vector([a - b - d for a, b, d in zip(first, second, third)])


@dataclass(frozen=True)
class CurvatureReport:
    """The Ricci tensor and the scalar curvature. `ints` is (num, den), the
    Ricci tensor as ints over one denominator, which check_alpha_einstein and
    transverse_ricci read; a report built from `ricci` alone scales it once."""

    ricci: tuple
    scalar: Fraction
    ints: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.ints is None:
            object.__setattr__(self, "ints", scaled(self.ricci))


def ricci_scalar(alg: LieAlgebra, g: Metric, conn: Connection | None = None) -> CurvatureReport:
    """Ricci tensor and scalar curvature as one contraction of the Christoffel table.

    Ric_ij = sum_m gamma_ij^m t_m - sum_km gamma_im^k gamma_kj^m
             - sum_km c_ki^m gamma_mj^k,   t_m = sum_k gamma_km^k,

    the three terms of trace(Z -> R(Z, X_i) X_j). Over the connection's ints,
    gamma = Gamma / Delta and c = C / Cd, the numerator of Ric_ij is
    Cd (Gamma_ij.t - sum Gamma Gamma) - Delta sum C Gamma, over Cd Delta^2.
    Pass `conn` to reuse the connection of (alg, g) instead of building it again.
    """
    conn = conn or levi_civita(alg, g)
    n = alg.dim
    (cells, cd), gamma, delta = alg.brackets, conn.num, conn.den
    trace = [sum(gamma[k][m][k] for k in range(n)) for m in range(n)]
    # the nonzero factors gamma_im^k and c_ki^m = -c_ik^m of the quadratic terms, by i
    gam_nz = [[(m, k, x) for m in range(n) for k, x in enumerate(g_i[m]) if x] for g_i in gamma]
    c_nz = [[(k, m, -x) for k, cell in row.items() for m, x in cell.items()] for row in cells]
    num = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            quadratic = sum(x * gamma[k][j][m] for m, k, x in gam_nz[i])
            bracket = sum(x * gamma[m][j][k] for k, m, x in c_nz[i])
            num[i][j] = num[j][i] = cd * (dot(gamma[i][j], trace) - quadratic) - delta * bracket
    den = cd * delta * delta
    ric = tuple(tuple(Fraction(x, den) for x in row) for row in num)
    m, e = conn.ginv
    scalar = Fraction(sum(dot(mi, ri) for mi, ri in zip(m, num)), e * den)
    return CurvatureReport(ricci=ric, scalar=scalar, ints=(num, den))


def check_alpha_einstein(report: CurvatureReport, g: Metric, alpha: KForm):
    """Solve Ric = lambda g + nu alpha (x) alpha exactly.

    Returns (lambda, nu); raises NotAlphaEinsteinError when no constants
    satisfy the identity. Over ints, Ric = R / rd, g = G / gd, alpha = a / ad:
    the entries ask R_ij = l G_ij + m a_i a_j with l = lambda rd / gd and
    m = nu rd / ad^2. Two entries with independent (G_ij, a_i a_j) fix l and m
    by Cramer's rule (when there are none, as in dimension 1, m = 0), and
    every entry is then checked.
    """
    n = g.dim
    (ric, rd), gm, gd = report.ints, g.num, g.den
    cov, ad = scaled(covector(alpha))
    entries = [(ric[i][j], gm[i][j], cov[i] * cov[j]) for i in range(n) for j in range(i, n)]
    det, l, m = 1, 0, 0  # free unknowns are 0, as in linalg.solve
    first = next((e for e in entries if e[1] or e[2]), None)
    if first is not None:
        r1, g1, p1 = first
        second = next((e for e in entries if g1 * e[2] != e[1] * p1), None)
        if second is not None:
            r2, g2, p2 = second
            det = g1 * p2 - g2 * p1
            l, m = r1 * p2 - r2 * p1, g1 * r2 - g2 * r1  # over det
        elif g1:
            det, l = g1, r1
        else:
            det, m = p1, r1
    if not all(r * det == l * gij + m * p for r, gij, p in entries):
        witness = {
            "ricci": str([[str(x) for x in row] for row in report.ricci]),
            "note": "no constants (lambda, nu) reproduce Ric exactly",
        }
        raise NotAlphaEinsteinError("alpha_einstein", "structure is not alpha-Einstein", witness)
    return Fraction(l * gd, det * rd), Fraction(m * ad * ad, det * rd)


@dataclass(frozen=True)
class TransverseReport:
    """Transverse Ricci data on the contact distribution.

    ric_t is computed from the curvature-definition formula of the transverse
    connection, as a matrix over the supplied frame of the distribution; it
    equals Ric + 2g there for a verified structure (transverse_ricci raises
    ArithmeticError on a mismatch, signalling a convention bug).
    """

    frame: tuple
    ric_t: tuple
    rho_t: tuple
    parallel_j: bool
    parallel_g_j: bool
    parallel_d_alpha: bool
    torsion_matches_bracket: bool

    @property
    def is_zero(self) -> bool:
        return all(not x for row in self.ric_t for x in row)


def _project(v: list, cov, reeb, s: int) -> list:
    """s (v - alpha(v) R), alpha = cov / a, R = reeb / r, s = a r: the projection
    onto the contact distribution, times s to stay integral."""
    out = [s * x for x in v]
    axpy(out, -dot(cov, v), reeb)
    return out


def _transverse_table(conn: Connection, cov, reeb, s: int) -> tuple[list, int]:
    """T[a][b] = nabla^T(X_a, X_b) for the contact form alpha = cov / a with
    Reeb field R = reeb / r, s = a r; returns (numerators, den).

    The case split of the transverse connection, extended linearly: the part of
    X_a tangent to the distribution acts through the projected Levi-Civita
    derivative, the Reeb part alpha(X_a) R through the bracket [R, X_b].
    """
    (cells, cd), gamma, delta = conn.alg.brackets, conn.num, conn.den
    along_reeb = contract_first(gamma, reeb)  # nabla_R X_b, over r delta
    bracket_reeb = _ad(cells, reeb)  # [R, X_b], over r cd
    table = []
    for a, row in enumerate(gamma):
        table.append([])
        for b, cell in enumerate(row):
            v = [s * x for x in cell]  # nabla_{X_a} X_b - alpha_a nabla_R X_b, over s delta
            if cov[a]:
                axpy(v, -cov[a], along_reeb[b])
            v = [cd * x for x in _project(v, cov, reeb, s)]  # over s^2 delta cd
            if cov[a]:
                axpy(v, s * delta * cov[a], bracket_reeb[b])
            table[a].append(v)
    return table, s * s * delta * cd


def _ad(cells, u) -> list[list[int]]:
    """[u, X_j] for every j, dense, of a dense vector u over the bracket cells."""
    n, su = len(cells), dict(enumerate(u))
    return [[w.get(k, 0) for k in range(n)] for w in (bracket_terms(cells, su, {j: 1}) for j in range(n))]


def _preserves(matrix, frame, moved) -> bool:
    """B(D x, y) + B(x, D y) == 0 for x, y in the frame and every D, where
    B(u, v) = u^T matrix v for an int matrix and moved[p][a] = D_p frame[a].
    B is symmetric or antisymmetric, so the condition is too, and x <= y
    suffices."""
    right = [matvec(matrix, f) for f in frame]
    left = [matvec(list(zip(*matrix)), f) for f in frame]
    return all(
        dot(d[x], right[y]) + dot(left[x], d[y]) == 0
        for d in moved
        for x in range(len(frame))
        for y in range(x, len(frame))
    )


def transverse_ricci(
    structure, conn: Connection | None = None, full: CurvatureReport | None = None
) -> TransverseReport:
    """Transverse connection and transverse Ricci tensor of a verified structure.

    Accepts anything carrying a verified contact structure, J and g_J (a
    CCYStructure or a SasakianStructure). The orthonormal-frame sum in the
    defining formula is replaced by an inverse-metric contraction over an
    arbitrary exact frame of the contact distribution, which avoids irrational
    Gram-Schmidt factors. Also verifies the parallelism identities of the
    transverse connection and the Ricci identity Ric^T = Ric + 2g on the
    distribution. g is the structure's metric, or the metric induced by g_J
    and alpha. `conn` and `full`, when given, must be levi_civita(alg, g) and
    its ricci_scalar report; they are reused instead of rebuilt.

    Every table is contracted over ints; the comments give its denominator.
    ric_t and rho_t are reported in the frame itself, not in its numerators.
    """
    contact = structure.contact
    alg = contact.alg
    g = getattr(structure, "metric", None) or induced_metric(structure.g_j, contact.alpha)
    conn = conn or levi_civita(alg, g)
    full = full or ricci_scalar(alg, g, conn)
    n, (cells, cd), J = alg.dim, alg.brackets, structure.J
    cov, a = scaled(covector(contact.alpha))
    reeb, r = scaled(contact.reeb.coeffs)
    s = a * r
    fs, fd = linalg.kernel([cov], n)  # the frame f_a = fs[a] / fd of xi_basis
    T, td = _transverse_table(conn, cov, reeb, s)
    along = [contract_first(T, f) for f in fs]  # along[a][k] = nabla^T(f_a, X_k), over fd td

    # curvature-definition path: sum_ab w_ab R^T(x, f_a) f_b, w the inverse
    # Gram matrix of the frame, inverted from its ints g(f_a, f_b) d fd^2
    gm, d = g.num, g.den
    gframe = [matvec(gm, f) for f in fs]  # g f_a, over d fd
    minors, adjugate = linalg.sylvester([[dot(x, gy) for gy in gframe] for x in fs])
    w, wd = linalg.lowest([[d * fd * fd * x for x in row] for row in adjugate], minors[-1])
    wf = [lincomb(fs, wa) for wa in w]  # sum_b w_ab f_b, over wd fd
    tau = [0] * n  # sum_ab w_ab nabla^T(f_a, f_b), over wd fd^2 td
    for ta, v in zip(along, wf):
        axpy(tau, 1, lincomb(ta, v))
    along_wf = [[lincomb(tp, v) for tp in T] for v in wf]  # nabla^T(X_p, wf_a), over wd fd td
    ric_num = []
    ad_frame = [_ad(cells, x) for x in fs]  # [f_x, X_j], over cd fd
    for tx, cx in zip(along, ad_frame):
        q = lincomb(tx, tau)  # over wd fd^3 td^2
        bracket = [0] * n  # over cd wd fd^3 td
        for f, ta, v, tv in zip(fs, along, wf, along_wf):
            axpy(q, -1, lincomb(ta, lincomb(tx, v)))
            axpy(bracket, 1, lincomb(tv, lincomb(cx, f)))
        q = [cd * p - td * b for p, b in zip(q, bracket)]  # over cd wd fd^3 td^2
        ric_num.append([dot(q, gy) for gy in gframe])
    ric_den = cd * wd * fd**4 * td**2 * d
    ric, rd = full.ints
    ric_frame = [matvec(ric, y) for y in fs]
    id_num = [  # over rd d fd^2
        [d * dot(x, ry) + 2 * rd * dot(x, gy) for ry, gy in zip(ric_frame, gframe)] for x in fs
    ]
    id_den = rd * d * fd**2
    if any(p * id_den != q * ric_den for rp, rq in zip(ric_num, id_num) for p, q in zip(rp, rq)):
        definition = [[Fraction(p, ric_den) for p in row] for row in ric_num]
        identity = [[Fraction(q, id_den) for q in row] for row in id_num]
        raise ArithmeticError(
            "transverse Ricci computations disagree: "
            f"definition {definition} vs identity {identity}"
        )
    jm, jd = scaled(J.matrix)
    jframe = [matvec(jm, f) for f in fs]  # J f_a, over jd fd
    if any(dot(cov, jf) for jf in jframe):
        raise InputError("vector does not lie in the span of the frame")
    # J f_a = sum_b coords[a][b] f_b: coords[a] = w (g(f_c, J f_a))_c, over wd d jd fd^2
    coords = [matvec(w, [dot(gy, jf) for gy in gframe]) for jf in jframe]
    rho_num = [[dot(cj, col) for col in zip(*ric_num)] for cj in coords]
    rho_den = wd * d * jd * fd**2 * ric_den

    moved = [[lincomb(T[p], f) for f in fs] for p in range(n)]  # nabla^T(X_p, f_a), over fd td
    parallel_j = all(
        lincomb(T[p], jf) == matvec(jm, mf)
        for p in range(n)
        for jf, mf in zip(jframe, moved[p])
    )
    dalpha, _ = scaled(two_form_matrix(alg.d(contact.alpha)))
    # T(f_x, f_y) - T(f_y, f_x) over fd^2 td; the projected bracket over s cd fd^2
    torsion_ok = all(
        [s * cd * (p - q) for p, q in zip(lincomb(tx, y), lincomb(ty, x))]
        == [td * b for b in _project(lincomb(cx, y), cov, reeb, s)]
        for x, tx, cx in zip(fs, along, ad_frame)
        for y, ty in zip(fs, along)
    )
    return TransverseReport(
        frame=tuple(Vector([Fraction(x, fd) for x in f]) for f in fs),
        ric_t=tuple(tuple(Fraction(p, ric_den) for p in row) for row in ric_num),
        rho_t=tuple(tuple(Fraction(p, rho_den) for p in row) for row in rho_num),
        parallel_j=parallel_j,
        parallel_g_j=_preserves(structure.g_j.num, fs, moved),
        parallel_d_alpha=_preserves(dalpha, fs, moved),
        torsion_matches_bracket=torsion_ok,
    )
