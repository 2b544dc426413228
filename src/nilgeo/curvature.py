"""Left-invariant Riemannian geometry, all exact.

Every curvature quantity is a contraction of two tables, the algebra's
`structure_constants` and the Connection's `gamma`, each built once per
algebra and metric:

    c[i][j][k]      X_k component of [X_i, X_j]        (structure constants)
    gamma[i][j][k]  X_k component of nabla_{X_i} X_j   (Christoffel symbols)

gamma comes from the Koszul formula; Ricci and scalar curvature are single
contractions over it, and the transverse connection of a contact structure is
tabulated the same way on the basis, so its Ricci tensor, parallelism flags and
torsion are contractions too. The transverse Ricci tensor is computed both
from the curvature definition and from the Ricci identity, as a cross-check.
Tables are plain nested sequences of Fractions indexed from 0.

Sign conventions, pinned so the curvature of the standard contact Calabi-Yau
examples comes out with lambda = -2:

    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    Ric(X, Y) = trace(Z -> R(Z, X) Y)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cealg import LieAlgebra
from .errors import CheckError, InputError
from .exterior import KForm, Metric, Vector, covector, two_form_matrix
from .linalg import axpy, bilinear, contract_first, dot, lincomb, matvec
from .structures import induced_metric, xi_basis

_ZERO = Fraction(0)


class NotAlphaEinsteinError(CheckError):
    """Ric is not of the form lambda g + nu alpha (x) alpha."""


@dataclass(frozen=True)
class Connection:
    """Levi-Civita connection as one Christoffel table (see the module doc),
    with the inverse metric it was raised by."""

    alg: LieAlgebra
    metric: Metric
    gamma: tuple
    ginv: tuple

    def nabla_basis(self, i: int, j: int) -> Vector:
        """nabla_{X_i} X_j for 1-based basis indices."""
        return Vector(self.gamma[i - 1][j - 1])


def levi_civita(alg: LieAlgebra, g: Metric) -> Connection:
    """Koszul formula: 2 g(nabla_X Y, Z) = g([X,Y],Z) - g([Y,Z],X) + g([Z,X],Y).

    The lowered symbols are raised by the inverse metric. The raised table is
    verified to be torsion-free and metric-compatible before it is returned
    (an internal consistency guard, not a user-facing check).
    """
    n = alg.dim
    if g.dim != n:
        raise InputError("metric dimension mismatch")
    if not g.is_positive_definite():
        raise InputError("levi_civita: metric is not positive definite")
    c = alg.structure_constants
    gm = g.matrix
    ginv = g.inverse_matrix()
    # gc[i][j][k] = g([X_i, X_j], X_k)
    gc = [[matvec(gm, cell) if any(cell) else cell for cell in row] for row in c]
    gamma = []
    for i in range(n):
        row = []
        for j in range(n):
            low = []
            for k in range(n):
                a, b, d = gc[i][j][k], gc[j][k][i], gc[k][i][j]
                low.append((a - b + d) / 2 if a or b or d else _ZERO)
            row.append(tuple(matvec(ginv, low)))
        gamma.append(tuple(row))
    for i in range(n):
        for j in range(n):
            if any(gamma[i][j][k] - gamma[j][i][k] != c[i][j][k] for k in range(n)):
                raise ArithmeticError(f"Koszul connection has torsion at ({i + 1},{j + 1})")
        lowered = [matvec(gm, cell) for cell in gamma[i]]
        for j in range(n):
            for k in range(j, n):
                if lowered[j][k] + lowered[k][j] != 0:
                    raise ArithmeticError(f"connection not metric at ({i + 1},{j + 1},{k + 1})")
    return Connection(alg, g, tuple(gamma), tuple(tuple(r) for r in ginv))


def riemann(conn: Connection, x: Vector, y: Vector, z: Vector) -> Vector:
    """R(X, Y)Z for invariant fields."""
    gamma, x, y, z = conn.gamma, x.coeffs, y.coeffs, z.coeffs
    first = bilinear(gamma, x, bilinear(gamma, y, z))
    second = bilinear(gamma, y, bilinear(gamma, x, z))
    third = bilinear(gamma, bilinear(conn.alg.structure_constants, x, y), z)
    return Vector([a - b - d for a, b, d in zip(first, second, third)])


@dataclass(frozen=True)
class CurvatureReport:
    ricci: tuple
    scalar: Fraction
    lam: Fraction | None = None
    nu: Fraction | None = None


def ricci_scalar(alg: LieAlgebra, g: Metric, conn: Connection | None = None) -> CurvatureReport:
    """Ricci tensor and scalar curvature as one contraction of the Christoffel table.

    Ric_ij = sum_m gamma_ij^m t_m - sum_km gamma_im^k gamma_kj^m
             - sum_km c_ki^m gamma_mj^k,   t_m = sum_k gamma_km^k,

    the three terms of trace(Z -> R(Z, X_i) X_j). Pass `conn` to reuse the
    connection of (alg, g) instead of building it again.
    """
    if conn is None:
        conn = levi_civita(alg, g)
    n = alg.dim
    gamma, c, ginv = conn.gamma, alg.structure_constants, conn.ginv
    trace = [sum((gamma[k][m][k] for k in range(n)), _ZERO) for m in range(n)]
    ric = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            # the quadratic terms gamma_im^k gamma_kj^m and c_ki^m gamma_mj^k
            pairs = [(gamma[i][m][k], gamma[k][j][m]) for m in range(n) for k in range(n)]
            pairs += [(c[k][i][m], gamma[m][j][k]) for k in range(n) for m in range(n)]
            quadratic = sum((a * b for a, b in pairs if a and b), _ZERO)
            ric[i][j] = ric[j][i] = dot(gamma[i][j], trace) - quadratic
    scalar = sum((dot(ginv[i], ric[i]) for i in range(n)), _ZERO)
    return CurvatureReport(ricci=tuple(tuple(r) for r in ric), scalar=scalar)


def check_alpha_einstein(report: CurvatureReport, g: Metric, alpha: KForm):
    """Solve Ric = lambda g + nu alpha (x) alpha exactly.

    Returns (lambda, nu); raises NotAlphaEinsteinError with the first nonzero
    residual entry when no constants satisfy the identity.
    """
    n = g.dim
    cov = covector(alpha)
    rows, rhs = [], []
    for i in range(n):
        for j in range(i, n):
            rows.append([g.matrix[i][j], cov[i] * cov[j]])
            rhs.append(report.ricci[i][j])
    sol = linalg.solve(rows, rhs)
    if sol is not None:
        lam, nu = sol
        if any(
            report.ricci[i][j] != lam * g.matrix[i][j] + nu * cov[i] * cov[j]
            for i in range(n)
            for j in range(n)
        ):
            sol = None
    if sol is None:
        witness = {
            "ricci": str([[str(x) for x in row] for row in report.ricci]),
            "note": "no constants (lambda, nu) reproduce Ric exactly",
        }
        raise NotAlphaEinsteinError("alpha_einstein", "structure is not alpha-Einstein", witness)
    return sol[0], sol[1]


@dataclass(frozen=True)
class TransverseReport:
    """Transverse Ricci data on the contact distribution.

    ric_t is computed from the curvature-definition formula of the transverse
    connection; ric_t_identity from Ric + 2g. Both are matrices over the
    supplied frame of the distribution, and agree exactly for a verified
    structure (a mismatch raises ArithmeticError, signalling a convention bug).
    """

    frame: tuple
    ric_t: tuple
    ric_t_identity: tuple
    rho_t: tuple
    parallel_j: bool
    parallel_g_j: bool
    parallel_d_alpha: bool
    torsion_matches_bracket: bool

    @property
    def is_zero(self) -> bool:
        return all(not x for row in self.ric_t for x in row)


def _project(v: list, cov, reeb) -> list:
    """v - alpha(v) R in place: the projection onto the contact distribution."""
    axpy(v, -dot(cov, v), reeb)
    return v


def _transverse_table(conn: Connection, cov, reeb) -> list:
    """T[a][b] = nabla^T(X_a, X_b) for the contact form with coefficients cov.

    The case split of the transverse connection, extended linearly: the part of
    X_a tangent to the distribution acts through the projected Levi-Civita
    derivative, the Reeb part alpha(X_a) R through the bracket [R, X_b].
    """
    along_reeb = contract_first(conn.gamma, reeb)  # nabla_R X_b
    bracket_reeb = contract_first(conn.alg.structure_constants, reeb)  # [R, X_b]
    table = []
    for a, row in enumerate(conn.gamma):
        table.append([])
        for b, cell in enumerate(row):
            v = list(cell)
            if cov[a]:
                axpy(v, -cov[a], along_reeb[b])
            _project(v, cov, reeb)
            if cov[a]:
                axpy(v, cov[a], bracket_reeb[b])
            table[a].append(v)
    return table


def _preserves(matrix, frame, moved) -> bool:
    """B(D x, y) + B(x, D y) == 0 for x, y in the frame and every D, where
    B(u, v) = u^T matrix v and moved[p][a] = D_p frame[a]."""
    right = [matvec(matrix, f) for f in frame]
    left = [matvec(list(zip(*matrix)), f) for f in frame]
    return all(
        dot(dx, my) + dot(mx, dy) == 0
        for d in moved
        for dx, mx in zip(d, left)
        for dy, my in zip(d, right)
    )


def transverse_ricci(
    structure,
    g: Metric | None = None,
    conn: Connection | None = None,
    full: CurvatureReport | None = None,
) -> TransverseReport:
    """Transverse connection and transverse Ricci tensor of a verified structure.

    Accepts anything carrying a verified contact structure, J and g_J (a
    CCYStructure or a SasakianStructure). The orthonormal-frame sum in the
    defining formula is replaced by an inverse-metric contraction over an
    arbitrary exact frame of the contact distribution, which avoids irrational
    Gram-Schmidt factors. Also verifies the parallelism identities of the
    transverse connection and the Ricci identity Ric^T = Ric + 2g on the
    distribution. `conn` and `full`, when given, must be levi_civita(alg, g)
    and its ricci_scalar report; they are reused instead of rebuilt.
    """
    contact = structure.contact
    alg = contact.alg
    if g is None:
        g = getattr(structure, "metric", None)
        if g is None:
            g = induced_metric(structure.g_j, contact.alpha)
    if conn is None:
        conn = levi_civita(alg, g)
    if full is None:
        full = ricci_scalar(alg, g, conn)
    n, c, J = alg.dim, alg.structure_constants, structure.J
    cov = covector(contact.alpha)
    reeb = contact.reeb.coeffs
    frame = xi_basis(alg, [contact.alpha])
    fs = [f.coeffs for f in frame]
    T = _transverse_table(conn, cov, reeb)
    along = [contract_first(T, f) for f in fs]  # along[a][k] = nabla^T(f_a, X_k)

    # curvature-definition path: sum_ab w_ab R^T(x, f_a) f_b, w the inverse
    # Gram matrix of the frame; wf[a] = sum_b w_ab f_b
    wf = [lincomb(fs, wa) for wa in linalg.inverse(g.restrict(frame))]
    tau = [_ZERO] * n  # sum_ab w_ab nabla^T(f_a, f_b)
    for ta, v in zip(along, wf):
        axpy(tau, 1, lincomb(ta, v))
    gframe = [matvec(g.matrix, f) for f in fs]
    ric_t = []
    for x, tx in zip(fs, along):
        cx = contract_first(c, x)
        q = lincomb(tx, tau)
        for f, ta, v in zip(fs, along, wf):
            axpy(q, -1, lincomb(ta, lincomb(tx, v)))
            axpy(q, -1, bilinear(T, lincomb(cx, f), v))
        ric_t.append([dot(q, gy) for gy in gframe])
    ric_frame = [matvec(full.ricci, y) for y in fs]
    ric_t_id = [
        [dot(x, ry) + 2 * dot(x, gy) for ry, gy in zip(ric_frame, gframe)] for x in fs
    ]
    if ric_t != ric_t_id:
        raise ArithmeticError(
            "transverse Ricci computations disagree: "
            f"definition {ric_t} vs identity {ric_t_id}"
        )
    columns = [list(row) for row in zip(*fs)]
    coords = [linalg.solve(columns, list(J.apply(x).coeffs)) for x in frame]
    if None in coords:
        raise InputError("vector does not lie in the span of the frame")
    rho_t = [[dot(cj, col) for col in zip(*ric_t)] for cj in coords]

    moved = [[lincomb(T[p], f) for f in fs] for p in range(n)]  # nabla^T(X_p, f_a)
    jframe = [matvec(J.matrix, f) for f in fs]
    parallel_j = all(
        lincomb(T[p], jf) == matvec(J.matrix, d)
        for p in range(n)
        for jf, d in zip(jframe, moved[p])
    )
    dalpha = two_form_matrix(alg.d(contact.alpha))
    torsion_ok = all(
        lincomb(tx, y)
        == [a + b for a, b in zip(lincomb(ty, x), _project(bilinear(c, x, y), cov, reeb))]
        for x, tx in zip(fs, along)
        for y, ty in zip(fs, along)
    )
    return TransverseReport(
        frame=tuple(frame),
        ric_t=tuple(tuple(r) for r in ric_t),
        ric_t_identity=tuple(tuple(r) for r in ric_t_id),
        rho_t=tuple(tuple(r) for r in rho_t),
        parallel_j=parallel_j,
        parallel_g_j=_preserves(structure.g_j.matrix, fs, moved),
        parallel_d_alpha=_preserves(dalpha, fs, moved),
        torsion_matches_bracket=torsion_ok,
    )
