"""Reference curvature kernels in per-entry Fraction arithmetic.

These are the Koszul connection, Ricci tensor, transverse Ricci tensor and
the alpha-Einstein constants as they were computed before the kernels in
`nilgeo.curvature` went fraction-free: every product and sum is a Fraction
operation. The tests compare the integer-numerator kernels against them
table for table.

Beside them are the dense contractions of a 3-index table that the sparse
cells replaced, `contract_first` and `bilinear`, the dense Fraction matrix of
a 2-form that the sparse columns of `nilgeo.structures` replaced
(`two_form_matrix`), and the curvature operator R(X, Y)Z and nabla_{X_i} X_j
read off a Connection's dense `gamma` view.
"""

from fractions import Fraction

from nilgeo import linalg
from nilgeo.curvature import CurvatureReport, TransverseReport
from nilgeo.exterior import Vector, covector
from nilgeo.linalg import axpy, dot, lincomb, matvec
from nilgeo.structures import induced_metric, xi_basis

_ZERO = Fraction(0)


def two_form_matrix(a) -> list[list[Fraction]]:
    """The antisymmetric matrix M[i][j] = a(X_{i+1}, X_{j+1}) of a 2-form."""
    m = [[Fraction(0)] * a.dim for _ in range(a.dim)]
    for (p, q), c in a.terms.items():
        m[p - 1][q - 1], m[q - 1][p - 1] = c, -c
    return m


def contract_first(table, u) -> list[list]:
    """The first slot of a table against u: cells[j] = sum_i u[i] table[i][j]."""
    return [lincomb(column, u) for column in zip(*table)]


def bilinear(table, u, v) -> list:
    """sum_ij u[i] v[j] table[i][j]."""
    return lincomb(contract_first(table, u), v)


def nabla_basis(conn, i: int, j: int) -> Vector:
    """nabla_{X_i} X_j for 1-based basis indices."""
    return Vector(conn.gamma[i - 1][j - 1])


def riemann(conn, x: Vector, y: Vector, z: Vector) -> Vector:
    """R(X, Y)Z for invariant fields."""
    xy = conn.alg.bracket(x, y).coeffs
    gamma, x, y, z = conn.gamma, x.coeffs, y.coeffs, z.coeffs
    first = bilinear(gamma, x, bilinear(gamma, y, z))
    second = bilinear(gamma, y, bilinear(gamma, x, z))
    third = bilinear(gamma, xy, z)
    return Vector([a - b - d for a, b, d in zip(first, second, third)])


def gamma_table(alg, g):
    """Christoffel symbols gamma[i][j][k] from the Koszul formula, raised by g^-1."""
    n = alg.dim
    c = alg.structure_constants
    gm = g.matrix
    ginv = g.inverse_matrix()
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
    return tuple(gamma)


def ricci_report(alg, g) -> CurvatureReport:
    n = alg.dim
    gamma, c, ginv = gamma_table(alg, g), alg.structure_constants, g.inverse_matrix()
    trace = [sum((gamma[k][m][k] for k in range(n)), _ZERO) for m in range(n)]
    ric = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            pairs = [(gamma[i][m][k], gamma[k][j][m]) for m in range(n) for k in range(n)]
            pairs += [(c[k][i][m], gamma[m][j][k]) for k in range(n) for m in range(n)]
            quadratic = sum((a * b for a, b in pairs if a and b), _ZERO)
            ric[i][j] = ric[j][i] = dot(gamma[i][j], trace) - quadratic
    scalar = sum((dot(ginv[i], ric[i]) for i in range(n)), _ZERO)
    return CurvatureReport(linalg.scaled(ric), scalar)


def _project(v, cov, reeb):
    axpy(v, -dot(cov, v), reeb)
    return v


def _transverse_table(alg, gamma, cov, reeb):
    along_reeb = contract_first(gamma, reeb)
    bracket_reeb = contract_first(alg.structure_constants, reeb)
    table = []
    for a, row in enumerate(gamma):
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


def _preserves(matrix, frame, moved):
    right = [matvec(matrix, f) for f in frame]
    left = [matvec(list(zip(*matrix)), f) for f in frame]
    return all(
        dot(dx, my) + dot(mx, dy) == 0
        for d in moved
        for dx, mx in zip(d, left)
        for dy, my in zip(d, right)
    )


def transverse_report(structure) -> TransverseReport:
    contact = structure.contact
    alg = contact.alg
    g = getattr(structure, "metric", None) or induced_metric(structure.g_j, contact.alpha)
    gamma = gamma_table(alg, g)
    n, c, J = alg.dim, alg.structure_constants, structure.J
    cov = covector(contact.alpha)
    reeb = contact.reeb.coeffs
    frame = xi_basis(alg, [contact.alpha])
    fs = [f.coeffs for f in frame]
    T = _transverse_table(alg, gamma, cov, reeb)
    along = [contract_first(T, f) for f in fs]
    wf = [lincomb(fs, wa) for wa in linalg.inverse(g.restrict(frame))]
    tau = [_ZERO] * n
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
    columns = [list(row) for row in zip(*fs)]
    coords = [linalg.solve(columns, list(J.apply(x).coeffs)) for x in frame]
    rho_t = [[dot(cj, col) for col in zip(*ric_t)] for cj in coords]
    moved = [[lincomb(T[p], f) for f in fs] for p in range(n)]
    jframe = [matvec(J.matrix, f) for f in fs]
    parallel_j = all(
        lincomb(T[p], jf) == matvec(J.matrix, d) for p in range(n) for jf, d in zip(jframe, moved[p])
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
        rho_t=tuple(tuple(r) for r in rho_t),
        parallel_j=parallel_j,
        parallel_g_j=_preserves(structure.g_j.matrix, fs, moved),
        parallel_d_alpha=_preserves(dalpha, fs, moved),
        torsion_matches_bracket=torsion_ok,
    )


def ricci_identity(structure) -> tuple:
    """Ric + 2g on the frame of the contact distribution that transverse_ricci
    uses: the transverse Ricci tensor by the Ricci identity Ric^T = Ric + 2g."""
    contact = structure.contact
    g = getattr(structure, "metric", None) or induced_metric(structure.g_j, contact.alpha)
    ric = ricci_report(contact.alg, g).ricci
    fs = [f.coeffs for f in xi_basis(contact.alg, [contact.alpha])]
    return tuple(
        tuple(dot(x, matvec(ric, y)) + 2 * dot(x, matvec(g.matrix, y)) for y in fs) for x in fs
    )


def alpha_einstein(report, g, alpha):
    """(lambda, nu) from `linalg.solve` on all n(n+1)/2 entry equations, then
    every entry re-checked; None when no constants fit."""
    n = g.dim
    cov = covector(alpha)
    rows, rhs = [], []
    for i in range(n):
        for j in range(i, n):
            rows.append([g.matrix[i][j], cov[i] * cov[j]])
            rhs.append(report.ricci[i][j])
    sol = linalg.solve(rows, rhs)
    if sol is None:
        return None
    lam, nu = sol
    fits = all(report.ricci[i][j] == lam * g.matrix[i][j] + nu * cov[i] * cov[j] for i in range(n) for j in range(n))
    return (lam, nu) if fits else None
