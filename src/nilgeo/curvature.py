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
reported entry becomes a Fraction at most once. Tables are indexed from 0.
The 3-index tables, c, gamma and the transverse table, are sparse cells
table[i] = {j: {k: v}} holding only the nonzero entries (`LieAlgebra.brackets`
is the model), and so are the vectors they are contracted with: a contraction
table(u, v) = sum_ij u_i v_j table[i][j] is `cealg.bracket_terms`, and its
cost follows the nonzero entries, not n^3.

Sign conventions, pinned so the curvature of the standard contact Calabi-Yau
examples comes out with lambda = -2:

    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
    Ric(X, Y) = trace(Z -> R(Z, X) Y)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from . import linalg
from .cealg import LieAlgebra, bracket_terms
from .errors import CheckError, InputError
from .exterior import KForm, Metric, Vector, add_terms, covectors
from .linalg import dot, lincomb
from .structures import _columns, _sparse, induced_metric


_ZERO = Fraction(0)


class NotAlphaEinsteinError(CheckError):
    """Ric is not of the form lambda g + nu alpha (x) alpha."""


@dataclass(frozen=True)
class Connection:
    """Levi-Civita connection as one Christoffel table (see the module doc),
    in sparse int cells over one denominator, as `LieAlgebra.brackets` stores
    the bracket: num[i][j] maps k to den times gamma_ij^k (0-based), for the
    nonzero entries only. ginv = (ints, den) is the inverse metric the table
    was raised by; `gamma` is the dense table as Fractions, built on first
    read."""

    alg: LieAlgebra
    metric: Metric
    ginv: tuple
    num: list
    den: int

    @cached_property
    def gamma(self) -> tuple:
        basis = range(self.alg.dim)
        return tuple(
            tuple(tuple(Fraction(row.get(j, {}).get(k, 0), self.den) for k in basis) for j in basis)
            for row in self.num
        )


def _nonzero(terms: dict) -> dict:
    return {k: x for k, x in terms.items() if x}


def _combine(vectors, u: dict, dim: int) -> dict:
    """sum_i u[i] vectors[i] over sparse vectors of dimension dim, zeros
    dropped: the matrix product M u when vectors are the columns of M. As
    `structures._combine`, whose keys may be index tuples, but summed in a
    list, which is faster where the cells are full (a dense metric)."""
    out = [0] * dim
    for i, x in u.items():
        for k, y in vectors[i].items():
            out[k] += x * y
    return _sparse(out)


def _dot(u: dict, v: dict):
    if len(u) > len(v):
        u, v = v, u
    total = 0  # a loop, not sum() over a generator: these vectors have a few entries
    for k, x in u.items():
        if k in v:
            total += x * v[k]
    return total


def _first(table, u: dict) -> dict:
    """The first slot of a cells table against a sparse vector u: the cells
    {j: {k: sum_i u[i] table[i][j][k]}}, nonzero entries only."""
    out: dict = {}
    for i, x in u.items():
        for j, cell in table[i].items():
            add_terms(out.setdefault(j, {}), x, cell)
    return {j: w for j, cell in out.items() if (w := _nonzero(cell))}


def _fractions(row, den: int) -> tuple:
    """The ints of a row over den as Fractions (most entries are 0)."""
    return tuple(Fraction(x, den) if x else _ZERO for x in row)


def levi_civita(alg: LieAlgebra, g: Metric) -> Connection:
    """Koszul formula: 2 g(nabla_X Y, Z) = g([X,Y],Z) - g([Y,Z],X) + g([Z,X],Y).

    The lowered symbols are raised by the inverse metric. The raised table is
    verified to be torsion-free and metric-compatible before it is returned
    (an internal consistency guard, not a user-facing check). Every step
    visits the nonzero cells only: the zero cells satisfy both guards.

    With g = G / D, g^-1 = M / E and c = C / Cd in ints, twice the lowered
    symbols lie over Cd D, so gamma = M.(twice lowered) / (2 E Cd D).
    """
    n = alg.dim
    if g.dim != n:
        raise InputError("metric dimension mismatch")
    if not g.is_positive_definite():
        raise InputError("levi_civita: metric is not positive definite")
    (cells, cd), d, (m, e) = alg.brackets, g.den, g.inverse()
    grows = [_sparse(row) for row in g.num]  # g is symmetric: its rows are its columns
    mcols = [_sparse(column) for column in zip(*m)]
    # twice the lowered symbols, low_ijk = gc_ijk - gc_jki + gc_kij over cd d, for
    # gc_ijk = g([X_i, X_j], X_k): each nonzero gc entry lands in three places
    low: list[dict] = [{} for _ in range(n)]
    for i, row in enumerate(cells):
        for j, cell in row.items():
            for k, v in _combine(grows, cell, n).items():
                for a, b, c, x in ((i, j, k, v), (k, i, j, -v), (j, k, i, v)):
                    cell_ab = low[a].setdefault(b, {})
                    cell_ab[c] = cell_ab.get(c, 0) + x
    num = [{j: w for j, cell in row.items() if (w := _combine(mcols, cell, n))} for row in low]
    torsion = 2 * e * d  # gamma_ij - gamma_ji = c_ij reads num_ij - num_ji = torsion C_ij
    into: list[set] = [set() for _ in range(n)]  # into[i]: the j with a cell num_ji
    for j, row in enumerate(num):
        for i in row:
            into[i].add(j)
    for i, row in enumerate(num):
        # the condition at (j, i) is the one at (i, j) negated: j > i suffices
        for j in sorted(j for j in row.keys() | into[i] | cells[i].keys() if j > i):
            diff = dict(row.get(j, {}))
            add_terms(diff, -1, num[j].get(i, {}))
            add_terms(diff, -torsion, cells[i].get(j, {}))
            if any(diff.values()):
                raise ArithmeticError(f"Koszul connection has torsion at ({i + 1},{j + 1})")
        lowered = {j: _combine(grows, cell, n) for j, cell in row.items()}
        bad = [(min(j, k), max(j, k)) for j, cell in lowered.items() for k, x in cell.items()
               if x + lowered.get(k, {}).get(j, 0)]
        if bad:
            j, k = min(bad)
            raise ArithmeticError(f"connection not metric at ({i + 1},{j + 1},{k + 1})")
    return Connection(alg, g, (m, e), num, torsion * cd)


@dataclass(frozen=True, eq=False)
class CurvatureReport:
    """The Ricci tensor and the scalar curvature. `ints` is (num, den), the
    Ricci tensor as ints over one denominator, read by check_alpha_einstein,
    transverse_ricci and the report; `ricci` is its view, built on first read."""

    ints: tuple
    scalar: Fraction

    @cached_property
    def ricci(self) -> tuple:
        num, den = self.ints
        return tuple(tuple(Fraction(x, den) for x in row) for row in num)

    def __eq__(self, other) -> bool:
        return isinstance(other, CurvatureReport) and (self.ricci, self.scalar) == (other.ricci, other.scalar)


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
    # both sums are dot products over the pair index p(a, b) = a n + b, with
    # w[j][p(m, k)] = gamma_kj^m against the entries gamma_im^k at p(m, k) and
    # C_ik^m at p(k, m) of row i (c_ki^m = -C_ik^m)
    w = [[0] * (n * n) for _ in range(n)]
    flat: list[list] = [[] for _ in range(n)]
    trace: dict = {}  # t_m = sum_k gamma_km^k
    for k, row in enumerate(gamma):
        for j, cell in row.items():
            for m, x in cell.items():
                w[j][m * n + k] = x
                flat[k].append((j * n + m, x))
            if k in cell:
                trace[j] = trace.get(j, 0) + cell[k]
    num = [[0] * n for _ in range(n)]
    for i, row in enumerate(gamma):
        brackets = [(k * n + m, x) for k, cell in cells[i].items() for m, x in cell.items()]
        for j in range(i, n):
            wj = w[j]
            quadratic = sum([x * wj[p] for p, x in flat[i]])
            bracket = sum([x * wj[p] for p, x in brackets])
            num[i][j] = num[j][i] = cd * (_dot(row.get(j, {}), trace) - quadratic) + delta * bracket
    den = cd * delta * delta
    m, e = conn.ginv
    return CurvatureReport((num, den), Fraction(sum(dot(mi, ri) for mi, ri in zip(m, num)), e * den))


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
    (cov,), ad = covectors([alpha])
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


def _project(v: dict, cov: dict, reeb: dict, s: int) -> dict:
    """s (v - alpha(v) R), alpha = cov / a, R = reeb / r, s = a r: the projection
    onto the contact distribution, times s to stay integral."""
    out, t = {k: s * x for k, x in v.items()}, _dot(cov, v)
    return add_terms(out, -t, reeb) if t else out


def _transverse_table(conn: Connection, cov: dict, reeb: dict, s: int) -> tuple[list, int]:
    """T[a][b] = nabla^T(X_a, X_b) for the contact form alpha = cov / a with
    Reeb field R = reeb / r, s = a r; returns (cells, den), the cells sparse
    as the connection's.

    The case split of the transverse connection, extended linearly: the part of
    X_a tangent to the distribution acts through the projected Levi-Civita
    derivative, the Reeb part alpha(X_a) R through the bracket [R, X_b].
    """
    (cells, cd), gamma, delta = conn.alg.brackets, conn.num, conn.den
    along_reeb = _first(gamma, reeb)  # nabla_R X_b, over r delta
    bracket_reeb = _first(cells, reeb)  # [R, X_b], over r cd
    table = []
    for a, row in enumerate(gamma):
        ca, out = cov.get(a, 0), {}
        for b in row.keys() | (along_reeb.keys() | bracket_reeb.keys() if ca else set()):
            # cd (nabla_{X_a} X_b - alpha_a nabla_R X_b), over s delta cd, projected
            v = {k: cd * s * x for k, x in row.get(b, {}).items()}
            if ca:
                add_terms(v, -cd * ca, along_reeb.get(b, {}))
            v = _project(v, cov, reeb, s)  # over s^2 delta cd
            if ca:
                add_terms(v, s * delta * ca, bracket_reeb.get(b, {}))
            if v := _nonzero(v):
                out[b] = v
        table.append(out)
    return table, s * s * delta * cd


def _form(rows, u: dict, v: dict):
    """u^T M v for a matrix M given by its sparse rows and sparse vectors u, v."""
    total = 0
    for i, x in u.items():
        total += x * _dot(rows[i], v)
    return total


def _preserves(rows, frame, moved) -> bool:
    """B(D x, y) + B(x, D y) == 0 for x, y in the frame and every D, where
    B(u, v) = u^T M v for an int matrix M given by its sparse rows and
    moved[p][a] = D_p frame[a], the vectors sparse. B is symmetric or
    antisymmetric, so the condition is too, x <= y suffices, and the
    columns of M serve as well as its rows."""
    k = len(frame)
    return all(
        _form(rows, d[x], frame[y]) + _form(rows, frame[x], d[y]) == 0
        for d in moved
        for x in range(k)
        for y in range(x, k)
        if d[x] or d[y]
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

    Every table is contracted over ints, through bracket_terms on sparse
    cells and vectors; the comments give each denominator. ric_t and rho_t
    are reported in the frame itself, not in its numerators.
    """
    contact = structure.contact
    alg = contact.alg
    g = getattr(structure, "metric", None) or induced_metric(structure.g_j, contact.alpha)
    conn = conn or levi_civita(alg, g)
    full = full or ricci_scalar(alg, g, conn)
    n, (cells, cd), J = alg.dim, alg.brackets, structure.J
    (cov,), a = covectors([contact.alpha])
    reeb, r = contact.reeb.nums, contact.reeb.den
    s = a * r
    frame, fd = linalg.kernel([cov], n)  # the frame f_a = frame[a] / fd of xi_basis
    cov, reeb, fs = _sparse(cov), _sparse(reeb), [_sparse(f) for f in frame]
    T, td = _transverse_table(conn, cov, reeb, s)
    along = [_first(T, f) for f in fs]  # along[a][k] = nabla^T(f_a, X_k), over fd td

    def nabla(x: int, v: dict) -> dict:  # nabla^T(f_x, v), over fd td times v's denominator
        return bracket_terms(along, {x: 1}, v)

    # curvature-definition path: sum_ab w_ab R^T(x, f_a) f_b, w the inverse
    # Gram matrix of the frame, inverted from its ints g(f_a, f_b) d fd^2
    grows, d = [_sparse(row) for row in g.num], g.den
    gframe = [_combine(grows, f, n) for f in fs]  # g f_a (g is symmetric), over d fd
    gram = [[_dot(x, gy) for gy in gframe] for x in fs]
    minors, adjugate = linalg.sylvester(gram)
    w, wd = linalg.lowest([[d * fd * fd * x for x in row] for row in adjugate], minors[-1])
    wrows = [_sparse(row) for row in w]  # w is symmetric: its rows are its columns
    wf = [_combine(fs, wa, n) for wa in wrows]  # sum_b w_ab f_b, over wd fd
    tau: dict = {}  # sum_ab w_ab nabla^T(f_a, f_b), over wd fd^2 td
    for x, v in enumerate(wf):
        add_terms(tau, 1, nabla(x, v))
    swapped: list[dict] = [{} for _ in range(n)]  # swapped[b][a] = T[a][b]
    for a, row in enumerate(T):
        for b, cell in row.items():
            swapped[b][a] = cell
    along_wf = [_first(swapped, v) for v in wf]  # along_wf[b][p] = nabla^T(X_p, wf_b), over wd fd td
    ric_num = []
    for x, f in enumerate(fs):
        q = {k: cd * p for k, p in nabla(x, tau).items()}  # over cd wd fd^3 td^2
        for b, (fb, v) in enumerate(zip(fs, wf)):
            add_terms(q, -cd, nabla(b, nabla(x, v)))
            # nabla^T([f_x, f_b], wf_b), over cd wd fd^3 td
            add_terms(q, -td, bracket_terms(along_wf, {b: 1}, bracket_terms(cells, f, fb)))
        ric_num.append([_dot(q, gy) for gy in gframe])
    ric_den = cd * wd * fd**4 * td**2 * d
    ric, rd = full.ints
    ric_rows = [_sparse(row) for row in ric]
    ric_frame = [_combine(ric_rows, y, n) for y in fs]  # Ric f_a (Ric is symmetric), over rd fd
    id_num = [  # over rd d fd^2
        [d * _dot(x, ry) + 2 * rd * gxy for ry, gxy in zip(ric_frame, gx)] for x, gx in zip(fs, gram)
    ]
    id_den = rd * d * fd**2
    if any(p * id_den != q * ric_den for rp, rq in zip(ric_num, id_num) for p, q in zip(rp, rq)):
        definition = [[Fraction(p, ric_den) for p in row] for row in ric_num]
        identity = [[Fraction(q, id_den) for q in row] for row in id_num]
        raise ArithmeticError(
            "transverse Ricci computations disagree: "
            f"definition {definition} vs identity {identity}"
        )
    jcolumns, jd = J.columns()
    jframe = [_combine(jcolumns, f, n) for f in fs]  # J f_a, over jd fd
    if any(_dot(cov, jf) for jf in jframe):
        raise InputError("vector does not lie in the span of the frame")
    # J f_a = sum_b coords[a][b] f_b: coords[a] = w (g(f_c, J f_a))_c, over wd d jd fd^2
    coords = [_combine(wrows, _sparse([_dot(jf, gy) for gy in gframe]), len(fs)) for jf in jframe]
    rho_num = [lincomb(ric_num, [cj.get(b, 0) for b in range(len(fs))]) for cj in coords]
    rho_den = wd * d * jd * fd**2 * ric_den

    # D_p f_a = nabla^T(X_p, f_a) over fd td, for the p with D_p f != 0 for
    # some f (a zero D_p passes every parallelism test)
    moved = {}
    for p, row in enumerate(T):
        if row and any(mfs := [_nonzero(bracket_terms(T, {p: 1}, f)) for f in fs]):
            moved[p] = mfs
    parallel_j = all(
        _nonzero(bracket_terms(T, {p: 1}, jf)) == _combine(jcolumns, mf, n)
        for p, mfs in moved.items()
        for jf, mf in zip(jframe, mfs)
    )

    def torsion_free(x: int, y: int) -> bool:
        # T(f_x, f_y) - T(f_y, f_x) over fd^2 td against the projected bracket over s cd fd^2
        diff = {k: s * cd * p for k, p in nabla(x, fs[y]).items()}
        add_terms(diff, -s * cd, nabla(y, fs[x]))
        add_terms(diff, -td, _project(bracket_terms(cells, fs[x], fs[y]), cov, reeb, s))
        return not any(diff.values())

    return TransverseReport(
        frame=tuple(Vector._of(f, fd) for f in frame),
        ric_t=tuple(_fractions(row, ric_den) for row in ric_num),
        rho_t=tuple(_fractions(row, rho_den) for row in rho_num),
        parallel_j=parallel_j,
        parallel_g_j=_preserves([_sparse(row) for row in structure.g_j.num], fs, moved.values()),
        # kappa = d alpha / 2 (check_contact): D preserves one iff it preserves the other
        parallel_d_alpha=_preserves(_columns(contact.kappa.nums, n), fs, moved.values()),
        # both sides are antisymmetric in x, y, so x < y suffices
        torsion_matches_bracket=all(torsion_free(x, y) for x, y in combinations(range(len(fs)), 2)),
    )
