"""Reference structure computations in per-entry Fraction arithmetic.

These are the wedge power, the r-contact volume as a wedge product, Sylvester's
criterion by one determinant per leading minor, the Pfaffian by expansion
along the first row, the calibration, Nijenhuis and epsilon clauses over
Fractions, the volume normalization as an equality of full forms with its
ratio read off every coefficient, and the dimension-5 obstruction filter over
Fraction forms, as they were computed before the structure checks went
fraction-free and polynomial. The tests compare the integer and Pfaffian
paths against them.

Beside them are the dense paths that the sparse ones replaced: the Reeb
fields from one Fraction `linalg.rref` of the dense system, the Nijenhuis
table contracted from the dense bracket table and J's dense int matrix, and
g_J = K J as a product of dense int matrices.

Last come two definitions only the tests use: the Lie derivative of an
invariant form by Cartan's formula, which the ccy.basic reference reads, and
the invariant model of the 2-contact Calabi-Yau structure on the product of
the 3-dimensional Heisenberg nilmanifold with a circle.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial

from nilgeo import linalg
from nilgeo.cealg import LieAlgebra, basis_tuples, d_matrix
from nilgeo.classify import MultiPoly, ObstructionVerdict
from nilgeo.exterior import ComplexKForm, Endo, KForm, Vector, contract, covector
from nilgeo.structures import check_contact, volume_constant, xi_basis

from .fraction_curvature import contract_first, two_form_matrix


def solve_reeb(alphas, dalpha: KForm) -> list[Vector] | None:
    """alpha_i(R_j) = delta_ij and iota_{R_j} d alpha = 0, by one dense
    Fraction elimination with all r right-hand sides appended; None unless
    the solution exists and is unique."""
    dim, r = dalpha.dim, len(alphas)
    rows = [covector(a) + [Fraction(int(i == j)) for j in range(r)] for i, a in enumerate(alphas)]
    rows += [row + [Fraction(0)] * r for row in two_form_matrix(dalpha)]
    reduced, pivots = linalg.rref(rows)
    if pivots != list(range(dim)):
        return None
    return [Vector([reduced[i][dim + j] for i in range(dim)]) for j in range(r)]


def nijenhuis_table(J, alg) -> dict:
    """N(X_i, X_j) for every 1-based i < j as a Fraction Vector, contracted
    from the dense int tables: ad_J = c against J's columns."""
    c, cd = linalg.scaled(alg.structure_constants)
    jm, jd = linalg.scaled(J.matrix)
    jcols = list(zip(*jm))
    ad_j = [contract_first(c, col) for col in jcols]  # ad_j[i][j] = [J X_i, X_j], over jd cd
    table, den = {}, jd * jd * cd
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            inner = [a - b for a, b in zip(ad_j[i][j], ad_j[j][i])]
            linalg.axpy(inner, -1, linalg.matvec(jm, c[i][j]))
            out = linalg.lincomb(ad_j[i], jcols[j])
            linalg.axpy(out, -1, linalg.matvec(jm, inner))
            table[(i + 1, j + 1)] = Vector([Fraction(x, den) for x in out])
    return table


def g_j_matrix(kappa: KForm, J) -> list[list[Fraction]]:
    """g_J(X_i, X_j) = kappa(X_i, J X_j), the dense int product K J."""
    jm, jd = linalg.scaled(J.matrix)
    km, kd = linalg.scaled(two_form_matrix(kappa))
    g_rows = zip(*(linalg.matvec(km, col) for col in zip(*jm)))
    return [[Fraction(x, kd * jd) for x in row] for row in g_rows]


def wedge_power(form: KForm, k: int) -> KForm:
    """k-fold wedge power; wedge_power(form, 0) is the scalar 1."""
    out = KForm.scalar(form.dim, 1)
    for _ in range(k):
        out = out.wedge(form)
    return out


def volume(alphas, dalpha: KForm, n: int) -> KForm:
    """alpha_1 ^ ... ^ alpha_r ^ (d alpha)^n, expanded."""
    out = alphas[0]
    for a in alphas[1:]:
        out = out.wedge(a)
    return out.wedge(wedge_power(dalpha, n))


def leading_minors(matrix) -> list[Fraction]:
    """The leading principal minors up to the first one <= 0, one det each."""
    minors = []
    for k in range(1, len(matrix) + 1):
        minors.append(linalg.det([row[:k] for row in matrix[:k]]))
        if minors[-1] <= 0:
            break
    return minors


def pfaffian(matrix) -> Fraction:
    """Pf(A) = sum_j (-1)^(j+1) a_0j Pf(A without rows and columns 0, j)."""
    n = len(matrix)
    if n % 2:
        return Fraction(0)
    if not n:
        return Fraction(1)
    total = Fraction(0)
    for j in range(1, n):
        if matrix[0][j]:
            keep = [k for k in range(1, n) if k != j]
            minor = [[matrix[p][q] for q in keep] for p in keep]
            total += (-1) ** (j + 1) * matrix[0][j] * pfaffian(minor)
    return total


def calibration_error(alg, kappa, alphas, reebs, J) -> tuple | None:
    """(check, witness) of the first failing calibration clause, or None."""
    dim = J.dim
    for idx, reeb in enumerate(reebs, start=1):
        jr = J.apply(reeb)
        if not jr.is_zero:
            return "calibrated.J_reeb", {"reeb": str(reeb), "J_reeb": str(jr)}
    jcols = list(zip(*J.matrix))
    j2cols = [linalg.matvec(J.matrix, col) for col in jcols]
    covs = [covector(a) for a in alphas]
    for i in range(dim):
        for j in range(dim):
            expected = sum((r[i] * cov[j] for cov, r in zip(covs, reebs)), -Fraction(int(i == j)))
            if j2cols[j][i] != expected:
                witness = {"entry": f"({i + 1},{j + 1})", "J^2": str(j2cols[j][i]), "expected": str(expected)}
                return "calibrated.J_square", witness
    g = [list(row) for row in zip(*(linalg.matvec(two_form_matrix(kappa), col) for col in jcols))]
    for i in range(dim):
        for j in range(i):
            if g[i][j] != g[j][i]:
                witness = {"pair": f"(X{j + 1},X{i + 1})", "g(Xi,Xj)": str(g[i][j]), "g(Xj,Xi)": str(g[j][i])}
                return "calibrated.symmetric", witness
    xi = xi_basis(alg, alphas)
    gram = [[linalg.dot(u.coeffs, linalg.matvec(g, v.coeffs)) for v in xi] for u in xi]
    minors = leading_minors(gram)
    if minors and minors[-1] <= 0:
        k = len(minors)
        witness = {
            "witness_vector": str(xi[k - 1]),
            "leading_minor": str(minors[-1]),
            "g(v,v)": str(gram[k - 1][k - 1]),
        }
        return "calibrated.positive", witness
    return None


def nijenhuis_failures(alg, J, dalpha, reeb) -> list[dict]:
    """N_J(X_i, X_j) by its definition, against -d alpha(X_i, X_j) R."""
    failures = []
    for i in range(1, alg.dim + 1):
        for j in range(i + 1, alg.dim + 1):
            x, y = Vector.basis(alg.dim, i), Vector.basis(alg.dim, j)
            jx, jy = J.apply(x), J.apply(y)
            lhs = (alg.bracket(jx, jy) - J.apply(alg.bracket(jx, y)) - J.apply(alg.bracket(x, jy))
                   + J.apply(J.apply(alg.bracket(x, y))))
            rhs = -dalpha.coefficient((i, j)) * reeb
            if lhs != rhs:
                failures.append({"pair": f"(X{i},X{j})", "nijenhuis": str(lhs), "required": str(rhs)})
    return failures


def proportionality(lhs: ComplexKForm, rhs: ComplexKForm) -> Fraction | None:
    """If rhs = t * lhs for a single rational t on every coefficient, return t."""
    ratio = None
    for part_l, part_r in ((lhs.re, rhs.re), (lhs.im, rhs.im)):
        for key in set(part_l.terms) | set(part_r.terms):
            a, b = part_l.coefficient(key), part_r.coefficient(key)
            if not a:
                if b:
                    return None
                continue
            if ratio is None:
                ratio = b / a
            elif ratio != b / a:
                return None
    return ratio


def normalization_witness(kappa, epsilon, n: int, strict_def31: bool) -> dict | None:
    """None when epsilon ^ conj(epsilon) is the required multiple of kappa^n as
    full forms, else the ccy.normalization witness."""
    c_re, c_im = volume_constant(n)
    top = wedge_power(kappa, n)
    if not strict_def31:
        top = top * Fraction(1, factorial(n))
    rhs = ComplexKForm(c_re * top, c_im * top)
    lhs = epsilon.wedge(epsilon.conjugate())
    if lhs == rhs:
        return None
    witness = {
        "lhs (epsilon ^ conj)": str(lhs),
        "rhs (required)": str(rhs),
        "mode": "strict Def" if strict_def31 else "with 1/n!",
    }
    ratio = proportionality(lhs, rhs)
    if ratio is not None:
        witness["ratio_rhs_over_lhs"] = str(ratio)
    return witness


def epsilon_error(alg, kappa, reebs, J, epsilon, n: int, strict_def31: bool) -> tuple | None:
    """(check, witness) of the first failing epsilon clause, or None: the
    contractions and Lie derivatives as Fraction forms, one per vector."""
    if not isinstance(epsilon, ComplexKForm):
        epsilon = ComplexKForm.from_real(epsilon)
    for idx, reeb in enumerate(reebs, start=1):
        cont = contract(reeb, epsilon)
        if not cont.is_zero:
            return "ccy.basic", {"contraction": str(cont)}
        lie = lie_derivative(reeb, epsilon, alg)
        if not lie.is_zero:
            return "ccy.basic", {"lie_derivative": str(lie)}
    for i, jv in enumerate(zip(*J.matrix), start=1):
        lhs = contract(Vector(jv), epsilon)
        rhs = contract(Vector.basis(alg.dim, i), epsilon).scale(0, 1)
        if lhs != rhs:
            return "ccy.type", {"lhs": str(lhs), "rhs": str(rhs)}
    deps = alg.d(epsilon)
    if not deps.is_zero:
        return "ccy.closed", {"d_epsilon": str(deps)}
    witness = normalization_witness(kappa, epsilon, n, strict_def31)
    return None if witness is None else ("ccy.normalization", witness)


def obstruction_filter(alg, alpha) -> ObstructionVerdict:
    """W = ker(d) on 2-forms cut by gamma ^ d alpha = 0 as one Fraction
    nullspace, q from the triple wedges, the witness search on MultiPoly."""
    dim = alg.dim
    check_contact(alg, alpha)
    dalpha = alg.d(alpha)
    two_forms = basis_tuples(dim, 2)
    target_pos = {idx: i for i, idx in enumerate(basis_tuples(dim, 4))}
    wedge_rows = [[Fraction(0)] * len(two_forms) for _ in target_pos]
    for c, idx in enumerate(two_forms):
        for jdx, val in KForm.monomial(dim, idx).wedge(dalpha).terms.items():
            wedge_rows[target_pos[jdx]][c] = val
    basis_w = linalg.nullspace(d_matrix(alg, 2) + wedge_rows, len(two_forms))
    gammas = [KForm(dim, 2, {idx: v[i] for i, idx in enumerate(two_forms)}) for v in basis_w]
    m = len(gammas)
    if m == 0:
        return ObstructionVerdict(obstructed=True, space_dimension=0, polynomial="0")
    top = tuple(range(1, dim + 1))
    q_terms = {}
    for i, j in combinations_with_replacement(range(m), 2):
        vol = gammas[i].wedge(gammas[j]).wedge(alpha).coefficient(top)
        q_terms[tuple((k == i) + (k == j) for k in range(m))] = vol if i == j else 2 * vol
    q = MultiPoly(m, q_terms)
    if q.is_zero:
        return ObstructionVerdict(obstructed=True, space_dimension=m, polynomial="0")
    for point in product((0, 1, 2), repeat=m):
        value = q.evaluate(point)
        if value:
            witness = KForm.zero(dim, 2)
            for coord, gamma in zip(point, gammas):
                if coord:
                    witness = witness + coord * gamma
            return ObstructionVerdict(False, m, str(q), witness, value)
    raise ArithmeticError("nonzero quadratic vanished on the full grid")


def lie_derivative(v: Vector, form, alg: LieAlgebra):
    """Cartan formula L_v = d iota_v + iota_v d for invariant forms, constant v."""
    if isinstance(form, ComplexKForm):
        return ComplexKForm(lie_derivative(v, form.re, alg), lie_derivative(v, form.im, alg))
    if form.degree == 0:
        return KForm.zero(alg.dim, 0)
    return alg.d(contract(v, form)) + contract(v, alg.d(form))


def kodaira_thurston_data():
    """Invariant model of the 2-contact Calabi-Yau structure on the product
    of the 3-dimensional Heisenberg nilmanifold with a circle.

    In the invariant coframe a1..a4 (a3 dual to the center, a4 the circle
    direction) the two contact forms are 2*a3 and 2*a3 + 2*a4, with equal
    differentials 2*a1^a2.
    """
    alg = LieAlgebra(
        [
            KForm.zero(4, 2),
            KForm.zero(4, 2),
            KForm.monomial(4, (1, 2)),
            KForm.zero(4, 2),
        ]
    )
    alpha1 = KForm.monomial(4, (3,), 2)
    alpha2 = KForm(4, 1, {(3,): Fraction(2), (4,): Fraction(2)})
    J = Endo.from_pairs(4, [(1, 2)])
    epsilon = ComplexKForm(KForm.monomial(4, (1,)), KForm.monomial(4, (2,)))
    return alg, [alpha1, alpha2], J, epsilon
