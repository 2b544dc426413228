"""Reference configurations used by the moduli discretization, the obstruction
command and the test suite: the odd-dimensional Heisenberg-type family and
exact unit rotations of its volume form.
"""

from __future__ import annotations

from fractions import Fraction

from .cealg import LieAlgebra
from .exterior import ComplexKForm, Endo, KForm
from .structures import CCYStructure, check_ccy, check_contact


def heisenberg_algebra(n: int) -> LieAlgebra:
    """The 2n+1 dimensional algebra with d(e^{2n+1}) = sum e^{2k-1} ^ e^{2k}."""
    dim = 2 * n + 1
    top = KForm(dim, 2, {(2 * k - 1, 2 * k): Fraction(1) for k in range(1, n + 1)})
    return LieAlgebra([KForm.zero(dim, 2) for _ in range(dim - 1)] + [top])


def heisenberg_ccy_data(n: int):
    """Algebra, contact form, J and complex volume form for the standard
    contact Calabi-Yau structure on the Heisenberg-type nilmanifold.
    """
    alg = heisenberg_algebra(n)
    dim = alg.dim
    alpha = KForm.monomial(dim, (dim,), 2)
    J = Endo.from_pairs(dim, [(2 * k - 1, 2 * k) for k in range(1, n + 1)])
    epsilon = ComplexKForm.from_real(KForm.scalar(dim, 1))
    for k in range(1, n + 1):
        factor = ComplexKForm(
            KForm.monomial(dim, (2 * k - 1,)), KForm.monomial(dim, (2 * k,))
        )
        epsilon = epsilon.wedge(factor)
    return alg, alpha, J, epsilon


def heisenberg_ccy(n: int) -> CCYStructure:
    """The verified contact Calabi-Yau structure of the Heisenberg-type family."""
    alg, alpha, J, epsilon = heisenberg_ccy_data(n)
    return check_ccy(check_contact(alg, alpha), J, epsilon)


# Exact unit rotations (cos, sin) from Pythagorean triples, used to build
# rational rotation families of volume forms.
PYTHAGOREAN_ROTATIONS = (
    (Fraction(1), Fraction(0)),
    (Fraction(4, 5), Fraction(3, 5)),
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
)
