"""nilgeo: exact verification of invariant contact Calabi-Yau geometry on Lie algebras."""

__version__ = "0.1.0"

from .algdsl import (
    parse_algebra,
    parse_endo,
    parse_form,
    parse_vector,
    parse_vectors,
    serialize_algebra,
)
from .cealg import (
    BettiTable,
    LieAlgebra,
    betti_numbers,
    change_of_basis,
    is_exact,
)
from .classify import (
    Catalog,
    CatalogEntry,
    MultiPoly,
    ccy_obstruction_filter,
    classify_catalog,
    contact_existence_polynomial,
)
from .curvature import (
    Connection,
    CurvatureReport,
    check_alpha_einstein,
    levi_civita,
    ricci_scalar,
    transverse_ricci,
)
from .deform import (
    CircleGrid,
    LinearizedOperator,
    assemble_operator,
    kernel_dimension,
)
from .errors import CheckError, InputError, NilgeoError
from .exterior import (
    ComplexKForm,
    Endo,
    KForm,
    Metric,
    Scalar,
    Vector,
    contract,
    evaluate,
    hodge_star,
    pullback,
    wedge,
)
from .legendrian import (
    FamilySpec,
    LegendrianVerdict,
    Subalgebra,
    check_special_legendrian,
    comass_probe,
    comass_sample,
    extension_obstruction,
)
from .structures import (
    CCYStructure,
    ContactStructure,
    HypoStructure,
    RContactStructure,
    SasakianStructure,
    Verdict,
    check_calibrated_complex,
    check_ccy,
    check_contact,
    check_hypo,
    check_r_contact_ccy,
    check_sasakian,
    induced_metric,
    nijenhuis_tensor,
    xi_basis,
)
