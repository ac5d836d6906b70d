"""Exact kernel-average zeta coefficients of integer matrix modules over Z/p^n,
closed-form catalog verification, structural certificates, and orbit or
conjugacy-class counting for the associated unipotent groups."""

from types import ModuleType as _ModuleType

from .catalog import catalog_module
from .closed_forms import (
    CatalogEntry,
    brenti_identity_check,
    brenti_polynomial,
    catalog_keys,
    closed_form,
    constant_rank_form,
    elliptic_point_count,
    ex_elliptic_formula,
    mat_form,
)
from .engine import (
    DEFAULT_BUDGET,
    ask_average,
    ask_orbit,
    ask_series,
)
from .errors import (
    AskZetaError,
    BudgetExceededError,
    InputError,
    InternalConsistencyError,
    NonIntegralStructureConstantsError,
    NotExpandableError,
    NotLieAlgebraError,
)
from .grouporbits import (
    GroupGenSet,
    NilpotentAlgebra,
    catalog_algebra,
    cc_coefficients_direct,
    cc_via_ask,
    exp_group,
    exp_nilpotent,
    gl_generators,
    group_closure,
    oc_coefficients,
    oc_via_ask,
)
from .intmat import IntMatrix
from .module import MatrixModule, ad_representation, transpose_module
from .poly import Poly
from .ratfun import (
    QTRational,
    SeriesQ,
    expand,
    functional_equation_check,
    parse_rational,
)
from .structural import (
    Certificate,
    StructureReport,
    check_k_minimal,
    check_o_maximal,
    structure_report,
)
from .zpn import RingSpec

__version__ = "0.1.0"

# the names imported above; each import also binds its submodule here, and
# `from askzeta import *` must not shadow a caller's `module` or `poly`
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
