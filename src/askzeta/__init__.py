"""Exact kernel-average zeta coefficients of integer matrix modules over Z/p^n,
closed-form catalog verification, structural certificates, and orbit or
conjugacy-class counting for the associated unipotent groups."""

from .catalog import algebra_keys, catalog_module
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
    AskValue,
    CoeffSeq,
    DEFAULT_BUDGET,
    ask_average,
    ask_mod_composite,
    ask_orbit,
    ask_series,
    rank_distribution,
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
    log_unipotent,
    oc_coefficients,
    oc_via_ask,
    semidirect_embed,
)
from .intmat import IntMatrix
from .module import (
    MatrixModule,
    ad_representation,
    add_zero_col,
    add_zero_row,
    direct_sum,
    rescale,
    transpose_module,
)
from .poly import Poly
from .ratfun import (
    QTRational,
    RationalFit,
    SeriesQ,
    expand,
    fit_pade,
    fit_rational,
    functional_equation_check,
    hadamard,
    parse_rational,
    series_from,
)
from .structural import (
    Certificate,
    StructureReport,
    check_constant_rank_fq,
    check_k_minimal,
    check_o_maximal,
    structure_report,
)
from .zpn import (
    INFINITY,
    RingSpec,
    equivalence_type,
    equivalence_type_minors,
    image_size,
    image_size_exp,
    kernel_size,
    kernel_size_exp,
    kernel_size_mod,
    pval,
    smith_diagonal,
    span_size,
    span_size_exp,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
