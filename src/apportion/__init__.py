"""Constructive apportionment of complex matrices.

A square matrix A is apportionable when some nonsingular M makes M A M^-1
uniform (all entries of one common modulus kappa).  This package constructs
such M in closed form for every resolved matrix class, describes or bounds the
set of achievable constants K(A), classifies all matrices of order <= 3 up to
the open families, and falls back to a seeded numerical search for the rest.
"""

__version__ = "0.1.0"

from .classifier import (
    RegionSample,
    admissible_region,
    classify,
    constant_set,
    region_to_csv,
    region_to_svg,
    request_certificate,
)
from .constructors import (
    ApportionCertificate,
    CertTag,
    HalfRankPlan,
    SpiralSolution,
    TemplateKind,
    TwoByTwoPlan,
    apportion_2x2,
    apportion_3x3_template,
    apportion_A_oplus_zeros,
    apportion_half_rank,
    apportion_I_oplus_O,
    apportion_nilpotent,
    apportion_perturb_identity,
    apportion_rank_one,
    half_rank_plan,
    pad_by_zero,
    perturb_identity_constants,
    polar_condition_2x2,
    reorder_certificate,
    scale_certificate,
    spiral_sum,
    two_by_two_constants,
    two_by_two_plan,
    verify_certificate,
)
from .core import (
    DEFAULT_TOL,
    Tolerance,
    UniformityReport,
    hadamard_lower_bound,
    is_uniform,
    reciprocal_condition,
    similarity_image,
    trace_lower_bound,
)
from .errors import (
    ApportionError,
    ConstantNotAchievableError,
    ConstructionError,
    InvalidInputError,
    SearchBudgetError,
    SingularMatrixError,
    UnsupportedOrderError,
)
from .jordan import (
    EigenResult,
    InversePair,
    JordanSpec,
    build_jordan,
    complete_inverse_pair,
    eigenstructure_2x2,
    eigenstructure_small,
    input_ordered_spec,
    parse_jordan_arrangement,
    scale_jordan,
)
from .reports import ClassificationReport, ConstantSet, SetShape, Verdict

#: names of the search module, imported on first access (PEP 562): only the
#: search and sigma commands pay for compiling it
_SEARCH_NAMES = frozenset({"SearchConfig", "SearchOutcome", "SigmaReport",
                           "find_apportioning", "defect_objective", "sigma_estimate"})

__all__ = [
    "__version__",
    # core
    "Tolerance", "DEFAULT_TOL", "UniformityReport", "is_uniform",
    "similarity_image", "reciprocal_condition", "trace_lower_bound",
    "hadamard_lower_bound",
    # jordan
    "JordanSpec", "InversePair", "EigenResult", "build_jordan", "scale_jordan",
    "complete_inverse_pair", "eigenstructure_2x2", "eigenstructure_small",
    "parse_jordan_arrangement", "input_ordered_spec",
    # constructors
    "CertTag", "ApportionCertificate", "verify_certificate",
    "reorder_certificate", "scale_certificate", "pad_by_zero",
    "apportion_nilpotent", "apportion_I_oplus_O", "HalfRankPlan",
    "half_rank_plan", "apportion_half_rank", "apportion_A_oplus_zeros",
    "SpiralSolution", "spiral_sum", "apportion_rank_one",
    "perturb_identity_constants", "apportion_perturb_identity",
    "TwoByTwoPlan", "two_by_two_plan", "two_by_two_constants", "apportion_2x2",
    "polar_condition_2x2", "TemplateKind", "apportion_3x3_template",
    # classifier
    "Verdict", "SetShape", "ConstantSet", "ClassificationReport", "classify",
    "constant_set", "request_certificate", "RegionSample", "admissible_region",
    "region_to_csv", "region_to_svg",
    # search
    "SearchConfig", "SearchOutcome", "SigmaReport", "find_apportioning",
    "defect_objective", "sigma_estimate",
    # errors
    "ApportionError", "InvalidInputError", "UnsupportedOrderError",
    "SingularMatrixError", "ConstantNotAchievableError", "SearchBudgetError",
    "ConstructionError",
]


def __getattr__(name):
    if name != "search" and name not in _SEARCH_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    search = importlib.import_module(".search", __name__)
    for lazy in _SEARCH_NAMES:
        globals()[lazy] = getattr(search, lazy)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | _SEARCH_NAMES | {"search"})
