"""Constructive apportionment of complex matrices.

A square matrix A is apportionable when some nonsingular M makes M A M^-1
uniform (all entries of one common modulus kappa).  This package constructs
such M in closed form for every resolved matrix class, describes or bounds the
set of achievable constants K(A), classifies all matrices of order <= 3 up to
the open families, and falls back to a seeded numerical search for the rest.
"""

__version__ = "0.1.0"

from .errors import (
    ApportionError,
    ConstantNotAchievableError,
    ConstructionError,
    InvalidInputError,
    SearchBudgetError,
    SingularMatrixError,
    UnsupportedOrderError,
)
from .reports import ClassificationReport, ConstantSet, SetShape, Verdict
from .rules import (TemplateKind, classify, constant_set, perturb_identity_constants,
                    two_by_two_constants)
from .scalar import DEFAULT_TOL, Tolerance
from .spec import JordanSpec

#: the numeric layer, by module: each name is imported on first access (PEP 562), and
#: with it numpy, so ``import apportion`` and the theory layer above load no numpy, and
#: only the search and sigma commands pay for compiling the search
_NUMERIC = {
    "core": ("UniformityReport", "is_uniform", "similarity_image", "reciprocal_condition",
             "trace_lower_bound", "hadamard_lower_bound"),
    "jordan": ("InversePair", "EigenResult", "build_jordan", "scale_jordan",
               "complete_inverse_pair", "eigenstructure_2x2", "eigenstructure_small",
               "parse_jordan_arrangement", "input_ordered_spec"),
    "constructors": ("CertTag", "ApportionCertificate", "verify_certificate",
                     "reorder_certificate", "scale_certificate", "pad_by_zero",
                     "apportion_nilpotent", "apportion_I_oplus_O", "HalfRankPlan",
                     "half_rank_plan", "apportion_half_rank", "apportion_A_oplus_zeros",
                     "SpiralSolution", "spiral_sum", "apportion_rank_one",
                     "apportion_perturb_identity", "TwoByTwoPlan", "two_by_two_plan",
                     "apportion_2x2", "polar_condition_2x2", "apportion_3x3_template"),
    "classifier": ("request_certificate",),
    "region": ("RegionSample", "admissible_region", "region_to_csv", "region_to_svg"),
    "search": ("SearchConfig", "SearchOutcome", "SigmaReport", "find_apportioning",
               "defect_objective", "sigma_estimate"),
}
_MODULE_OF = {name: module for module, names in _NUMERIC.items() for name in names}

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
    "constant_set", "request_certificate",
    # region
    "RegionSample", "admissible_region", "region_to_csv", "region_to_svg",
    # search
    "SearchConfig", "SearchOutcome", "SigmaReport", "find_apportioning",
    "defect_objective", "sigma_estimate",
    # errors
    "ApportionError", "InvalidInputError", "UnsupportedOrderError",
    "SingularMatrixError", "ConstantNotAchievableError", "SearchBudgetError",
    "ConstructionError",
]


def __getattr__(name):
    module = name if name in _NUMERIC else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    loaded = importlib.import_module("." + module, __name__)
    for lazy in _NUMERIC[module]:
        globals()[lazy] = getattr(loaded, lazy)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | set(_NUMERIC))
