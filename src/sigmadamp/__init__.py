"""Decay rates and large-time profiles for doubly damped sigma-evolution modes.

Per radial frequency r the model solves

  v'' + (r^{2 sigma1} + r^{2 sigma2}) v' + r^{2 sigma} v = 0,

and the package computes the exact mode multipliers, their Taylor series in
the (a, b) damping tags, the order-k large-time profiles, weighted L2 error
norms, and the decay-rate checks built on top of them.
"""

from .model import (
    BisectionFailure,
    CaseMismatch,
    DimensionTooSmall,
    ModelError,
    ModelParams,
    OrderingViolation,
    RateCase,
    case_for,
    delta,
    discriminant,
    eps_star,
    error_exponent,
    mode_decay_rate,
    oscillation_band,
    rate_step,
    slow_rate_radius,
    validate,
)
from .jet2 import (
    JetError,
    OrderMismatch,
    OrderTooSmall,
    SingularConstantTerm,
    InsufficientOuterDerivs,
    enumerate_partitions,
    faa_di_bruno_coeff,
)
from .kernels import ExactMultipliers, KernelJets, exact_multipliers, kernel_jets
from .profiles import (
    ModalSum,
    ModalTerm,
    UnsupportedOrder,
    golden_modal,
    profile_pair,
)
from .quadrature import (
    CutoffSpec,
    NonConvergence,
    RadialIntegrand,
    SingularityTooStrong,
    l2_radial,
    scaling_check,
    smooth_step,
    surface_area,
)
from .fitting import DegenerateFit, FitResult, fit_exponential, fit_loglog
from .experiments import (
    CancellationWarning,
    ErrorCurve,
    HighFreqReport,
    RequiresNonzeroP1,
    SpectralDataSpec,
    error_curve,
    fit_slope,
    gaussian,
    gaussian_data,
    high_freq_decay_check,
    lower_bound_band,
    moment_free,
    moment_free_data,
    tail_window,
)
from .acceptance import AcceptanceLab, CheckResult, SUITES

__version__ = "0.1.0"

__all__ = [
    "AcceptanceLab",
    "BisectionFailure",
    "CancellationWarning",
    "CaseMismatch",
    "CheckResult",
    "CutoffSpec",
    "DegenerateFit",
    "DimensionTooSmall",
    "ErrorCurve",
    "ExactMultipliers",
    "FitResult",
    "HighFreqReport",
    "InsufficientOuterDerivs",
    "JetError",
    "KernelJets",
    "ModalSum",
    "ModalTerm",
    "ModelError",
    "ModelParams",
    "NonConvergence",
    "OrderMismatch",
    "OrderTooSmall",
    "OrderingViolation",
    "RadialIntegrand",
    "RateCase",
    "RequiresNonzeroP1",
    "SUITES",
    "SingularConstantTerm",
    "SingularityTooStrong",
    "SpectralDataSpec",
    "UnsupportedOrder",
    "case_for",
    "delta",
    "discriminant",
    "enumerate_partitions",
    "eps_star",
    "error_curve",
    "error_exponent",
    "exact_multipliers",
    "faa_di_bruno_coeff",
    "fit_exponential",
    "fit_loglog",
    "fit_slope",
    "gaussian",
    "gaussian_data",
    "golden_modal",
    "high_freq_decay_check",
    "kernel_jets",
    "l2_radial",
    "lower_bound_band",
    "mode_decay_rate",
    "moment_free",
    "moment_free_data",
    "oscillation_band",
    "profile_pair",
    "rate_step",
    "scaling_check",
    "slow_rate_radius",
    "smooth_step",
    "surface_area",
    "tail_window",
    "validate",
    "__version__",
]
