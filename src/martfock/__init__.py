"""Fock-transform calculus for discrete-time normal martingales, realized
exactly on the Rademacher sign cube."""

from .subsets import (
    FiniteSubset,
    TruncatedDomain,
    DomainTooLargeError,
    InvalidExponentError,
    indicator,
    weight,
    log_weight,
    weight_vector,
    weighted_series,
    weighted_series_product,
    series_upper_bound,
    full_series,
)
from .functionals import (
    FockCoefficients,
    GrowthCertificate,
    InsufficientOrderError,
    sobolev_norm,
    dual_norm_bound,
    pairing,
    fit_growth,
    verify_certificate,
)
from .rademacher import (
    SampleSpace,
    RandomFunctional,
    OutOfHorizonError,
    NormalMartingaleReport,
    noise,
    walsh,
    inner_product,
    l2_norm,
    fwht,
    chaos_expand,
    synthesize,
    conditional_expectation,
    conditional_expectation_by_averaging,
    random_functional,
    biased_probabilities,
    verify_normal_martingale,
    constant,
)
from .sequences import (
    FunctionalSequence,
    ConvergenceStatus,
    ConvergenceVerdict,
    InsufficientLengthError,
    NotAMartingaleError,
    UniformBound,
    is_generalized_martingale,
    classical_to_sequence,
    strong_convergence_test,
    martingale_limit,
    uniform_boundedness,
)
from .convolution import (
    convolve,
    all_ones,
    indicator_functional,
    approximate,
    approximation_sequence,
    approximation_residual,
    residual_curve,
)

__version__ = "0.1.0"
