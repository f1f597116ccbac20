"""Agreement analysis for measurement methods of unequal precision.

Classic difference-vs-mean plots assume both methods have the same
within-subject variance; when they don't, the plot shows a linear trend
that is an artifact of the precision mismatch. This package provides the
classic analysis, the generalization that plots differences against an
inverse-variance weighted average (which removes the artifact), the
closed-form covariance predictor behind it, a deterministic synthetic
data engine, and CSV/JSON/SVG tooling.
"""

from .agreement import (
    AgreementResult,
    AxisKind,
    Direction,
    PairedSample,
    ReplicatedSample,
    WeightPair,
    WithinSubjectVariance,
    analyze,
    estimate_variances,
    general_covariance_identity,
    paired_from_replicates,
    predicted_covariance,
    weighted_average,
)
from .numerics import (
    DegenerateDataError,
    RegressionFit,
    correlation_p_value,
    linear_fit,
    orthonormalize,
    student_t_cdf,
    student_t_quantile,
)
from .synthesis import (
    CASE_PRESETS,
    ClosedFormMoments,
    SyntheticConfig,
    closed_form_moments,
    generate,
    monte_carlo_covariance,
    preset_config,
    preset_results,
)

__version__ = "0.1.0"

__all__ = [
    "AgreementResult",
    "AxisKind",
    "CASE_PRESETS",
    "ClosedFormMoments",
    "DegenerateDataError",
    "Direction",
    "PairedSample",
    "RegressionFit",
    "ReplicatedSample",
    "SyntheticConfig",
    "WeightPair",
    "WithinSubjectVariance",
    "analyze",
    "closed_form_moments",
    "correlation_p_value",
    "estimate_variances",
    "general_covariance_identity",
    "generate",
    "linear_fit",
    "monte_carlo_covariance",
    "orthonormalize",
    "paired_from_replicates",
    "predicted_covariance",
    "preset_config",
    "preset_results",
    "student_t_cdf",
    "student_t_quantile",
    "weighted_average",
]
