"""Method-comparison agreement analysis.

The classic difference-vs-mean analysis assumes the two measurement methods
have equal precision. When they do not, the plot acquires a spurious trend:
the difference correlates with the mean purely because the noisier method
dominates both. This module implements the fix of plotting differences
against an inverse-variance weighted average of the two methods, alongside
the classic analysis, within-subject variance estimation from replicates,
and the closed-form covariance predictor that quantifies the artifact.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .numerics import DegenerateDataError, RegressionFit, linear_fit

__all__ = [
    "Direction",
    "AxisKind",
    "PairedSample",
    "ReplicatedSample",
    "WithinSubjectVariance",
    "WeightPair",
    "AgreementResult",
    "estimate_variances",
    "paired_from_replicates",
    "weighted_average",
    "predicted_covariance",
    "general_covariance_identity",
    "analyze",
]

#: Limits of agreement are bias +- this multiple of the difference SD.
LOA_MULTIPLIER = 1.96

METHOD_LABELS = ("A", "B")


class _ParsedEnum(Enum):
    """An enum whose constructor names the allowed values when given another."""

    @classmethod
    def _missing_(cls, value):
        allowed = ", ".join(repr(m.value) for m in cls)
        raise ValueError(f"expected one of {allowed}, got {value!r}")


class Direction(_ParsedEnum):
    """Orientation of the plotted difference."""

    A_MINUS_B = "a-b"
    B_MINUS_A = "b-a"


class AxisKind(_ParsedEnum):
    """What goes on the horizontal axis."""

    ARITHMETIC_MEAN = "mean"
    WEIGHTED_AVERAGE = "weighted"


@dataclass(frozen=True)
class PairedSample:
    """Per-subject measurement pairs from methods A and B, with the caller's ids or ``()``."""

    a: np.ndarray
    b: np.ndarray
    subject_ids: tuple[str, ...] = ()

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("measurements must be one-dimensional")
        if a.size != b.size:
            raise ValueError(f"length mismatch: {a.size} vs {b.size} measurements")
        if a.size < 3:
            raise ValueError(f"need at least 3 subjects, got {a.size}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("measurements contain non-finite values")
        ids = tuple(self.subject_ids)
        if ids and len(ids) != a.size:
            raise ValueError(f"{len(ids)} subject ids for {a.size} measurement pairs")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate subject ids")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "subject_ids", ids)

    @property
    def n(self) -> int:
        return self.a.size


class ReplicatedSample:
    """Long-format replicate measurements as columns, one entry per row.

    Built from per-row subject ids, method labels ("A"/"B"), replicate indices
    and values. Holds ``subjects`` (ids in order of first appearance) and, per
    row, ``subject_code`` (index into ``subjects``), ``is_b``, ``replicate`` and
    ``value``. No (subject, method, replicate) may repeat, each (subject,
    method) group needs two or more replicates, and both methods must cover
    the same subjects. Each method's counts, means and variance pool once.
    """

    def __init__(self, subject, method, replicate, value):
        replicate, given = np.asarray(replicate, dtype=np.int64), np.asarray(replicate)
        value = np.asarray(value, dtype=float)
        if not len(subject) == len(method) == replicate.size == value.size:
            raise ValueError("replicate columns differ in length")
        if not value.size:
            raise ValueError("no replicate records")
        if given.dtype == bool or not np.array_equal(replicate, given):
            raise ValueError("replicate indices must be integers")
        if not set(method) <= set(METHOD_LABELS):
            first = next(m for m in method if m not in METHOD_LABELS)
            raise ValueError(f"unknown method label {first!r}; expected one of {METHOD_LABELS}")
        finite = np.isfinite(value)
        if not finite.all():
            raise ValueError(f"non-finite value for subject {subject[np.argmin(finite)]!r}")
        subjects = tuple(dict.fromkeys(subject))
        index = {s: i for i, s in enumerate(subjects)}
        code = np.fromiter(map(index.__getitem__, subject), dtype=np.intp, count=len(subject))
        is_b = np.fromiter(map("B".__eq__, method), dtype=bool, count=len(method))
        group = 2 * code + is_b
        order = np.lexsort((replicate, group))
        repeated = (np.diff(group[order]) == 0) & (np.diff(replicate[order]) == 0)
        if repeated.any():
            row = order[1:][repeated].min()
            raise ValueError(f"duplicate replicate {replicate[row]} for subject "
                             f"{subject[row]!r}, method {method[row]}")
        groups = {m: (code[r], value[r]) for m, r in (("A", ~is_b), ("B", is_b))}
        counts = {m: np.bincount(c, minlength=len(subjects)) for m, (c, _) in groups.items()}
        odd = sorted(subjects[i] for i in np.flatnonzero((counts["A"] == 0) | (counts["B"] == 0)))
        if odd:
            raise ValueError(f"subjects not covered by both methods: {odd}")
        means, s_w2 = {}, {}
        for m, (c, v) in groups.items():
            few = np.flatnonzero(counts[m] < 2)
            if few.size:
                raise ValueError(f"subject {subjects[few[0]]!r} has {counts[m][few[0]]} "
                                 f"replicate(s) for method {m}; need at least 2")
            means[m] = np.bincount(c, weights=v, minlength=len(subjects)) / counts[m]
            s_w2[m] = float(np.sum((v - means[m][c]) ** 2)) / (c.size - len(subjects))
        self.subjects, self.subject_code, self.is_b = subjects, code, is_b
        self.replicate, self.value = replicate, value
        self._counts, self._means, self._s_w2 = counts, means, s_w2


def _real(name: str, value):
    """``value`` if it is a finite Python or numpy int or float, and not a bool."""
    try:  # isinstance first: no comparison that numpy could warn about
        finite = (type(value) is not bool
                  and isinstance(value, (int, float, np.integer, np.floating))
                  and math.isfinite(value))
    except OverflowError:  # an int beyond the largest double
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {reprlib.repr(value)}")
    return value


def _integer(name: str, value):
    """``value`` if it is a Python or numpy int, and not a bool, which would count as 0 or 1."""
    if type(value) is bool or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return value


@dataclass(frozen=True)
class WithinSubjectVariance:
    """Within-subject (measurement-error) variances of the two methods."""

    s_wa2: float
    s_wb2: float

    def __post_init__(self):
        if min(_real("s_wa2", self.s_wa2), _real("s_wb2", self.s_wb2)) < 0.0:
            raise ValueError("within-subject variances must be nonnegative")
        if self.s_wa2 == 0.0 and self.s_wb2 == 0.0:
            raise ValueError("degenerate weights: both within-subject variances are zero")


@dataclass(frozen=True)
class WeightPair:
    """Weights (alpha on method A, beta on method B) for a weighted average."""

    alpha: float
    beta: float

    def __post_init__(self):
        if min(_real("alpha", self.alpha), _real("beta", self.beta)) < 0.0:
            raise ValueError("weights must be nonnegative")
        if self.alpha + self.beta <= 0.0:
            raise ValueError("degenerate weights: alpha + beta must be positive")

    @classmethod
    def from_variances(cls, v: WithinSubjectVariance) -> "WeightPair":
        """Inverse-variance weights: each method weighted by the other's variance."""
        return cls(alpha=v.s_wb2, beta=v.s_wa2)


@dataclass(frozen=True)
class AgreementResult:
    """Bias, limits of agreement and trend fit of a difference plot, checked for consistency.

    ``direction`` and ``axis`` may be given as their string values.
    """

    direction: Direction
    axis: AxisKind
    weights: WeightPair | None
    bias: float
    loa_low: float
    loa_high: float
    fit: RegressionFit
    axis_values: np.ndarray = field(repr=False)
    differences: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "direction", Direction(self.direction))
        object.__setattr__(self, "axis", AxisKind(self.axis))
        if (self.axis is AxisKind.WEIGHTED_AVERAGE) != (self.weights is not None):
            weights = None if self.weights is None else asdict(self.weights)
            raise ValueError(f"axis {self.axis.value!r} does not match weights {weights!r}")
        shapes = np.shape(self.axis_values), np.shape(self.differences)
        if len(shapes[0]) != 1 or shapes[0] != shapes[1]:
            raise ValueError(f"points need two 1-D columns of equal length, got shapes {shapes}")

    @property
    def n(self) -> int:
        return self.axis_values.size


def estimate_variances(reps: ReplicatedSample) -> WithinSubjectVariance:
    """Pooled within-subject variances for both methods.

    Per method, the summed squared deviations from each subject's replicate mean over sum(m_i - 1).
    """
    return WithinSubjectVariance(s_wa2=reps._s_w2["A"], s_wb2=reps._s_w2["B"])


def paired_from_replicates(reps: ReplicatedSample) -> PairedSample:
    """Collapse replicates to one pair per subject using replicate means."""
    return PairedSample(a=reps._means["A"], b=reps._means["B"], subject_ids=reps.subjects)


def weighted_average(a, b, v: WithinSubjectVariance):
    """Inverse-variance weighted average of paired measurements.

    Each method is weighted by the *other* method's within-subject variance:
    (s_wb2 * a + s_wa2 * b) / (s_wa2 + s_wb2). With equal variances this is
    the arithmetic mean; with one variance zero, the error-free method's
    values up to rounding. The result lies within a few ulps of [min(a, b),
    max(a, b)]: equal a and b can come back an ulp off, and values within an
    ulp of the largest double can overflow. Scaling both variances by a
    common positive factor leaves the result unchanged; the variances are
    scaled by an exact power of two first, so huge or subnormal variances
    neither overflow nor lose digits. Accepts scalars or arrays.
    """
    alpha, beta = _unit_scaled(WeightPair.from_variances(v))
    return (alpha * np.asarray(a) + beta * np.asarray(b)) / (alpha + beta)


def _unit_scaled(w: WeightPair) -> tuple[float, float]:
    """Both weights times the power of two that puts the larger in [0.25, 0.5).

    Exact, so weight ratios keep every bit; tiny or huge weights cannot under/overflow,
    and ``alpha * a + beta * b`` never exceeds the larger of |a| and |b|.
    """
    shift = -math.frexp(max(w.alpha, w.beta))[1] - 1
    return math.ldexp(w.alpha, shift), math.ldexp(w.beta, shift)


def predicted_covariance(
    w: WeightPair,
    v: WithinSubjectVariance,
    direction: Direction | str = Direction.A_MINUS_B,
) -> float:
    """Covariance between the difference and a weighted average when the
    true difference does not depend on the magnitude of measurement.

    For direction a-b this is (alpha * s_wa2 - beta * s_wb2) / (alpha + beta);
    the sign flips for b-a. Choosing alpha = s_wb2 and beta = s_wa2 makes it
    vanish, which is exactly the weighted-axis construction. With alpha = 0
    the axis collapses to method B and the value becomes -s_wb2.
    """
    value = general_covariance_identity(w, v.s_wa2, v.s_wb2, 0.0)
    return value if Direction(direction) is Direction.A_MINUS_B else -value


def general_covariance_identity(
    w: WeightPair, var_a: float, var_b: float, cov_ab: float
) -> float:
    """cov(A - B, (alpha*A + beta*B)/(alpha + beta)) from raw moments.

    Pure algebra, valid for any joint distribution:
    (alpha*var_a - beta*var_b + (beta - alpha)*cov_ab) / (alpha + beta).
    """
    var_a, var_b, cov_ab = _real("var_a", var_a), _real("var_b", var_b), _real("cov_ab", cov_ab)
    if var_a < 0.0 or var_b < 0.0:
        raise ValueError("variances must be nonnegative")
    alpha, beta = _unit_scaled(w)
    return (alpha * var_a - beta * var_b + (beta - alpha) * cov_ab) / (alpha + beta)


def _require_no_overflow(*values: float) -> None:
    # float arithmetic overflows to inf silently, where math.ldexp raises
    if not all(map(math.isfinite, values)):
        raise OverflowError


def analyze(
    sample: PairedSample,
    *,
    axis: AxisKind | str = AxisKind.ARITHMETIC_MEAN,
    direction: Direction | str = Direction.B_MINUS_A,
    confidence: float = 0.95,
    variances: WithinSubjectVariance | None = None,
) -> AgreementResult:
    """Run the difference-plot analysis on a paired sample.

    Parameters
    ----------
    sample:
        Paired measurements from methods A and B.
    axis:
        ``"mean"`` for the classic difference-vs-mean analysis, or
        ``"weighted"`` to plot against the inverse-variance weighted
        average (requires ``variances``).
    direction:
        ``"b-a"`` (default) or ``"a-b"``; which way the difference is taken.
    confidence:
        Confidence level for the trend-slope interval.
    variances:
        Within-subject variances used to build the weighted axis. They may
        come from :func:`estimate_variances` or from external knowledge of
        the methods' precisions.

    Returns
    -------
    AgreementResult
        Bias, limits of agreement at ``bias +- 1.96 * sd(difference)``, the
        trend fit of the differences on the axis values, and the plotted
        points.
    """
    _real("confidence", confidence)
    axis = AxisKind(axis)
    direction = Direction(direction)
    a, b = sample.a, sample.b

    if axis is AxisKind.WEIGHTED_AVERAGE and variances is None:
        raise ValueError("weighted-average axis requires within-subject variances")
    weights = None if axis is AxisKind.ARITHMETIC_MEAN else WeightPair.from_variances(variances)
    try:  # ``what`` names the step that overflows
        with np.errstate(over="raise"):
            what = f"the difference {direction.value}"
            diffs = a - b if direction is Direction.A_MINUS_B else b - a
            what = "the sum a + b of the mean axis" if weights is None else "the weighted average"
            axis_values = (a + b) / 2.0 if weights is None else weighted_average(a, b, variances)
        what = "the trend slope"
        fit, bias, sd = linear_fit(axis_values, diffs, confidence=confidence)
        _require_no_overflow(fit.slope, fit.slope_se, fit.ci_low, fit.ci_high)
        what = "the trend intercept"
        _require_no_overflow(fit.intercept)
        what = "the limits of agreement"
        loa_low, loa_high = bias - LOA_MULTIPLIER * sd, bias + LOA_MULTIPLIER * sd
        _require_no_overflow(loa_low, loa_high)
    except DegenerateDataError:
        raise DegenerateDataError("axis values are constant; nothing to plot against") from None
    except (FloatingPointError, OverflowError):
        # the slope, its SE and CI are ratios of differences to axis values: scale-free
        cure = ("the axis values barely vary next to the differences, at any scale"
                if what == "the trend slope" else "rescale the measurements")
        raise ValueError(f"{what} overflows the largest double; {cure}") from None

    return AgreementResult(
        direction=direction,
        axis=axis,
        weights=weights,
        bias=bias,
        loa_low=loa_low,
        loa_high=loa_high,
        fit=fit,
        axis_values=axis_values,
        differences=diffs,
    )
