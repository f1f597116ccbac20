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

from .numerics import RegressionFit, linear_fit

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
    method) cell needs two or more replicates, and both methods must cover the
    same subjects. One code per cell pools every count, mean and variance.
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
        del index
        # every label is "A" or "B" now: one byte each in the joined labels
        is_b = np.frombuffer("".join(method).encode("ascii"), dtype=np.uint8) == ord("B")
        cell = code + len(subjects) * is_b  # each row's (subject, method) cell: A's, then B's
        order = np.lexsort((replicate, cell))
        ordered = cell[order]  # one sorted copy at a time, each compared with itself shifted
        del cell
        repeated = ordered[1:] == ordered[:-1]
        ordered = replicate[order]
        repeated &= ordered[1:] == ordered[:-1]
        del ordered
        if repeated.any():
            row = order[1:][repeated].min()
            raise ValueError(f"duplicate replicate {replicate[row]} for subject "
                             f"{subject[row]!r}, method {method[row]}")
        del order, repeated  # n-length; the pooling below needs neither
        cell = code + len(subjects) * is_b  # again: the check above needed the room
        counts = np.bincount(cell, minlength=2 * len(subjects)).reshape(2, -1)  # rows: A, B
        odd = sorted(subjects[i] for i in np.flatnonzero((counts == 0).any(axis=0)))
        if odd:
            raise ValueError(f"subjects not covered by both methods: {odd}")
        if (counts < 2).any():
            j, i = np.argwhere(counts < 2)[0]  # the first such cell: A's first, in subject order
            raise ValueError(f"subject {subjects[i]!r} has {counts[j, i]} replicate(s) "
                             f"for method {METHOD_LABELS[j]}; need at least 2")
        means = np.bincount(cell, weights=value, minlength=counts.size).reshape(2, -1) / counts
        with np.errstate(over="ignore"):  # an inf square or sum: WithinSubjectVariance names it
            squares = (means.ravel()[cell] - value) ** 2  # from each row's own cell mean
            del cell
            self._s_w2 = [float(np.sum(squares[rows]) / (count.sum() - count.size))
                          for rows, count in zip((~is_b, is_b), counts)]
        self._means, self.subjects, self.subject_code, self.is_b = means, subjects, code, is_b
        self.replicate, self.value = replicate, value


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


def _require_finite(*steps) -> None:
    """Raise ValueError for the first step ``(what, values, cure)`` with a value that is
    not finite: float arithmetic overflows to inf silently, or to nan via inf - inf."""
    for what, values, cure in steps:
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{what} overflows the largest double; {cure}") from None


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
    return WithinSubjectVariance(*reps._s_w2)


def paired_from_replicates(reps: ReplicatedSample) -> PairedSample:
    """Collapse replicates to one pair per subject using replicate means."""
    return PairedSample(*reps._means, subject_ids=reps.subjects)


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
    return _weighted_by(WeightPair.from_variances(v), a, b)


def _weighted_by(w: WeightPair, a, b):
    """``(alpha * a + beta * b) / (alpha + beta)`` with the weights of ``w``, unit-scaled."""
    alpha, beta = _unit_scaled(w)
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
        points. The fit overwrites the columns it is given, so the points
        are built again after it, by the same operations: the peak memory is
        two n-vectors besides the sample, and ``sample`` is left unchanged.
    """
    if not 0.0 < _real("confidence", confidence) < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    if 1.0 - (1.0 - confidence) / 2.0 == 1.0:  # the fit's upper quantile level
        raise ValueError(f"confidence {confidence} is too close to 1: the quantile level "
                         "of its two-sided interval rounds to 1")
    axis = AxisKind(axis)
    direction = Direction(direction)
    a, b = sample.a, sample.b

    if axis is AxisKind.WEIGHTED_AVERAGE and variances is None:
        raise ValueError("weighted-average axis requires within-subject variances")
    weights = None if axis is AxisKind.ARITHMETIC_MEAN else WeightPair.from_variances(variances)

    # Each column is built twice: once for the fit, which centres it in place,
    # and once for the result. The axis comes first, so that the weighted
    # average's two temporaries never sit beside the difference.
    def axis_column():
        return (a + b) / 2.0 if weights is None else _weighted_by(weights, a, b)

    def difference_column():
        return a - b if direction is Direction.A_MINUS_B else b - a

    cure = "rescale the measurements"
    try:
        with np.errstate(over="raise"):
            axis_values, diffs = axis_column(), difference_column()
    except FloatingPointError:  # an overflow leaves an inf in its column
        with np.errstate(over="ignore"):  # where both overflow, the difference is named
            _require_finite((f"the difference {direction.value}", difference_column(), cure),
                            ("the sum a + b of the mean axis" if weights is None
                             else "the weighted average", axis_column(), cure))
    fit, bias, sd = linear_fit(axis_values, diffs, confidence=confidence)
    del axis_values, diffs  # consumed: the fit scaled and centred them in place
    loa_low, loa_high = bias - LOA_MULTIPLIER * sd, bias + LOA_MULTIPLIER * sd
    # the slope, its SE and CI are ratios of differences to axis values: scale-free
    _require_finite(("the trend slope", (fit.slope, fit.slope_se, fit.ci_low, fit.ci_high),
                     "the axis values barely vary next to the differences, at any scale"),
                    ("the trend intercept", (fit.intercept,), cure),
                    ("the limits of agreement", (loa_low, loa_high), cure))

    return AgreementResult(
        direction=direction,
        axis=axis,
        weights=weights,
        bias=bias,
        loa_low=loa_low,
        loa_high=loa_high,
        fit=fit,
        axis_values=axis_column(),
        differences=difference_column(),
    )
