"""Internal statistics kernel: correlation inference, least squares with slope
confidence intervals, Student-t functions (``scipy.special.stdtr``/``stdtrit``)
and exact whitening. No module state, no randomness. The closed form in ``synthesis``
shares the fit's ``_ldexp`` (+-inf past the largest double) and ``_slope_and_r``.

Only :class:`DegenerateDataError` and :class:`RegressionFit` are package API.
The public entry points validate arguments; the kernel assumes valid ones and
checks only what valid input can still hit: a constant axis and rank-deficient
rows. The reference moments ``mean``, ``variance``, ``covariance`` check nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr, stdtrit

__all__ = ["DegenerateDataError", "RegressionFit"]


class DegenerateDataError(ValueError):
    """Raised when data carries no usable signal (zero variance, rank loss)."""


# Not package API and unvalidated: nothing in the package calls mean, variance
# or covariance. Only perfbench/spans.py, which traces them by name, and the
# tests, which use variance and covariance as references, keep them.
def mean(x) -> float:
    """Arithmetic mean."""
    return float(np.mean(np.asarray(x, dtype=float)))


def variance(x) -> float:
    """Sample variance with divisor n-1."""
    return float(np.var(np.asarray(x, dtype=float), ddof=1))


def covariance(x, y) -> float:
    """Sample covariance with divisor n-1 of two vectors of equal length."""
    xv, yv = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return float(np.dot(xv - xv.mean(), yv - yv.mean()) / (xv.size - 1))


def _ldexp(x: float, shift: int) -> float:
    """``math.ldexp``, but +-inf where that raises OverflowError."""
    try:
        return math.ldexp(x, shift)
    except OverflowError:
        return math.copysign(math.inf, x)


def _pow2_shift(v: np.ndarray) -> int:
    # the exponent that puts the largest |v| in [0.5, 1); 0 for an all-zero v
    return -math.frexp(max(v.max(), -v.min()))[1]


def _centred(v: np.ndarray) -> tuple[float, np.ndarray, int]:
    """Mean of ``v``, and ``(v - mean) * 2**shift`` with its shift.

    The shift puts the largest |v| in [0.5, 1). Scaling by a power of two is
    exact, so in the normal range every later moment is the unscaled one
    times a power of two, bit for bit, while data near 1e300 or 1e-300
    neither overflow nor underflow in squares and products. A C-contiguous,
    writeable float64 ``v`` is consumed: it is scaled and centred in place
    and is itself the result. Any other is copied, as a strided vector
    would be summed in another order.
    """
    shift = _pow2_shift(v)
    in_place = v.flags.c_contiguous and v.flags.writeable
    scaled = np.ldexp(v, shift, out=v if in_place else None)
    centre = float(scaled.mean())
    scaled -= centre
    return math.ldexp(centre, -shift), scaled, shift


def correlation_p_value(r: float, n: int) -> float:
    """Two-sided p-value for H0: no correlation, given sample r in [-1, 1] and size n >= 3.

    Uses the exact Student-t transform t = r*sqrt(n-2)/sqrt(1-r^2), n-2 degrees of
    freedom. r = +-1 maps to p = 0, r = 0 to p = 1: the t CDF at -0.0 is exactly 1/2.
    """
    if abs(r) == 1.0:
        return 0.0
    df = n - 2
    t = r * math.sqrt(df) / math.sqrt(1.0 - r * r)
    return min(1.0, 2.0 * student_t_cdf(-abs(t), df))


# --- Student-t distribution -------------------------------------------------


def student_t_cdf(t: float, df: int) -> float:
    """CDF of the Student-t distribution with ``df >= 1`` degrees of freedom."""
    return float(stdtr(df, t))


def student_t_quantile(q: float, df: int) -> float:
    """Inverse of :func:`student_t_cdf`, for ``q`` strictly in (0, 1)."""
    return float(stdtrit(df, q))


# --- Regression -------------------------------------------------------------


@dataclass(frozen=True)
class RegressionFit:
    """Ordinary least squares fit of y on x with a slope confidence interval."""

    slope: float
    intercept: float
    slope_se: float
    ci_low: float
    ci_high: float
    r: float
    p_value: float
    df: int


def linear_fit(x, y, confidence: float = 0.95) -> tuple[RegressionFit, float, float]:
    """Fit y = intercept + slope * x by least squares; return ``(fit, y_mean, y_sd)``.

    The slope confidence interval uses the Student-t quantile at ``df = n - 2``
    with SE^2 = (var(y)/var(x)) * (1 - r^2) / (n - 2); the variance-divisor
    choice cancels in that ratio. The caller passes finite 1-D vectors of
    equal length n >= 3 and a confidence that ``analyze`` has checked; only
    a constant ``x`` is checked here (:class:`DegenerateDataError`).
    Each vector is centred once and scaled by an exact power of two, so data
    near 1e300 or 1e-300 fit as well as data near 1. ``y_mean`` and
    ``y_sd`` (divisor n - 1) come from that one pass over y. A slope, SE
    or ``y_sd`` past the largest double is +-inf. x and y are consumed: a
    C-contiguous, writeable float64 array is scaled and centred in place,
    and holds those values afterwards. A strided or read-only array, or any
    other input, is copied first; the fit is the same, bit for bit.
    """
    xv, yv = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    x_mean, xc, p = _centred(xv)
    y_mean, yc, q = _centred(yv)
    # moments of x * 2**p and y * 2**q: r is scale-free, slope and SE scale by 2**(q - p)
    m = xv.size - 1
    vx, vy, cxy = float(np.dot(xc, xc)) / m, float(np.dot(yc, yc)) / m, float(np.dot(xc, yc)) / m
    if vx <= 0.0:
        raise DegenerateDataError("axis values are constant; nothing to plot against")
    slope, r = _slope_and_r(vx, cxy, vy, p - q)
    intercept = y_mean - slope * x_mean
    df = xv.size - 2
    se = _ldexp(math.sqrt((vy / vx) * max(0.0, 1.0 - r * r) / df), p - q)
    tq = student_t_quantile(1.0 - (1.0 - confidence) / 2.0, df)  # upper two-sided level
    return RegressionFit(
        slope=slope,
        intercept=intercept,
        slope_se=se,
        ci_low=slope - tq * se,
        ci_high=slope + tq * se,
        r=r,
        p_value=correlation_p_value(r, xv.size),
        df=df,
    ), y_mean, _ldexp(math.sqrt(vy), -q)


def _slope_and_r(sxx: float, sxy: float, syy: float, shift: int) -> tuple[float, float]:
    """Slope of y on x, times ``2**shift`` (+-inf past the largest double), and r,
    from second moments (sums or means) of power-of-two-scaled x and y. r is 0 for
    a constant y, and clamped to [-1, 1], which parallel x and y can round an ulp past."""
    r = min(1.0, max(-1.0, sxy / math.sqrt(sxx * syy))) if syy > 0.0 else 0.0
    return _ldexp(sxy / sxx, shift), r


# --- Whitening --------------------------------------------------------------

_WHITEN_BLOCK = 8192  # columns per product with the whitener in orthonormalize


def orthonormalize(rows) -> np.ndarray:
    """Center and whiten the rows of a (k, n) matrix.

    Returns a (k, n) matrix whose rows have sample mean 0, sample variance
    exactly 1 and pairwise sample covariance 0, spanning the same space as
    the centered input. Symmetric (eigenvector-based) whitening is used,
    followed by a per-row rescale that pins the unit variances down to float
    precision. A C-ordered float64 input is whitened in place and returned:
    it is scaled by one power of two, so that data far from unit scale
    neither overflow nor underflow, centred, and multiplied by the whitener
    one block of columns at a time, which gives the bits of the whole
    product. Any other layout or dtype is copied first, and the copy returned.

    Raises :class:`DegenerateDataError` when the centered rows of the finite
    input are not linearly independent, as with fewer than k + 1 columns; if
    the input came from a random draw, retry with a different seed.
    """
    x = np.ascontiguousarray(rows, dtype=float)
    n = x.shape[1]
    # One common scale: a per-row one would rotate the symmetric whitener's output.
    np.ldexp(x, _pow2_shift(x), out=x)
    x -= x.mean(axis=1, keepdims=True)
    cov = x @ x.T / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[-1] <= 0.0 or eigvals[0] <= 1e-10 * eigvals[-1]:
        raise DegenerateDataError(
            "rows are rank deficient after centering; "
            "if they came from a random draw, retry with a different seed"
        )
    whitener = eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T
    for lo in range(0, n, _WHITEN_BLOCK):
        x[:, lo:lo + _WHITEN_BLOCK] = whitener @ x[:, lo:lo + _WHITEN_BLOCK]
    x -= x.mean(axis=1, keepdims=True)  # a large offset leaves a residual mean
    x /= np.sqrt(np.einsum("ij,ij->i", x, x) / (n - 1))[:, None]
    return x
