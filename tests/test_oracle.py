"""Exact-rational oracle for the statistics kernel.

``fractions.Fraction`` holds every double exactly, so the mean and the
sample variance of a few doubles, and the moments of the synthetic model,
can be computed with no rounding at all. The kernel's answers are compared
with those exact values. Each bound is stated in the scale of the inputs
(max|y|; the spread of the difference plot), because values that cancel
leave a result near zero whose relative error says nothing about the kernel.

The bounds were measured before they were written down. For ``linear_fit``'s
slope, intercept and slope SE, see ``FIT_UNITS``; for its mean and SD of y:
over 60,000 numpy draws (uniform, clustered near an offset, spread over nine
decades, one ulp apart; n from 3 to 8; times 1, 1e300 and 1e-300), 80,000
draws of same-signed values near 1e3, and 20,000 targeted hypothesis
examples of the strategy below, the largest errors were 2.29 ulps of max|y|
for the mean and 2.14 · 2**-52 · max|y|**2 for the variance. For
``closed_form_moments``, see ``CLOSED_FORM_UNITS``. The bounds leave room
above those for inputs the draws missed; an error of the formula, such as
the divisor n for n - 1, misses them by far. For the weighted average and
the covariance identities, see ``WEIGHTED_AVERAGE_UNITS``.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from methodagree.agreement import (
    Direction,
    WeightPair,
    WithinSubjectVariance,
    general_covariance_identity,
    predicted_covariance,
    weighted_average,
)
from methodagree.numerics import linear_fit
from methodagree.synthesis import SyntheticConfig, closed_form_moments

MEAN_ULPS = 4  # in ulps of max|y|
VARIANCE_UNITS = 4  # in units of 2**-52 * max|y|**2


@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=8),
       st.sampled_from([1.0, 1e300, 1e-300]))
@example([1e3, 1e3, -1e3, 999.9999999999999], 1e300)
@example([1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53], 1e-300)
@settings(max_examples=150, deadline=None)
def test_mean_and_sd_of_y_match_exact_rationals(values, scale):
    y = np.array(values) * scale
    largest = float(np.max(np.abs(y)))
    # below this, the SD itself rounds in the subnormal range, by more than these bounds
    assume(largest >= 2.0**-1000)
    n = y.size
    _, y_mean, y_sd = linear_fit(np.arange(n, dtype=float), y.copy())
    exact = [Fraction(v) for v in y.tolist()]
    mean = sum(exact) / n
    var = sum((v - mean) ** 2 for v in exact) / (n - 1)
    assert abs(Fraction(y_mean) - mean) <= MEAN_ULPS * Fraction(math.ulp(largest))
    assert abs(Fraction(y_sd) ** 2 - var) <= VARIANCE_UNITS * Fraction(largest) ** 2 / 2**52


# Errors of linear_fit's slope, intercept and squared slope SE, in units of
# 2**-52 times the scale of each. With X = max|x|, Y = max|y| and Sxx the sum of
# squared deviations of x, let t = Y / sqrt(Sxx) and kappa = 1 + X / sqrt(Sxx),
# which grows as x moves off zero next to its spread: rounding x and y by an ulp
# of X and Y moves the slope by about t * kappa, the intercept by sqrt(Sxx)
# times t * kappa**2, and se**2 by t**2 * kappa. The SE is compared squared:
# where the points lie on a line, 1 - r**2 cancels to a rounding error, and se,
# its root, is off by the root of one. Measured worst cases over 120,000 numpy
# draws (x and y of the kinds above, y also on or near a line; n from 3 to 8;
# times 1, 1e300 and 1e-300) and 21,000 examples of the strategy below, each
# error targeted in turn: slope 2.87, intercept 2.27, se**2 2.60.
FIT_UNITS = dict(slope=4, intercept=4, se2=4)


@st.composite
def _fit_cases(draw):
    n = draw(st.integers(3, 8))
    x = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    if draw(st.booleans()):
        y = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    else:  # on a line up to rounding, where the SE cancels
        y = draw(st.floats(-3.0, 3.0)) * x + draw(st.floats(-10.0, 10.0))
    scale = draw(st.sampled_from([1.0, 1e300, 1e-300]))
    return x * scale, y * scale


def _fit_errors(x: np.ndarray, y: np.ndarray) -> dict:
    """Each error of linear_fit in the units of ``FIT_UNITS``; needs a varying x
    and a slope and intercept well inside the largest double."""
    fx, fy = [Fraction(v) for v in x.tolist()], [Fraction(v) for v in y.tolist()]
    n = len(fx)
    mx, my = sum(fx) / n, sum(fy) / n
    sxx = sum((v - mx) ** 2 for v in fx)
    sxy = sum((u - mx) * (v - my) for u, v in zip(fx, fy))
    syy = sum((v - my) ** 2 for v in fy)
    slope = sxy / sxx
    exact = dict(slope=slope, intercept=my - slope * mx,
                 se2=(syy - sxy * slope) / (sxx * (n - 2)))
    spread = _sqrt(sxx)
    t = Fraction(float(np.max(np.abs(y)))) / spread
    kappa = 1 + Fraction(float(np.max(np.abs(x)))) / spread
    units = dict(slope=t * kappa, intercept=t * spread * kappa**2, se2=t * t * kappa)
    fit, _, _ = linear_fit(x.copy(), y.copy())
    got = dict(slope=Fraction(fit.slope), intercept=Fraction(fit.intercept),
               se2=Fraction(fit.slope_se) ** 2)
    return {name: abs(got[name] - exact[name]) * 2**52 / units[name] for name in exact}


def _fit_is_testable(x: np.ndarray, y: np.ndarray) -> bool:
    """x varies, no result rounds in the subnormal range, and nothing overflows."""
    if min(np.max(np.abs(x)), np.max(np.abs(y))) < 2.0**-1000 or np.ptp(x) == 0.0:
        return False
    fx, fy = [Fraction(v) for v in x.tolist()], [Fraction(v) for v in y.tolist()]
    mx, my = sum(fx) / len(fx), sum(fy) / len(fy)
    slope = (sum((u - mx) * (v - my) for u, v in zip(fx, fy))
             / sum((u - mx) ** 2 for u in fx))
    return abs(slope) * Fraction(float(np.max(np.abs(x)))) < 1e300


@given(_fit_cases())
@settings(max_examples=100, deadline=None)
def test_slope_intercept_and_se_match_exact_rationals(case):
    assume(_fit_is_testable(*case))
    errors = _fit_errors(*case)
    assert all(errors[name] <= bound for name, bound in FIT_UNITS.items()), errors
    # centring the caller's buffers in place moves no bit: a read-only input is copied
    x, y = case
    x.flags.writeable = y.flags.writeable = False
    assert linear_fit(x.copy(), y.copy()) == linear_fit(x, y)


# Errors of closed_form_moments, in units of 2**-52 times the scale of each:
# sqrt(var_diff * var_axis) for cov, 1 for r, sqrt(var_diff / var_axis) for
# the slope, and the variance itself for var_diff and var_axis. Measured worst
# cases over 80,000 numpy draws like the strategy below and 20,000 examples of
# it: cov 2.58, var_diff 2.21, var_axis 3.88, r 2.15, slope 2.96. r now uses
# the trend fit's sxy / sqrt(sxx * syy), not sxy / (sqrt(sxx) * sqrt(syy));
# re-measured over another 80,000 draws and 20,000 examples: r 2.20, where the
# former formula read 2.15 on the same draws (cov 2.46, var_diff 2.37,
# var_axis 3.92 and slope 2.77, which kept their bits). The same moments
# expanded into polynomials of the config came out up to 30,000 units off for
# cov, r and the slope over those examples; see the explicit ones below.
CLOSED_FORM_UNITS = dict(cov=4, var_diff=4, var_axis=6, r=4, slope=5)


def _sqrt(x: Fraction) -> Fraction:
    """sqrt(x) to 256 bits, far finer than any double rounds."""
    return Fraction(math.isqrt(x.numerator * x.denominator << 512), x.denominator << 256)


def _exact_moments(config: SyntheticConfig, w: WeightPair, direction: str):
    """(cov, var_diff, var_axis) of the synthetic model, from its definition."""
    k_a, k_b, s_a, s_b, sc = map(Fraction, (config.k_a, config.k_b, config.s_a, config.s_b,
                                            config.sigma_c))
    alpha, beta = Fraction(w.alpha), Fraction(w.beta)
    var_a = k_a * k_a * sc * sc + s_a * s_a
    var_b = k_b * k_b * sc * sc + s_b * s_b
    cov_ab = k_a * k_b * sc * sc
    cov = (alpha * var_a - beta * var_b + (beta - alpha) * cov_ab) / (alpha + beta)
    var_diff = var_a + var_b - 2 * cov_ab
    var_axis = (alpha * alpha * var_a + beta * beta * var_b
                + 2 * alpha * beta * cov_ab) / (alpha + beta) ** 2
    return (cov if Direction(direction) is Direction.A_MINUS_B else -cov), var_diff, var_axis


def _closed_form_errors(config: SyntheticConfig, w: WeightPair, direction: str) -> dict:
    """Each error of closed_form_moments in the units of ``CLOSED_FORM_UNITS``;
    needs both exact variances positive."""
    got = closed_form_moments(config, w, direction)
    cov, var_diff, var_axis = _exact_moments(config, w, direction)
    scale, spread = _sqrt(var_diff * var_axis), _sqrt(var_diff / var_axis)
    exact = dict(cov=(cov, scale), var_diff=(var_diff, var_diff), var_axis=(var_axis, var_axis),
                 r=(cov / scale, 1), slope=(cov / var_axis, spread))
    return {name: abs(Fraction(getattr(got, name)) - value) * 2**52 / unit
            for name, (value, unit) in exact.items()}


# 0 or at least 1e-3, so that no square falls into the subnormal range
_loading = st.one_of(st.just(0.0), st.floats(1e-3, 2.0))
_error_sd = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))


@st.composite
def _closed_form_cases(draw):
    k_a = draw(_loading)
    k_b = k_a if draw(st.booleans()) else draw(_loading)
    s_a, s_b = draw(_error_sd), draw(_error_sd)
    config = SyntheticConfig(k_a=k_a, k_b=k_b, s_a=s_a, s_b=s_b,
                             sigma_c=draw(st.floats(0.1, 20.0)))
    if draw(st.booleans()):
        assume(s_a or s_b)
        w = WeightPair.from_variances(config.error_variances())
    else:
        w = WeightPair(draw(st.floats(1e-3, 1.0)), draw(st.floats(1e-3, 1.0)))
    return config, w, draw(st.sampled_from(["a-b", "b-a"]))


@given(_closed_form_cases())
# alpha * k_a + beta * k_b is exactly 0: the expanded polynomials put var_axis 2,303 units off
@example((SyntheticConfig(k_a=1.0, k_b=-1.0, s_a=0.1, s_b=0.1, sigma_c=10.1),
          WeightPair(1.0, 1.0), "b-a"))
# the expanded cov is 81 units of its scale off, a relative error of 4e-10
@example((SyntheticConfig(k_a=1.0, k_b=1.0, s_a=0.3, s_b=0.02, sigma_c=23.3),
          WeightPair(0.001, 1.0), "a-b"))
@settings(max_examples=60, deadline=None)
def test_closed_form_moments_match_exact_rationals(case):
    _, var_diff, var_axis = _exact_moments(*case)
    assume(var_diff and var_axis)  # r is 0 there by definition, tested in test_synthesis
    errors = _closed_form_errors(*case)
    assert all(errors[name] <= bound for name, bound in CLOSED_FORM_UNITS.items()), errors


# Errors of weighted_average, general_covariance_identity and
# predicted_covariance, in units of 2**-52 times the scale of their inputs:
# max(|a|, |b|); the largest of var_a, var_b and |cov_ab|; the larger variance.
# A result that nearly cancels can be hundreds of ulps off itself, so only the
# inputs' scale gives a bound. Measured worst cases over 360,000 numpy draws
# like the strategies below (five seeds) and 20,000 targeted examples of each
# strategy: 1.47, 2.36 and 1.54. The weighted average moves equal
# measurements: over 20,000 draws of a = b in [-1e3, 1e3] with both variances
# in [1e-3, 1e3], 7,388 came back off a, by up to 1.56.
WEIGHTED_AVERAGE_UNITS = 3
IDENTITY_UNITS = 4
PREDICTED_UNITS = 3

_variance = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(1e-300, 1e300))


@given(_variance, _variance, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.booleans(),
       st.sampled_from([1.0, 1e300, 1e-300]))
@settings(max_examples=60, deadline=None)
def test_weighted_average_matches_exact_rationals(s_wa2, s_wb2, a, b, equal, scale):
    assume(s_wa2 or s_wb2)
    a, b = a * scale, (a if equal else b) * scale
    largest = max(abs(a), abs(b))
    assume(largest >= 2.0**-1000)  # below this the result rounds in the subnormal range
    got = weighted_average(a, b, WithinSubjectVariance(s_wa2, s_wb2))
    exact = (Fraction(s_wb2) * Fraction(a) + Fraction(s_wa2) * Fraction(b)) / (
        Fraction(s_wa2) + Fraction(s_wb2))
    assert abs(Fraction(float(got)) - exact) <= WEIGHTED_AVERAGE_UNITS * Fraction(largest) / 2**52


@st.composite
def _moments(draw):
    """Weights (not both 0) and var_a, var_b, cov_ab, mostly with |cov_ab| <= sqrt(var_a * var_b)."""
    alpha, beta = draw(_variance), draw(_variance)
    assume(alpha or beta)
    var_a, var_b = draw(_variance), draw(_variance)
    scale = max(var_a, var_b)
    assume(2.0**-1000 <= scale < 1e300)  # no subnormal result, and (beta - alpha) * cov_ab fits
    if draw(st.booleans()):
        cov_ab = draw(st.floats(-1.0, 1.0)) * math.sqrt(var_a) * math.sqrt(var_b)
    else:
        cov_ab = draw(st.floats(-scale, scale))
    return WeightPair(alpha, beta), var_a, var_b, cov_ab


def _exact_identity(w: WeightPair, var_a: float, var_b: float, cov_ab: float) -> Fraction:
    alpha, beta = Fraction(w.alpha), Fraction(w.beta)
    return (alpha * Fraction(var_a) - beta * Fraction(var_b)
            + (beta - alpha) * Fraction(cov_ab)) / (alpha + beta)


@given(_moments())
@settings(max_examples=60, deadline=None)
def test_covariance_identity_matches_exact_rationals(moments):
    w, var_a, var_b, cov_ab = moments
    got = general_covariance_identity(w, var_a, var_b, cov_ab)
    scale = Fraction(max(var_a, var_b, abs(cov_ab)))
    assert abs(Fraction(got) - _exact_identity(*moments)) <= IDENTITY_UNITS * scale / 2**52


@given(_moments(), st.sampled_from(["a-b", "b-a"]))
@settings(max_examples=40, deadline=None)
def test_predicted_covariance_matches_exact_rationals(moments, direction):
    w, var_a, var_b, _ = moments
    got = predicted_covariance(w, WithinSubjectVariance(var_a, var_b), direction)
    exact = _exact_identity(w, var_a, var_b, 0.0)
    exact = exact if Direction(direction) is Direction.A_MINUS_B else -exact
    assert abs(Fraction(got) - exact) <= PREDICTED_UNITS * Fraction(max(var_a, var_b)) / 2**52
