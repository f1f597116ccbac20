"""Exact-rational oracle for the statistics kernel.

``fractions.Fraction`` holds every double exactly, so the mean and the
sample variance of a few doubles can be computed with no rounding at all.
The kernel's answers are compared with those exact values. Each bound is
stated in the scale of the inputs, max|y|, because values that cancel leave
a result near zero whose relative error says nothing about the kernel.

The bounds were measured before they were written down: over 60,000
numpy draws (uniform, clustered near an offset, spread over nine decades,
one ulp apart; n from 3 to 8; times 1, 1e300 and 1e-300), 80,000 draws of
same-signed values near 1e3, and 20,000 targeted hypothesis examples of
the strategy below, the largest errors were 2.29 ulps of max|y| for the
mean and 2.14 · 2**-52 · max|y|**2 for the variance. The bounds below
leave room above those for inputs the draws missed; an error of the
formula, such as the divisor n for n - 1, misses them by far.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from methodagree.numerics import linear_fit

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
    _, y_mean, y_sd = linear_fit(np.arange(n, dtype=float), y)
    exact = [Fraction(v) for v in y.tolist()]
    mean = sum(exact) / n
    var = sum((v - mean) ** 2 for v in exact) / (n - 1)
    assert abs(Fraction(y_mean) - mean) <= MEAN_ULPS * Fraction(math.ulp(largest))
    assert abs(Fraction(y_sd) ** 2 - var) <= VARIANCE_UNITS * Fraction(largest) ** 2 / 2**52
