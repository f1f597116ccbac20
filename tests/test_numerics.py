"""Tests for the statistics kernel.

scipy.stats serves as the oracle for regression and the t distribution.
The package's Student-t functions are scipy.special.stdtr/stdtrit, so the
checks against quadrature and this file's own density are the independent
ones.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from methodagree.numerics import (
    DegenerateDataError,
    correlation_p_value,
    covariance,
    linear_fit,
    mean,
    orthonormalize,
    student_t_cdf,
    student_t_quantile,
    variance,
)

DF_SET = (1, 2, 10, 98)


class TestMoments:
    def test_mean_symmetric_triple(self):
        assert mean([1, 2, 3]) == 2

    def test_mean_zeros(self):
        assert mean([0, 0, 0]) == 0

    def test_mean_singleton(self):
        assert mean([2.5]) == 2.5

    def test_covariance_of_identical_triples(self):
        assert covariance([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_covariance_antisymmetric(self):
        assert covariance([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_covariance_constant_is_zero(self):
        assert covariance([4.0, -1.5, 9.0, 2.2], [7, 7, 7, 7]) == 0.0

    def test_covariance_with_self_is_variance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(size=rng.integers(2, 40)) * rng.uniform(0.1, 50)
            v = variance(x)
            assert covariance(x, x) == pytest.approx(v, rel=1e-12)
            assert v >= 0


class TestPearson:
    """Pearson's r as ``linear_fit`` reports it, and its p-value."""

    def test_perfect_linear(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        assert linear_fit(x, 2 * x + 1)[0].r == pytest.approx(1.0)

    def test_perfect_inverse(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        assert linear_fit(x, -x)[0].r == pytest.approx(-1.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(3, 60))
            x = rng.normal(size=n)
            y = rng.normal(size=n) + 0.3 * x
            expected = stats.pearsonr(x, y)
            assert correlation_p_value(expected.statistic, n) == pytest.approx(
                expected.pvalue, rel=1e-9, abs=1e-12
            )

    @given(
        st.floats(0.01, 1e3),
        st.floats(-1e3, 1e3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_invariance(self, scale, shift, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        r = linear_fit(x, y)[0].r
        assert linear_fit(scale * x + shift, y)[0].r == pytest.approx(r, abs=1e-9)
        assert linear_fit(-scale * x + shift, y)[0].r == pytest.approx(-r, abs=1e-9)


class TestCorrelationPValue:
    def test_zero_statistic(self):
        assert correlation_p_value(0.0, 100) == 1.0

    def test_perfect_correlation(self):
        assert correlation_p_value(1.0, 10) == 0.0
        assert correlation_p_value(-1.0, 10) == 0.0

    def test_moderate_correlation_n100(self):
        # oracle: two-sided t test via scipy -> 0.031377572377679
        assert correlation_p_value(0.2154, 100) == pytest.approx(0.03, abs=0.005)
        assert correlation_p_value(0.2154, 100) == pytest.approx(
            0.031377572377679, rel=1e-10
        )

    def test_negligible_correlation_n100(self):
        # oracle: scipy -> 0.9135036590484389
        assert correlation_p_value(0.0110, 100) == pytest.approx(0.91, abs=0.01)



def _t_density(x: float, df: int) -> float:
    # written out independently of the package's internals
    return math.exp(
        math.lgamma((df + 1) / 2)
        - math.lgamma(df / 2)
        - 0.5 * math.log(df * math.pi)
        - ((df + 1) / 2) * math.log(1 + x * x / df)
    )


class TestStudentT:
    def test_cdf_at_zero(self):
        for df in DF_SET:
            assert student_t_cdf(0.0, df) == 0.5

    def test_cdf_cauchy_closed_form(self):
        # df=1 is the Cauchy distribution: F(1) = 1/2 + atan(1)/pi = 0.75
        assert student_t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-12)

    def test_cdf_against_numerical_integration(self):
        # oracle: adaptive quadrature of the density, frozen spot value below
        val, _ = integrate.quad(_t_density, 0, 1.9845, args=(98,), epsabs=1e-13)
        assert 0.5 + val == pytest.approx(0.9750018420836715, abs=1e-12)
        assert student_t_cdf(1.9845, 98) == pytest.approx(0.5 + val, abs=1e-10)

    def test_cdf_matches_scipy_grid(self):
        for df in DF_SET:
            for t in np.arange(-10, 10.01, 0.5):
                assert student_t_cdf(float(t), df) == pytest.approx(
                    stats.t.cdf(t, df), abs=1e-12
                )

    @given(st.floats(-30, 30), st.sampled_from(DF_SET))
    @settings(max_examples=150, deadline=None)
    def test_cdf_symmetry(self, t, df):
        assert student_t_cdf(t, df) + student_t_cdf(-t, df) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_cdf_near_zero_at_large_df(self):
        # F(t) = 1/2 + t * f(0) + O(t^3); at t = -1e-6 the cubic term is far
        # below double precision, while df / (df + t^2) rounds to 1.0.
        for df in (9998, 999998):
            expected = 0.5 - 1e-6 * _t_density(0.0, df)
            assert abs(student_t_cdf(-1e-6, df) - expected) <= 1e-15

    def test_quantile_median(self):
        assert student_t_quantile(0.5, 10) == 0.0

    def test_quantile_cauchy_closed_form(self):
        assert student_t_quantile(0.75, 1) == pytest.approx(1.0, abs=1e-9)

    def test_quantile_98df(self):
        # oracle: scipy.stats.t.ppf(0.975, 98) = 1.984467454426692
        assert student_t_quantile(0.975, 98) == pytest.approx(
            1.984467454426692, abs=1e-9
        )

    def test_quantile_outside_default_bracket(self):
        # Cauchy 0.9999 quantile = tan(pi * 0.4999) ~ 3183, far beyond +-50
        expected = math.tan(math.pi * (0.9999 - 0.5))
        assert student_t_quantile(0.9999, 1) == pytest.approx(expected, rel=1e-10)

    def test_quantile_round_trip(self):
        # Where F(t) saturates toward 1.0 (df=98, |t| beyond ~7) the double
        # representation of q no longer resolves t to 1e-7, so those points
        # are untestable by construction and skipped.
        for df in DF_SET:
            for t in np.arange(-10, 10.01, 0.5):
                q = student_t_cdf(float(t), df)
                if not 0.0 < q < 1.0:
                    continue
                resolution = np.spacing(q) / _t_density(float(t), df)
                if resolution > 5e-8:
                    continue
                assert student_t_quantile(q, df) == pytest.approx(float(t), abs=1e-7)

    def test_quantile_inverts_cdf_in_probability(self):
        for df in DF_SET:
            for q in (0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999):
                t = student_t_quantile(q, df)
                assert student_t_cdf(t, df) == pytest.approx(q, abs=1e-9)


class TestLinearFit:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit, _, _ = linear_fit(x, 3 * x)
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r == pytest.approx(1.0)
        assert fit.ci_low == pytest.approx(fit.ci_high, abs=1e-12)
        assert fit.p_value == 0.0
        assert fit.df == 2

    def test_constant_x_rejected(self):
        with pytest.raises(DegenerateDataError):
            linear_fit([2, 2, 2, 2], [1, 2, 3, 4])

    def test_slope_is_cov_over_var(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=30) * 5
            y = 0.4 * x + rng.normal(size=30)
            fit, _, _ = linear_fit(x, y)
            assert fit.slope == pytest.approx(
                covariance(x, y) / variance(x), rel=1e-12
            )

    def test_matches_scipy_linregress(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(5, 80))
            x = rng.normal(size=n) * rng.uniform(0.5, 20)
            y = rng.uniform(-2, 2) * x + rng.normal(size=n)
            fit, _, _ = linear_fit(x, y)
            ref = stats.linregress(x, y)
            assert fit.slope == pytest.approx(ref.slope, rel=1e-10)
            assert fit.intercept == pytest.approx(ref.intercept, rel=1e-8, abs=1e-10)
            assert fit.r == pytest.approx(ref.rvalue, rel=1e-10)
            assert fit.p_value == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-15)
            assert fit.slope_se == pytest.approx(ref.stderr, rel=1e-9)

    def test_ci_brackets_slope(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=40)
        y = 1.2 * x + rng.normal(size=40)
        for conf in (0.5, 0.9, 0.95, 0.99):
            fit, _, _ = linear_fit(x, y, confidence=conf)
            assert fit.ci_low <= fit.slope <= fit.ci_high

    def test_confidence_domain(self):
        # the quantile-level check also refuses 1.0; the other values reach only this one
        for confidence in (0.0, -0.5, 1.5, math.nan, 1.0):
            with pytest.raises(ValueError, match=r"^confidence must lie in \(0, 1\), got "):
                linear_fit([1, 2, 3], [1, 2, 3], confidence=confidence)

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_far_from_unit_scale(self, scale):
        # squares of 1e160 overflow and of 1e-170 underflow without rescaling
        x, y, _ = np.random.default_rng(1).normal(size=(100, 3)).T
        ref, _, _ = linear_fit(x, y)
        fit, _, _ = linear_fit(x * scale, y * scale)
        for name in ("slope", "slope_se", "ci_low", "ci_high", "r", "p_value"):
            assert getattr(fit, name) == pytest.approx(getattr(ref, name), rel=1e-12), name
        assert fit.intercept == pytest.approx(ref.intercept * scale, rel=1e-12)

    @pytest.mark.parametrize("shift", [600, -600])
    def test_power_of_two_scale_changes_nothing_but_the_scale(self, shift):
        x, y, _ = np.random.default_rng(1).normal(size=(100, 3)).T
        ref, _, _ = linear_fit(x, 0.3 * x + y)
        fit, _, _ = linear_fit(np.ldexp(x, shift), np.ldexp(0.3 * x + y, shift))
        assert fit == dataclasses.replace(ref, intercept=math.ldexp(ref.intercept, shift))


def _assert_whitened(out: np.ndarray):
    n, k = out.shape
    means = out.mean(axis=0)
    cov = (out - means).T @ (out - means) / (n - 1)
    assert np.all(np.abs(means) <= 1e-12)
    assert np.all(np.abs(np.diag(cov) - 1.0) <= 1e-10)
    off = cov - np.diag(np.diag(cov))
    assert np.all(np.abs(off) <= 1e-10)


class TestOrthonormalize:
    # orthonormalize takes (k, n) rows and may overwrite them, so each case passes
    # a transposed copy of its (n, k) columns and checks the transposed output
    def test_moment_contract_on_gaussian_draws(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            out = orthonormalize(rng.normal(size=(100, 3)).T.copy()).T
            _assert_whitened(out)

    def test_idempotent_moment_contract(self):
        rng = np.random.default_rng(42)
        once = orthonormalize(rng.normal(size=(50, 3)).T.copy())
        twice = orthonormalize(once).T
        _assert_whitened(twice)

    def test_spans_centered_input(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 3))
        out = orthonormalize(x.T.copy()).T
        centered = x - x.mean(axis=0)
        # every centered input column must be reproducible from the output
        _, residuals, _, _ = np.linalg.lstsq(out, centered, rcond=None)
        assert np.all(residuals <= 1e-16 * centered.size)

    def test_duplicated_column_rejected(self):
        rng = np.random.default_rng(9)
        col = rng.normal(size=60)
        x = np.column_stack([col, col, rng.normal(size=60)])
        with pytest.raises(DegenerateDataError, match="rank deficient"):
            orthonormalize(x.T.copy())

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            orthonormalize(np.ones((3, 3)).T.copy())

    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e160])
    def test_moment_contract_far_from_unit_scale(self, scale):
        x = np.random.default_rng(7).normal(size=(100, 3))
        out = orthonormalize((x * scale).T.copy()).T
        _assert_whitened(out)
        # whitening is scale-free, so the output must not depend on the scale
        np.testing.assert_allclose(out, orthonormalize(x.T.copy()).T, rtol=0, atol=1e-12)

    def test_moment_contract_with_large_offset(self):
        # centring 1e8 + N(0, 1) in floats leaves a mean near 1e-8; the output
        # must still be centred to rounding
        x = np.random.default_rng(3).normal(size=(100, 3)) + 1e8
        _assert_whitened(orthonormalize(x.T.copy()).T)

    def test_memory_order_does_not_matter(self):
        x = np.random.default_rng(8).normal(size=(200, 3)) * [1.0, 3.0, 0.5] + 2.0
        np.testing.assert_array_equal(orthonormalize(np.asfortranarray(x.T)).T,
                                      orthonormalize(np.ascontiguousarray(x.T)).T)
