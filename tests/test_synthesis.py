import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaincinv, ndtri

from methodagree.agreement import (
    AxisKind,
    Direction,
    WeightPair,
    analyze,
)
from methodagree.numerics import covariance, variance
from methodagree.synthesis import (
    _DRAW_BLOCK,
    CASE_PRESETS,
    SyntheticConfig,
    closed_form_moments,
    generate,
    monte_carlo_covariance,
    preset_config,
    preset_results,
)


def mean_weights() -> WeightPair:
    return WeightPair(1.0, 1.0)


def inverse_variance_weights(config: SyntheticConfig) -> WeightPair:
    return WeightPair(alpha=config.s_b**2, beta=config.s_a**2)


class TestConfig:
    def test_presets(self):
        assert set(CASE_PRESETS) == {"a", "b", "c", "d"}
        c = preset_config("c")
        assert (c.k_a, c.k_b, c.s_a, c.s_b) == (1.0, 1.0, 0.5, 4.5)
        d = preset_config("d")
        assert (d.k_a, d.k_b, d.s_a, d.s_b) == (1.0, 0.9, 0.5, 4.5)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown case"):
            preset_config("z")

    def test_preset_config_forwards_fields(self):
        assert preset_config("c") == SyntheticConfig(**CASE_PRESETS["c"])
        fields = dict(n=7, sigma_c=2.5, seed=9, exact_moments=False)
        assert preset_config("c", **fields) == SyntheticConfig(**CASE_PRESETS["c"], **fields)
        with pytest.raises(TypeError):
            preset_config("c", size=7)

    @pytest.mark.parametrize("call, message", [
        (lambda: SyntheticConfig(n=2, exact_moments=False), "need n >= 3, got 2"),
        (lambda: SyntheticConfig(seed=-1), "seed must be nonnegative, got -1"),
        (lambda: preset_config("c", seed=np.int32(-7)), "seed must be nonnegative, got -7"),
        (lambda: monte_carlo_covariance(preset_config("c", exact_moments=False),
                                        mean_weights(), trials=1),
         "need at least 2 trials, got 1"),
        # squares overflow to inf, which the field check names, not to a bare OverflowError
        (lambda: SyntheticConfig(s_a=1e200).error_variances(), "s_wa2 must be finite, got inf"),
        (lambda: closed_form_moments(preset_config("c", sigma_c=1e200), mean_weights()),
         "var_axis overflows the largest double; rescale sigma_c, s_a and s_b"),
        (lambda: closed_form_moments(SyntheticConfig(k_a=0.0, k_b=1.0, s_a=0.0, s_b=1.0),
                                     WeightPair(1.0, 1e-320)),
         "slope overflows the largest double; the axis barely varies next to the difference, "
         "at any scale"),
    ], ids=["config-n-2", "config-seed-negative", "preset-seed-negative-numpy",
            "monte-carlo-1-trial", "error-variances-overflow", "closed-form-overflow",
            "closed-form-slope-overflow"])
    def test_rejects_invalid_input(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: SyntheticConfig(n=100.0), "n must be an integer, got 100.0"),
        (lambda: preset_config("c", n=1e4), "n must be an integer, got 10000.0"),
        (lambda: SyntheticConfig(seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: monte_carlo_covariance(preset_config("c", exact_moments=False),
                                        mean_weights(), trials=2.5),
         "trials must be an integer, got 2.5"),
        (lambda: monte_carlo_covariance(preset_config("c", exact_moments=False),
                                        mean_weights(), trials=2.0),
         "trials must be an integer, got 2.0"),
        (lambda: SyntheticConfig(seed=True), "seed must be an integer, got True"),
        (lambda: SyntheticConfig(n=True), "n must be an integer, got True"),
        (lambda: monte_carlo_covariance(preset_config("c", exact_moments=False),
                                        mean_weights(), trials=True),
         "trials must be an integer, got True"),
    ], ids=["config-n-float", "preset-n-float", "config-seed-float", "monte-carlo-2.5-trials",
            "monte-carlo-2.0-trials", "config-seed-bool", "config-n-bool",
            "monte-carlo-bool-trials"])
    def test_rejects_counts_that_are_not_integers(self, call, message):
        # numpy would fail later with "'float' object cannot be interpreted as an integer";
        # a bool is an int, so True would run as seed 1 or fail later as "need n >= 3"
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_exact_moments_must_be_a_bool(self, value):
        # "false" is truthy and would whiten; 0 and 1 would pass as False and True
        message = f"exact_moments must be a bool, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SyntheticConfig(exact_moments=value)

    def test_numpy_bool_exact_moments_is_accepted(self):
        for flag in (False, True):
            sample = generate(preset_config("c", n=10, exact_moments=np.bool_(flag)))
            reference = generate(preset_config("c", n=10, exact_moments=flag))
            assert np.array_equal(sample.a, reference.a)
            assert np.array_equal(sample.b, reference.b)

    def test_numpy_integer_counts_are_accepted(self):
        config = preset_config("c", n=np.int64(20), seed=np.int32(4), exact_moments=False)
        sample = generate(config)
        reference = generate(preset_config("c", n=20, seed=4, exact_moments=False))
        np.testing.assert_array_equal(sample.a, reference.a)
        np.testing.assert_array_equal(sample.b, reference.b)
        assert (monte_carlo_covariance(config, mean_weights(), trials=np.int64(3))
                == monte_carlo_covariance(config, mean_weights(), trials=3))

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n=3, exact_moments=True)
        with pytest.raises(ValueError):
            SyntheticConfig(s_a=-1.0)
        with pytest.raises(ValueError):
            SyntheticConfig(sigma_c=0.0)

    @pytest.mark.parametrize("call, message", [
        (lambda big: closed_form_moments(SyntheticConfig(k_a=big, k_b=-big, sigma_c=1e200),
                                         mean_weights()), "cov overflows"),
        (lambda big: monte_carlo_covariance(
            SyntheticConfig(k_a=big, k_b=-big, sigma_c=1e200, exact_moments=False),
            mean_weights(), 10), "u.v overflows"),
        (lambda big: SyntheticConfig(s_a=big).error_variances(), "s_wa2 must be finite, got inf"),
    ], ids=["closed-form", "monte-carlo", "error-variances"])
    def test_numpy_float_fields_overflow_as_python_floats(self, call, message):
        # numpy scalars warn as they overflow, which pytest makes an error, before
        # the named ValueError; the config stores every float field as a Python float
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            call(np.float64(1e200))
        assert {type(getattr(SyntheticConfig(k_a=np.float32(2.0), k_b=2, s_a=np.longdouble(1)),
                             name)) for name in ("k_a", "k_b", "s_a", "s_b", "sigma_c")} == {float}

    @pytest.mark.parametrize("name", ["k_a", "k_b", "s_a", "s_b", "sigma_c"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), True, "1.0"])
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            SyntheticConfig(**{name: value})


def whitened_reference(config):
    """Exact-moment draws the way they were first defined: (n, 3) uniforms,
    clamp, inverse normal CDF, then centring, symmetric eigh whitening and a
    per-column rescale, all on the C-ordered (n, 3) array."""
    u = np.random.default_rng(config.seed).random((config.n, 3))
    z = ndtri(np.maximum(u, 2.0**-54))
    centered = z - z.mean(axis=0)
    vals, vecs = np.linalg.eigh(centered.T @ centered / (config.n - 1))
    out = centered @ (vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T)
    out -= out.mean(axis=0)
    out /= out.std(axis=0, ddof=1)
    c = config.sigma_c * out[:, 0]
    return config.k_a * c + config.s_a * out[:, 1], config.k_b * c + config.s_b * out[:, 2]


def single_draw_reference(config):
    """generate as it was before the block draw: one random((n, 3)) call, clamp,
    inverse normal CDF, then (with exact moments) whitening of a C-ordered (3, n)
    copy scaled by one power of two, exactly as orthonormalize did on columns."""
    u = np.random.default_rng(config.seed).random((config.n, 3))
    z = ndtri(np.maximum(u, 2.0**-54))
    if config.exact_moments:
        shift = -math.frexp(max(z.max(), -z.min()))[1]
        rows = np.ldexp(z.T, shift, out=np.empty((3, config.n)))
        rows -= rows.mean(axis=1, keepdims=True)
        vals, vecs = np.linalg.eigh(rows @ rows.T / (config.n - 1))
        out = (vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T) @ rows
        out -= out.mean(axis=1, keepdims=True)
        out /= np.sqrt(np.einsum("ij,ij->i", out, out) / (config.n - 1))[:, None]
        z = out.T
    c = config.sigma_c * z[:, 0]
    return config.k_a * c + config.s_a * z[:, 1], config.k_b * c + config.s_b * z[:, 2]


class TestGenerate:
    @pytest.mark.parametrize("label", sorted(CASE_PRESETS))
    @pytest.mark.parametrize("exact_moments", [True, False])
    def test_bit_identical_to_single_draw(self, label, exact_moments):
        # the block draw continues one PCG64 stream, so no uniform and no bit may move
        for seed in (1, 2**64 + 7):
            for n in (4, 5, 100, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1,
                      2 * _DRAW_BLOCK + 3):
                config = preset_config(label, n=n, seed=seed, exact_moments=exact_moments)
                sample, (a, b) = generate(config), single_draw_reference(config)
                assert np.array_equal(sample.a, a) and np.array_equal(sample.b, b), (seed, n)

    def test_peak_memory_is_the_signals_and_the_measurements(self):
        # the (3, n) signals, whitened and scaled in place, and the two measurement
        # vectors; a whitened copy of the signals or a temporary n-vector breaks the bound
        n = 200_000
        generate(preset_config("c", n=100))  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            sample = generate(preset_config("c", n=n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.n == n
        assert peak <= (3 * n + 2 * n) * 8 + 2**20

    @pytest.mark.parametrize("label", sorted(CASE_PRESETS))
    @pytest.mark.parametrize("n", [4, 100, 10_000])
    def test_matches_whitened_reference(self, label, n):
        config = preset_config(label, n=n, seed=n + 11)
        sample = generate(config)
        for got, want in zip((sample.a, sample.b), whitened_reference(config)):
            # rtol 1e-12 of the data scale: entries near 0 carry absolute rounding
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("exact_moments", [True, False])
    @pytest.mark.parametrize("fields", [dict(sigma_c=1e308), dict(s_b=1e308), dict(k_a=1e308)],
                             ids=["sigma_c", "s_b", "k_a"])
    def test_overflowing_measurement_is_named(self, fields, exact_moments):
        # numpy warns as the scaling overflows, which pytest makes an error; generate
        # names the overflow and its cure instead
        config = SyntheticConfig(**{**CASE_PRESETS["c"], **fields}, exact_moments=exact_moments)
        message = ("a synthetic measurement overflows the largest double; "
                   "rescale sigma_c, s_a and s_b")
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate(config)

    def test_noise_free_methods_coincide(self):
        config = SyntheticConfig(k_a=1.0, k_b=1.0, s_a=0.0, s_b=0.0, seed=3)
        sample = generate(config)
        assert np.array_equal(sample.a, sample.b)

    def test_bit_reproducible(self):
        config = preset_config("b", seed=123)
        s1 = generate(config)
        s2 = generate(config)
        assert np.array_equal(s1.a, s2.a)
        assert np.array_equal(s1.b, s2.b)

    def test_different_seeds_differ_raw(self):
        c1 = preset_config("a", seed=1, exact_moments=False)
        c2 = preset_config("a", seed=2, exact_moments=False)
        assert not np.array_equal(generate(c1).a, generate(c2).a)

    def test_exact_cross_covariance(self):
        for seed in (1, 7, 99):
            config = preset_config("d", seed=seed)
            sample = generate(config)
            expected = config.k_a * config.k_b * config.sigma_c**2
            assert covariance(sample.a, sample.b) == pytest.approx(
                expected, abs=1e-8
            )

    def test_exact_marginal_variances(self):
        config = preset_config("c", seed=5)
        sample = generate(config)
        assert variance(sample.a) == pytest.approx(
            config.k_a**2 * config.sigma_c**2 + config.s_a**2, abs=1e-8
        )
        assert variance(sample.b) == pytest.approx(
            config.k_b**2 * config.sigma_c**2 + config.s_b**2, abs=1e-8
        )

    def test_stats_are_seed_independent_with_exact_moments(self):
        results = []
        for seed in (1, 2, 7, 8, 1234):
            sample = generate(preset_config("d", seed=seed))
            res = analyze(sample)
            results.append((res.fit.r, res.fit.p_value, res.fit.slope))
        base = results[0]
        for other in results[1:]:
            np.testing.assert_allclose(other, base, atol=1e-9)

    def test_case_d_mean_axis_slope(self):
        # closed form: cov = 0.5, var(mean axis) = 95.375
        sample = generate(preset_config("d"))
        res = analyze(sample, axis=AxisKind.ARITHMETIC_MEAN, direction="b-a")
        assert res.fit.slope == pytest.approx(0.5 / 95.375, abs=1e-10)

    def test_case_c_mean_axis_correlation(self):
        # closed form: r = 10/sqrt(20.5 * 105.125) = 0.21541208536359457
        sample = generate(preset_config("c", seed=31))
        res = analyze(sample, axis=AxisKind.ARITHMETIC_MEAN, direction="b-a")
        assert res.fit.r == pytest.approx(0.21541208536359457, abs=1e-10)
        assert np.corrcoef(res.axis_values, res.differences)[0, 1] == pytest.approx(
            res.fit.r, abs=1e-14
        )

    def test_case_b_slope_interval(self):
        # oracle (closed form + scipy t quantile): (-0.148514, -0.059420)
        sample = generate(preset_config("b"))
        res = analyze(sample, axis=AxisKind.ARITHMETIC_MEAN, direction="b-a")
        assert res.fit.ci_low == pytest.approx(-0.148514, abs=1e-6)
        assert res.fit.ci_high == pytest.approx(-0.059420, abs=1e-6)


class TestClosedFormMoments:
    def test_no_error_and_equal_scaling_has_no_correlation(self):
        # a = b exactly: the differences are constant, so r is 0 by definition
        config = SyntheticConfig(k_a=1.0, k_b=1.0, s_a=0.0, s_b=0.0)
        cf = closed_form_moments(config, WeightPair(1.0, 2.0))
        assert (cf.var_diff, cf.r) == (0.0, 0.0)
        assert cf.var_axis == pytest.approx(100.0, rel=1e-12)
        assert cf.cov == pytest.approx(0.0, abs=1e-12)
        assert cf.slope == pytest.approx(0.0, abs=1e-12)

    def test_case_b_mean_axis(self):
        # cov = (k_b^2 - k_a^2)*sigma_c^2/2 = -9.5, var_diff = 5.5,
        # var_axis = 91.375 -> r = -0.4238, slope = -0.1040
        cf = closed_form_moments(preset_config("b"), mean_weights(), "b-a")
        assert cf.cov == pytest.approx(-9.5, abs=1e-12)
        assert cf.var_diff == pytest.approx(5.5, abs=1e-12)
        assert cf.var_axis == pytest.approx(91.375, abs=1e-12)
        assert cf.r == pytest.approx(-9.5 / np.sqrt(5.5 * 91.375), rel=1e-12)
        assert cf.slope == pytest.approx(-9.5 / 91.375, rel=1e-12)
        assert round(cf.r, 4) == -0.4238
        assert round(cf.slope, 4) == -0.104

    def test_case_d_inverse_variance_axis(self):
        config = preset_config("d")
        cf = closed_form_moments(config, inverse_variance_weights(config), "b-a")
        assert round(cf.slope, 4) == -0.0999
        assert round(cf.r, 4) == -0.2154

    def test_no_trend_inverse_weights_zero_covariance(self):
        for s_a, s_b, sigma_c, k in ((0.5, 4.5, 10.0, 1.0), (2.0, 3.0, 4.0, 0.7)):
            config = SyntheticConfig(k_a=k, k_b=k, s_a=s_a, s_b=s_b, sigma_c=sigma_c)
            cf = closed_form_moments(config, inverse_variance_weights(config))
            assert cf.cov == pytest.approx(0.0, abs=1e-12)

    def test_direction_flip(self):
        config = preset_config("b")
        ba = closed_form_moments(config, mean_weights(), Direction.B_MINUS_A)
        ab = closed_form_moments(config, mean_weights(), Direction.A_MINUS_B)
        assert ab.cov == pytest.approx(-ba.cov)
        assert ab.slope == pytest.approx(-ba.slope)
        assert ab.var_diff == ba.var_diff

    @pytest.mark.parametrize("sigma_c", [1e100, 1e150])
    def test_r_is_scale_free_where_var_diff_times_var_axis_overflows(self, sigma_c):
        config = preset_config("b", sigma_c=sigma_c)
        cf = closed_form_moments(config, mean_weights())
        assert math.isinf(cf.var_diff * cf.var_axis)
        fit = analyze(generate(config), axis="mean").fit
        assert cf.r == pytest.approx(fit.r, rel=1e-8)
        assert cf.slope == pytest.approx(fit.slope, rel=1e-8)

    @pytest.mark.parametrize("beta", [1e-170, 1e-300])
    def test_r_and_slope_survive_an_axis_variance_below_the_smallest_double(self, beta):
        # v.v underflows to 0, but r and the slope are ratios of u and v, here parallel
        config = SyntheticConfig(k_a=0.0, k_b=1.0, s_a=0.0, s_b=1.0)
        cf = closed_form_moments(config, WeightPair(1.0, beta))
        assert cf.var_axis == 0.0
        assert cf.r == pytest.approx(1.0, abs=4 * 2.0**-52)
        assert cf.slope == pytest.approx(1.0 + 1.0 / beta, rel=4 * 2.0**-52)

    def test_r_of_parallel_loadings_is_clamped_to_one(self):
        config = SyntheticConfig(k_a=0.0, k_b=1.0, s_a=0.0, s_b=1.0)
        assert closed_form_moments(config, WeightPair(1.0, 1e-170)).r == 1.0
        # u and v stay parallel for every beta; unclamped, r rounds past 1 for many of them
        for direction in ("a-b", "b-a"):
            rs = [closed_form_moments(config, WeightPair(1.0, 10.0**-k), direction).r
                  for k in range(160)]
            assert all(abs(r) <= 1.0 for r in rs), direction

    def test_first_of_several_overflowing_moments_is_named(self):
        # u.u and u.v / v.v both overflow; var_diff is computed, and named, before the slope
        config = SyntheticConfig(k_a=1e200, k_b=1e-200, s_a=0.0, s_b=1e-201, sigma_c=1.0)
        message = "var_diff overflows the largest double; rescale sigma_c, s_a and s_b"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            closed_form_moments(config, WeightPair(0.0, 1.0))

    @pytest.mark.parametrize("scale", [1e-170, 1e160, 2.0**-1000, 2.0**1000])
    def test_extreme_weights_keep_their_ratio(self, scale):
        config = preset_config("c")
        got = closed_form_moments(config, WeightPair(3.0 * scale, scale))
        want = closed_form_moments(config, WeightPair(3.0, 1.0))
        for name in ("cov", "var_diff", "var_axis", "r", "slope"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-14)

    def test_analyze_matches_closed_form_everywhere(self):
        for label in CASE_PRESETS:
            config = preset_config(label, seed=11)
            sample = generate(config)
            for axis, weights in (
                (AxisKind.ARITHMETIC_MEAN, mean_weights()),
                (AxisKind.WEIGHTED_AVERAGE, inverse_variance_weights(config)),
            ):
                cf = closed_form_moments(config, weights, "b-a")
                res = analyze(
                    sample,
                    axis=axis,
                    direction="b-a",
                    variances=config.error_variances(),
                )
                assert covariance(res.differences, res.axis_values) == pytest.approx(
                    cf.cov, rel=1e-8, abs=1e-9
                )
                assert variance(res.differences) == pytest.approx(cf.var_diff, rel=1e-8)
                assert variance(res.axis_values) == pytest.approx(cf.var_axis, rel=1e-8)
                assert res.fit.r == pytest.approx(cf.r, rel=1e-8, abs=1e-9)
                assert res.fit.slope == pytest.approx(cf.slope, rel=1e-8, abs=1e-9)


class TestPresetResults:
    def test_shape_and_labels(self):
        entries = preset_results()
        assert [label for label, _, _ in entries] == ["a", "b", "c", "d"]
        for _, classic, weighted in entries:
            assert classic.axis is AxisKind.ARITHMETIC_MEAN
            assert weighted.axis is AxisKind.WEIGHTED_AVERAGE

    def test_equal_precision_rows_match_across_axes(self):
        entries = dict((label, (c, w)) for label, c, w in preset_results())
        for label in ("a", "b"):
            classic, weighted = entries[label]
            assert weighted.fit.slope == pytest.approx(classic.fit.slope, abs=1e-9)
            assert weighted.fit.r == pytest.approx(classic.fit.r, abs=1e-9)


def signal_coefficients(config, w, direction):
    """Rows (axis, difference) of their coefficients on the standard-normal
    signals (c / sigma_c, e_a, e_b), built from the measurement formulas."""
    sign = 1.0 if Direction(direction) is Direction.A_MINUS_B else -1.0
    a = np.array([config.sigma_c * config.k_a, config.s_a, 0.0])
    b = np.array([config.sigma_c * config.k_b, 0.0, config.s_b])
    return np.stack([(w.alpha * a + w.beta * b) / (w.alpha + w.beta), sign * (a - b)])


def bartlett_reference(config, w, trials, direction):
    """The documented stream contract, one trial at a time: trial i maps
    uniforms 2i and 2i + 1 of ``default_rng(seed)`` to chi2(n - 1) and N(0, 1),
    the first column of a Bartlett factor A of Wishart(n - 1, Sigma). A's last
    entry, chi2(n - 2), comes from later uniforms and leaves the covariance as is."""
    m = config.n - 1
    coefficients = signal_coefficients(config, w, direction)
    factor = np.linalg.cholesky(coefficients @ coefficients.T)
    rng = np.random.default_rng(config.seed)
    uniforms, later = rng.random((trials, 2)), rng.random(trials)
    covs = []
    for (u_chi2, u_normal), u_last in zip(uniforms, later):
        A = np.array([[np.sqrt(2.0 * gammaincinv(m / 2, u_chi2)), 0.0],
                      [ndtri(max(u_normal, 2.0**-54)),
                       np.sqrt(2.0 * gammaincinv((m - 1) / 2, u_last))]])
        scatter = factor @ A @ A.T @ factor.T
        covs.append(scatter[0, 1] / m)
    return np.mean(covs), np.std(covs, ddof=1) / np.sqrt(trials)


def per_trial_reference(config, w, trials, direction):
    """Brute force on the sample path: each trial draws n (c, e_a, e_b) normal
    triples from its own spawned stream, builds the pairs and takes the sample
    covariance of the difference and the axis."""
    sign = 1.0 if Direction(direction) is Direction.A_MINUS_B else -1.0
    covs = []
    for child in np.random.SeedSequence(config.seed).spawn(trials):
        u = np.random.default_rng(child).random((config.n, 3))
        z = ndtri(np.maximum(u, 2.0**-54))
        c = config.sigma_c * z[:, 0]
        a = config.k_a * c + config.s_a * z[:, 1]
        b = config.k_b * c + config.s_b * z[:, 2]
        d = sign * (a - b)
        axis = (w.alpha * a + w.beta * b) / (w.alpha + w.beta)
        covs.append(np.dot(d - d.mean(), axis - axis.mean()) / (config.n - 1))
    return np.mean(covs), np.std(covs, ddof=1) / np.sqrt(trials)


class TestSpawnedStates:
    """Seeds of every width reach numpy's own seeding unchanged: trial i draws
    uniforms 2i and 2i + 1 of ``default_rng(seed)``, whatever the trial count.
    (The names date from when each trial had a state spawned from
    ``SeedSequence(seed)``.)"""

    @pytest.mark.parametrize("count", [1, 2, 257])
    @pytest.mark.parametrize("seed", [
        0,
        2**32 - 1,  # one 32-bit word
        2**32,  # two words
        2**64 + 5,  # three words
        2**160 + 3,  # six words
        np.uint64(2**63 + 11),
    ], ids=["0", "2^32-1", "2^32", "2^64+5", "2^160+3", "numpy-uint64"])
    def test_matches_numpy_spawn(self, seed, count):
        # count trials after the first: a standard error needs two
        config = preset_config("d", n=10, seed=seed, exact_moments=False)
        w, trials = WeightPair(3.0, 1.0), count + 1
        np.testing.assert_allclose(
            monte_carlo_covariance(config, w, trials),
            bartlett_reference(config, w, trials, "a-b"), rtol=1e-12,
        )


class TestMonteCarlo:
    def test_rejects_exact_moments(self):
        with pytest.raises(ValueError, match="exact_moments"):
            monte_carlo_covariance(preset_config("a"), mean_weights(), 10)

    @pytest.mark.parametrize("fields, step", [
        (dict(s_a=1e200), "u.v"),
        (dict(s_a=1e100, s_b=1e100), "|u x v|"),  # u.v cancels to 0
        (dict(s_a=4e153, s_b=0.0, sigma_c=1e-10), "the sampled covariances"),
    ], ids=["dot", "cross", "covariances"])
    def test_overflow_names_the_step(self, fields, step):
        # unchecked, these return (nan, nan) or inf with RuntimeWarnings
        config = SyntheticConfig(**fields, exact_moments=False)
        message = f"{step} overflows the largest double; rescale sigma_c, s_a and s_b"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            monte_carlo_covariance(config, mean_weights(), 10)

    @pytest.mark.parametrize(
        "label, n, trials, w, direction",
        [
            ("c", 100, 257, WeightPair(1.0, 1.0), "a-b"),
            ("c", 20_000, 3, WeightPair(1.0, 1.0), "a-b"),  # cost independent of n
            ("d", 50, 30, WeightPair(3.0, 1.0), "a-b"),
            ("d", 50, 30, WeightPair(3.0, 1.0), "b-a"),
        ],
    )
    def test_matches_per_trial_reference(self, label, n, trials, w, direction):
        config = preset_config(label, n=n, seed=n + trials, exact_moments=False)
        got = monte_carlo_covariance(config, w, trials, direction=direction)
        np.testing.assert_allclose(
            got, bartlett_reference(config, w, trials, direction), rtol=1e-12
        )

    @pytest.mark.parametrize("label", ["c", "d"])
    def test_agrees_with_the_sample_path(self, label):
        # n = 4 gives chi2(3), far from normal, where a wrong distribution would show
        config = preset_config(label, n=4, seed=21, exact_moments=False)
        w = WeightPair(0.0, 1.0)
        mean_cov, se = monte_carlo_covariance(config, w, 2000)
        ref_cov, ref_se = per_trial_reference(config, w, 2000, "a-b")
        assert abs(mean_cov - ref_cov) < 4.0 * np.hypot(se, ref_se)
        # over 60 seeds the ratio spreads by about 3.5%; the bounds are six or more spreads away
        assert 0.8 < se / ref_se < 1.25

    @pytest.mark.parametrize("label, n, trials, seed, w, direction, want", [
        ("c", 100, 2000, 335381117, WeightPair(1.0, 1.0), "a-b",
         (-9.907401163412484, 0.10644512825053304)),
        ("d", 50, 257, 7, WeightPair(3.0, 1.0), "b-a", (-4.4568839774957425, 0.38463883459737397)),
        ("a", 30, 3, 2**160 + 3, WeightPair(1.0, 2.0), "a-b",
         (2.7780759978104057, 3.972214815842854)),
        ("c", 100, 40, 0, WeightPair(20.25, 0.25), "a-b",
         (0.058109737864113754, 0.8834252112823637)),
    ])
    def test_pinned_values(self, label, n, trials, seed, w, direction, want):
        # values of the Bartlett draw from default_rng(seed) uniforms through gammaincinv and
        # ndtri; every bit must stay
        config = preset_config(label, n=n, seed=seed, exact_moments=False)
        assert monte_carlo_covariance(config, w, trials, direction=direction) == want

    @pytest.mark.parametrize("label", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("n", [4, 100])
    def test_standard_error_is_exact(self, label, n):
        # S_01 of S ~ Wishart(m, Sigma) has variance m * (Sigma_01**2 + Sigma_00 * Sigma_11),
        # so one trial's covariance S_01 / m has that over m**2. At 2,000 trials the sampled
        # SE spreads by about 2.5% (n = 4) or 1.6% (n = 100) around the exact one (300 seeds,
        # three weightings); 15% is six of those spreads or more.
        config = preset_config(label, n=n, seed=n, exact_moments=False)
        w, trials = WeightPair(1.0, 3.0), 2000
        coefficients = signal_coefficients(config, w, "a-b")
        sigma = coefficients @ coefficients.T
        exact_se = np.sqrt((sigma[0, 1] ** 2 + sigma[0, 0] * sigma[1, 1]) / ((n - 1) * trials))
        mean_cov, se = monte_carlo_covariance(config, w, trials)
        assert abs(se / exact_se - 1.0) < 0.15
        assert abs(mean_cov - sigma[0, 1]) < 4.0 * exact_se

    def test_deterministic(self):
        config = preset_config("c", n=500, seed=77, exact_moments=False)
        out1 = monte_carlo_covariance(config, mean_weights(), 10)
        out2 = monte_carlo_covariance(config, mean_weights(), 10)
        assert out1 == out2

    @pytest.mark.parametrize("w", [WeightPair(5e-324, 0.0), WeightPair(2.0**1020, 2.0**1018),
                                   WeightPair(2.0**-1070, 2.0**-1072)])
    def test_extreme_weights_keep_their_ratio(self, w):
        # weights a power of two apart give the same axis, bit for bit
        config = preset_config("c", exact_moments=False, seed=3)
        want = WeightPair(1.0, 0.0) if w.beta == 0.0 else WeightPair(4.0, 1.0)
        assert monte_carlo_covariance(config, w, 50) == monte_carlo_covariance(config, want, 50)

    def test_inverse_variance_weights_center_on_zero(self):
        config = preset_config("c", n=4000, seed=5, exact_moments=False)
        mean_cov, se = monte_carlo_covariance(
            config, inverse_variance_weights(config), trials=40
        )
        assert abs(mean_cov) < 3 * se

    def test_equal_weights_match_prediction(self):
        # (1*0.25 - 1*20.25)/2 = -10 for the a-b difference
        config = preset_config("c", n=4000, seed=6, exact_moments=False)
        mean_cov, se = monte_carlo_covariance(
            config, mean_weights(), trials=40, direction=Direction.A_MINUS_B
        )
        assert abs(mean_cov - (-10.0)) < 3 * se

    def test_pure_noise_case(self):
        # k_a = k_b = 0 removes the shared signal entirely
        config = SyntheticConfig(
            n=4000, k_a=0.0, k_b=0.0, s_a=2.0, s_b=1.0, sigma_c=5.0,
            seed=8, exact_moments=False,
        )
        w = WeightPair(2.0, 3.0)
        expected = (2.0 * 4.0 - 3.0 * 1.0) / 5.0
        mean_cov, se = monte_carlo_covariance(config, w, trials=40)
        assert abs(mean_cov - expected) < 3 * se
