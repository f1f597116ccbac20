import numpy as np
import pytest
from scipy.special import ndtri

from methodagree.agreement import (
    AxisKind,
    Direction,
    WeightPair,
    analyze,
)
from methodagree.numerics import covariance, variance
from methodagree.synthesis import (
    CASE_PRESETS,
    SyntheticConfig,
    closed_form_moments,
    generate,
    monte_carlo_covariance,
    preset_config,
    preset_results,
    _spawned_pcg64_states,
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
    ], ids=["config-n-2", "config-seed-negative", "preset-seed-negative-numpy",
            "monte-carlo-1-trial"])
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

    @pytest.mark.parametrize("name", ["k_a", "k_b", "s_a", "s_b", "sigma_c"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
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


class TestGenerate:
    @pytest.mark.parametrize("label", sorted(CASE_PRESETS))
    @pytest.mark.parametrize("n", [4, 100, 10_000])
    def test_matches_whitened_reference(self, label, n):
        config = preset_config(label, n=n, seed=n + 11)
        sample = generate(config)
        for got, want in zip((sample.a, sample.b), whitened_reference(config)):
            # rtol 1e-12 of the data scale: entries near 0 carry absolute rounding
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

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


def per_trial_reference(config, w, trials, direction):
    """The documented stream contract, one trial at a time: each spawned seed
    draws an (n, 3) block of uniforms, mapped to normals by the inverse CDF."""
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
    """The vectorised seeding against numpy's own SeedSequence spawning and PCG64 seeding."""

    @pytest.mark.parametrize("count", [1, 2, 257])
    @pytest.mark.parametrize("seed", [
        0,
        2**32 - 1,  # one 32-bit word
        2**32,  # two words
        2**64 + 5,  # three words
        2**160 + 3,  # six words, seven with the spawn index: mixing runs past the pool
        np.uint64(2**63 + 11),
    ], ids=["0", "2^32-1", "2^32", "2^64+5", "2^160+3", "numpy-uint64"])
    def test_matches_numpy_spawn(self, seed, count):
        states = [np.random.PCG64(child).state["state"]
                  for child in np.random.SeedSequence(seed).spawn(count)]
        want = [(state["state"], state["inc"]) for state in states]
        assert list(_spawned_pcg64_states(int(seed), count)) == want


class TestMonteCarlo:
    def test_rejects_exact_moments(self):
        with pytest.raises(ValueError, match="exact_moments"):
            monte_carlo_covariance(preset_config("a"), mean_weights(), 10)

    @pytest.mark.parametrize(
        "label, n, trials, w, direction",
        [
            ("c", 100, 257, WeightPair(1.0, 1.0), "a-b"),  # several blocks, short last
            ("c", 20_000, 3, WeightPair(1.0, 1.0), "a-b"),  # one trial per block
            ("d", 50, 30, WeightPair(3.0, 1.0), "a-b"),
            ("d", 50, 30, WeightPair(3.0, 1.0), "b-a"),
        ],
    )
    def test_matches_per_trial_reference(self, label, n, trials, w, direction):
        config = preset_config(label, n=n, seed=n + trials, exact_moments=False)
        got = monte_carlo_covariance(config, w, trials, direction=direction)
        np.testing.assert_allclose(
            got, per_trial_reference(config, w, trials, direction), rtol=1e-12
        )

    @pytest.mark.parametrize("label, n, trials, seed, w, direction, want", [
        ("c", 100, 2000, 335381117, WeightPair(1.0, 1.0), "a-b",
         (-10.456965080892015, 0.10541081254828562)),
        ("d", 50, 257, 7, WeightPair(3.0, 1.0), "b-a", (-4.887767107692764, 0.3910225994191788)),
        ("a", 30, 3, 2**160 + 3, WeightPair(1.0, 2.0), "a-b",
         (-4.2792142748427375, 3.0960986394704246)),
        ("c", 100, 40, 0, WeightPair(20.25, 0.25), "a-b",
         (-1.2346081075001254, 0.7826254683487774)),
    ])
    def test_pinned_values(self, label, n, trials, seed, w, direction, want):
        # values of the SeedSequence.spawn + default_rng implementation; every bit must stay
        config = preset_config(label, n=n, seed=seed, exact_moments=False)
        assert monte_carlo_covariance(config, w, trials, direction=direction) == want

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
