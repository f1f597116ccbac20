import math
import re
import reprlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from methodagree.agreement import (
    AxisKind,
    Direction,
    PairedSample,
    ReplicatedSample,
    WeightPair,
    WithinSubjectVariance,
    _integer,
    _real,
    analyze,
    estimate_variances,
    general_covariance_identity,
    paired_from_replicates,
    predicted_covariance,
    weighted_average,
)
from methodagree.io import write_paired
from methodagree.numerics import (
    DegenerateDataError,
    _centred,
    covariance,
    linear_fit,
    variance,
)
from methodagree.synthesis import closed_form_moments, monte_carlo_covariance, preset_config


#: Finite pairs whose classic axis overflows in a + b.
NEAR_MAX_A = np.array([1e308, 1.5e308, 1.7e308, 1.2e308])
NEAR_MAX_B = np.array([1.1e308, 1.4e308, 1.6e308, 1.3e308])


def make_replicates(groups):
    """groups: {(subject, method): [values]} -> ReplicatedSample"""
    rows = [(subject, method, i, v)
            for (subject, method), values in groups.items()
            for i, v in enumerate(values, start=1)]
    return ReplicatedSample(*zip(*rows))


def random_sample(rng, n=40, spread=1.0):
    truth = rng.normal(100.0, 15.0, size=n)
    return PairedSample(
        a=truth + rng.normal(0, spread, size=n),
        b=truth + rng.normal(0, spread, size=n),
    )


class TestDomainTypes:
    def test_paired_sample_defaults_ids(self):
        s = PairedSample(a=[1.0, 2.0, 3.0], b=[1.5, 2.5, 3.5])
        assert s.subject_ids == ()
        assert write_paired(s).splitlines()[1:] == ["1,1.0,1.5", "2,2.0,2.5", "3,3.0,3.5"]
        assert s.n == 3

    @pytest.mark.parametrize("call, message", [
        (lambda: PairedSample([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]]),
         "measurements must be one-dimensional"),
        (lambda: general_covariance_identity(WeightPair(1.0, 1.0), -1.0, 1.0, 0.0),
         "variances must be nonnegative"),
        (lambda: general_covariance_identity(WeightPair(1.0, 1.0), 1.0, -1.0, 0.0),
         "variances must be nonnegative"),
    ], ids=["paired-2d", "identity-var-a", "identity-var-b"])
    def test_rejects_invalid_input(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_paired_sample_checks_given_ids(self):
        with pytest.raises(ValueError, match="duplicate subject ids"):
            PairedSample(a=[1.0, 2.0, 3.0], b=[1.0, 2.0, 3.0], subject_ids=("x", "y", "x"))
        with pytest.raises(ValueError, match="2 subject ids for 3 measurement pairs"):
            PairedSample(a=[1.0, 2.0, 3.0], b=[1.0, 2.0, 3.0], subject_ids=("x", "y"))

    def test_paired_sample_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            PairedSample(a=[1, 2, 3], b=[1, 2])

    def test_paired_sample_too_small(self):
        with pytest.raises(ValueError, match="at least 3"):
            PairedSample(a=[1, 2], b=[1, 2])

    def test_paired_sample_nonfinite(self):
        with pytest.raises(ValueError):
            PairedSample(a=[1, 2, np.nan], b=[1, 2, 3])

    def test_replicated_requires_two_replicates(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_replicates({("s1", "A"): [1.0], ("s1", "B"): [2.0, 3.0]})

    def test_replicated_requires_matching_subjects(self):
        with pytest.raises(ValueError, match="both methods"):
            make_replicates({("s1", "A"): [1.0, 2.0], ("s2", "B"): [2.0, 3.0]})

    def test_replicated_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method label"):
            make_replicates({("s1", "C"): [1.0, 2.0]})

    def test_replicated_rejects_duplicate_replicate(self):
        with pytest.raises(ValueError, match="duplicate replicate 1 for subject 's1', method A"):
            ReplicatedSample(["s1", "s1", "s1", "s1", "s1"], ["A", "B", "A", "B", "A"],
                             [1, 1, 2, 2, 1], [1.0, 2.0, 3.0, 4.0, 1.0])

    def test_replicated_rejects_fractional_replicate_index(self):
        with pytest.raises(ValueError, match="replicate indices must be integers"):
            ReplicatedSample(["s1"] * 4, ["A", "A", "B", "B"], [1.2, 1.7, 1, 2],
                             [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("column", [[True, False, True, False],
                                        np.array([True, True, False, False])],
                                ids=["list", "array"])
    def test_replicated_rejects_boolean_replicate_indices(self, column):
        with pytest.raises(ValueError, match="^replicate indices must be integers$"):
            ReplicatedSample(["s1"] * 4, ["A", "A", "B", "B"], column, [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("as_labels", [list, tuple, np.array], ids=["list", "tuple", "array"])
    def test_replicated_columns_equal_for_every_label_container(self, as_labels):
        # ReplicatedSample(*zip(*rows)) passes each column as a tuple
        rows = [("s2", "B", 1, 5.0), ("s1", "A", 1, 1.0), ("s2", "A", 2, 4.0), ("s1", "B", 2, 2.5),
                ("s1", "A", 2, 1.5), ("s2", "B", 2, 6.0), ("s1", "B", 1, 3.0), ("s2", "A", 1, 3.5)]
        subject, method, replicate, value = map(list, zip(*rows))
        got = ReplicatedSample(subject, as_labels(method), replicate, value)
        assert got.subjects == ("s2", "s1")
        np.testing.assert_array_equal(got.is_b, [m == "B" for m in method])
        assert got.is_b.dtype == bool
        np.testing.assert_array_equal(got.subject_code, [0, 1, 0, 1, 1, 0, 1, 0])
        np.testing.assert_array_equal(got.replicate, replicate)
        np.testing.assert_array_equal(got.value, value)
        assert estimate_variances(got) == estimate_variances(ReplicatedSample(*zip(*rows)))

    def test_replicated_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="differ in length"):
            ReplicatedSample(["s1", "s1"], ["A", "A"], [1, 2], [1.0])

    def test_replicated_peak_memory_is_the_codes_and_the_pooled_groups(self):
        # beyond its inputs: the codes and labels it keeps and each method's columns
        # as the variances pool (5.35 units of 8n measured); keeping the id index or
        # the duplicate check's order alive, or np.diff copies, breaks the bound
        per_subject = [("A", 1), ("A", 2), *(("B", r) for r in range(1, 9))]
        subject = [f"S{s:05d}" for s in range(20_000) for _ in per_subject]
        method = [m for _ in range(20_000) for m, _ in per_subject]
        replicate = np.array([r for _ in range(20_000) for _, r in per_subject], dtype=np.int64)
        value = np.random.default_rng(13).normal(100.0, 5.0, replicate.size)
        n = replicate.size
        ReplicatedSample(subject[:20], method[:20], replicate[:20], value[:20])
        tracemalloc.start()
        try:
            reps = ReplicatedSample(subject, method, replicate, value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (n, len(reps.subjects)) == (200_000, 20_000)
        assert peak <= 5.5 * 8 * n

    @pytest.mark.parametrize("field", ["s_wa2", "s_wb2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, True, np.True_, "1", None])
    def test_variances_must_be_finite(self, field, bad):
        message = f"{field} must be finite, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WithinSubjectVariance(**{"s_wa2": 1.0, "s_wb2": 1.0, field: bad})

    def test_int_beyond_the_largest_double_is_not_finite(self):
        # math.isfinite raises OverflowError on it; the variances and the synthetic
        # config share the check, so both name the field instead
        with pytest.raises(ValueError, match="^s_wa2 must be finite, got 1000"):
            WithinSubjectVariance(10**400, 1.0)
        with pytest.raises(ValueError, match="^sigma_c must be finite, got 1000"):
            preset_config("c", sigma_c=10**400)

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, True, False, [1.0]])
    def test_weights_must_be_finite(self, field, bad):
        message = f"{field} must be finite, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WeightPair(**{"alpha": 1.0, "beta": 1.0, field: bad})

    @pytest.mark.parametrize("value", [2, np.int64(2), np.float32(2.0), np.float64(2.0),
                                       np.longdouble(2.0)])
    def test_numbers_of_any_real_type_are_accepted(self, value):
        assert WithinSubjectVariance(value, 1.0).s_wa2 == 2.0
        assert WeightPair(1.0, value).beta == 2.0

    def test_variances_must_not_both_vanish(self):
        with pytest.raises(ValueError, match="degenerate weights"):
            WithinSubjectVariance(0.0, 0.0)
        with pytest.raises(ValueError):
            WithinSubjectVariance(-1.0, 2.0)

    def test_weight_pair_validation(self):
        with pytest.raises(ValueError):
            WeightPair(0.0, 0.0)
        with pytest.raises(ValueError):
            WeightPair(-1.0, 2.0)
        assert WeightPair.from_variances(WithinSubjectVariance(2.0, 8.0)) == WeightPair(
            alpha=8.0, beta=2.0
        )


class TestNumberRule:
    """Every public scalar is read by ``_real`` (a finite real) or ``_integer`` (an int)."""

    @pytest.mark.filterwarnings("error")  # np.float32 must pass without a promotion warning
    @pytest.mark.parametrize("value, real, integer", [
        (2, True, True), (np.int64(2), True, True), (np.float32(2.0), True, False),
        (np.float64(2.0), True, False), (np.longdouble(2.0), True, False),
        (np.nan, False, False), (np.inf, False, False), (-np.inf, False, False),
        (True, False, False), (np.True_, False, False), ("1", False, False),
        (None, False, False), ([1.0], False, False), (10**400, False, True),
    ], ids=["int", "int64", "float32", "float64", "longdouble", "nan", "inf", "-inf", "True",
            "np.True_", "str", "None", "list", "10**400"])
    def test_one_rule_for_reals_and_one_for_integers(self, value, real, integer):
        for check, accepts, kind in ((_real, real, "finite"), (_integer, integer, "an integer")):
            if accepts:
                assert check("x", value) is value
            else:
                message = f"x must be {kind}, got {reprlib.repr(value)}"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    check("x", value)

    def test_message_abbreviates_a_huge_value(self):
        with pytest.raises(ValueError, match="^s_wa2 must be finite, got 1000") as info:
            WithinSubjectVariance(10**400, 1.0)
        assert len(str(info.value)) < 100

    @pytest.mark.parametrize("confidence", ["0.95", None])
    def test_analyze_reads_confidence(self, confidence):
        sample = random_sample(np.random.default_rng(0))
        message = f"confidence must be finite, got {confidence!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            analyze(sample, confidence=confidence)
        assert analyze(sample, confidence=np.float32(0.95)).fit.df == sample.n - 2

    @pytest.mark.parametrize("name", ["var_a", "var_b", "cov_ab"])
    def test_covariance_identity_reads_its_moments(self, name):
        moments = {"var_a": 1.0, "var_b": 2.0, "cov_ab": 0.5, name: np.nan}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got nan$"):
            general_covariance_identity(WeightPair(1.0, 1.0), **moments)


class TestWithinSubjectVariance:
    def test_identical_replicates_give_zero(self):
        reps = make_replicates(
            {
                ("s1", "A"): [5.0, 5.0, 5.0],
                ("s2", "A"): [7.0, 7.0],
                ("s1", "B"): [1.0, 2.0],
                ("s2", "B"): [2.0, 2.0],
            }
        )
        assert estimate_variances(reps).s_wa2 == 0.0

    def test_single_subject_pair(self):
        reps = make_replicates({("s1", "A"): [1.0, 3.0], ("s1", "B"): [0.0, 0.0]})
        assert estimate_variances(reps).s_wa2 == pytest.approx(2.0)

    def test_pooling_two_subjects(self):
        # ((0-1)^2+(2-1)^2 + (10-12)^2+(14-12)^2) / (1+1) = (2+8)/2 = 5
        reps = make_replicates(
            {
                ("s1", "A"): [0.0, 2.0],
                ("s2", "A"): [10.0, 14.0],
                ("s1", "B"): [0.0, 0.0],
                ("s2", "B"): [0.0, 0.0],
            }
        )
        assert estimate_variances(reps).s_wa2 == pytest.approx(5.0)

    def test_estimate_both_methods(self):
        reps = make_replicates(
            {
                ("s1", "A"): [1.0, 3.0],
                ("s1", "B"): [10.0, 16.0],
            }
        )
        v = estimate_variances(reps)
        assert v.s_wa2 == pytest.approx(2.0)
        assert v.s_wb2 == pytest.approx(18.0)

    def test_estimator_sampling_distribution(self):
        # 50 seeded datasets with true within-subject variance 4: the mean
        # estimate must sit within 3 standard errors of the truth
        true_var = 4.0
        estimates = []
        for seed in range(50):
            rng = np.random.default_rng(9000 + seed)
            groups = {}
            for i in range(20):
                subject_truth = rng.normal(100, 10)
                groups[(f"s{i}", "A")] = list(
                    subject_truth + rng.normal(0, np.sqrt(true_var), size=3)
                )
                groups[(f"s{i}", "B")] = list(subject_truth + rng.normal(0, 1, size=3))
            estimates.append(estimate_variances(make_replicates(groups)).s_wa2)
        estimates = np.asarray(estimates)
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - true_var) < 3 * se

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_pooling_matches_per_group_reference(self, data):
        # Unequal designs: replicate counts differ between methods and between
        # subjects, and rows arrive in arbitrary order.
        n = data.draw(st.integers(3, 6), label="subjects")
        counts = data.draw(st.lists(st.tuples(st.integers(2, 9), st.integers(2, 9)),
                                    min_size=n, max_size=n).filter(
                                        lambda c: any(a != b for a, b in c)), label="counts")
        value = st.floats(-1e3, 1e3, allow_nan=False)
        rows = [(f"s{i}", m, r, data.draw(value))
                for i, (m_a, m_b) in enumerate(counts)
                for m, m_count in (("A", m_a), ("B", m_b))
                for r in range(1, m_count + 1)]
        rows = data.draw(st.permutations(rows), label="row order")
        reps = ReplicatedSample(*zip(*rows))
        assert reps.subjects == tuple(dict.fromkeys(row[0] for row in rows))

        scale = max(1.0, max(abs(row[3]) for row in rows))
        pairs, pooled = paired_from_replicates(reps), []
        for j, method in enumerate("AB"):
            ss, dof, means = 0.0, 0, []
            for subject in reps.subjects:
                group = np.array([v for s, m, _, v in rows if s == subject and m == method])
                in_group = ((reps.subject_code == reps.subjects.index(subject))
                            & (reps.is_b == (method == "B")))
                np.testing.assert_array_equal(reps.value[in_group], group)
                means.append(group.mean())
                ss += float(((group - group.mean()) ** 2).sum())
                dof += group.size - 1
            np.testing.assert_allclose((pairs.a, pairs.b)[j], means,
                                       rtol=1e-12, atol=1e-12 * scale)
            pooled.append(ss / dof)
        try:
            v = estimate_variances(reps)
        except ValueError as exc:  # rejected only when neither method varies
            assert "degenerate weights" in str(exc)
            np.testing.assert_allclose(pooled, 0.0, atol=1e-12 * scale**2)
        else:
            np.testing.assert_allclose([v.s_wa2, v.s_wb2], pooled,
                                       rtol=1e-12, atol=1e-12 * scale**2)

    def test_paired_from_replicates_uses_means(self):
        reps = make_replicates(
            {
                ("s1", "A"): [1.0, 3.0],
                ("s2", "A"): [4.0, 6.0],
                ("s3", "A"): [9.0, 11.0],
                ("s1", "B"): [2.0, 2.0],
                ("s2", "B"): [5.0, 7.0],
                ("s3", "B"): [10.0, 14.0],
            }
        )
        pairs = paired_from_replicates(reps)
        assert pairs.subject_ids == ("s1", "s2", "s3")
        np.testing.assert_allclose(pairs.a, [2.0, 5.0, 10.0])
        np.testing.assert_allclose(pairs.b, [2.0, 6.0, 12.0])


class TestWeightedAverage:
    def test_equal_variances_is_arithmetic_mean(self):
        v = WithinSubjectVariance(3.7, 3.7)
        assert weighted_average(10.0, 20.0, v) == pytest.approx(15.0)

    def test_error_free_method_takes_all_weight(self):
        v = WithinSubjectVariance(0.0, 5.0)
        assert weighted_average(12.0, 99.0, v) == 12.0

    def test_blood_pressure_style_weights(self):
        # (83.1*120 + 37.4*130) / 120.5 = 123.10373443983403 (direct evaluation)
        v = WithinSubjectVariance(37.4, 83.1)
        assert weighted_average(120.0, 130.0, v) == pytest.approx(
            123.10373443983403, rel=1e-14
        )

    def test_vectorized(self):
        v = WithinSubjectVariance(1.0, 3.0)
        out = weighted_average(np.array([0.0, 4.0]), np.array([4.0, 0.0]), v)
        np.testing.assert_allclose(out, [1.0, 3.0])

    def test_huge_variances_do_not_overflow(self):
        a, b = np.array([1.37, 100.3]), np.array([5.0, 7.0])
        with np.errstate(all="raise"):
            out = weighted_average(a, b, WithinSubjectVariance(1e308, 1e308))
        np.testing.assert_allclose(out, (a + b) / 2, rtol=1e-15)

    def test_subnormal_variances_keep_their_ratio(self):
        # 3 and 1 units of the smallest subnormal weight exactly like 3.0 and 1.0.
        a, b = np.array([1.37, 100.3]), np.array([5.0, 7.0])
        tiny = WithinSubjectVariance(math.ldexp(3.0, -1074), math.ldexp(1.0, -1074))
        out = weighted_average(a, b, tiny)
        np.testing.assert_array_equal(out, weighted_average(a, b, WithinSubjectVariance(3.0, 1.0)))
        np.testing.assert_allclose(out, (a + 3.0 * b) / 4.0, rtol=1e-15)

    @given(st.floats(-1.7e308, 1.7e308), st.floats(-1.7e308, 1.7e308),
           st.floats(0.0, 1e308), st.floats(5e-324, 1e308))
    @example(1.5e308, 1.4e308, 1.5, 1.5)
    @settings(max_examples=200, deadline=None)
    def test_stays_between_the_measurements_at_any_scale(self, a, b, swa2, swb2):
        # whether alpha*a + beta*b overflows must not depend on the weights' mantissas
        with np.errstate(over="raise", invalid="raise"):
            w = weighted_average(a, b, WithinSubjectVariance(swa2, swb2))
        # a few units of the last place, and of the smallest subnormal for subnormal data
        slack = 4 * np.finfo(float).eps * max(abs(a), abs(b)) + 8 * 5e-324
        assert min(a, b) - slack <= w <= max(a, b) + slack

    @given(
        st.floats(-1e6, 1e6),
        st.floats(-1e6, 1e6),
        st.floats(1e-6, 1e6),
        st.floats(1e-6, 1e6),
        st.floats(1e-6, 1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_scale_invariance(self, a, b, swa2, swb2, lam):
        v = WithinSubjectVariance(swa2, swb2)
        w = weighted_average(a, b, v)
        assert min(a, b) - 1e-9 * (1 + abs(a) + abs(b)) <= w
        assert w <= max(a, b) + 1e-9 * (1 + abs(a) + abs(b))
        scaled = weighted_average(a, b, WithinSubjectVariance(lam * swa2, lam * swb2))
        assert scaled == pytest.approx(w, rel=1e-9, abs=1e-9)


class TestCovariancePredictions:
    def test_inverse_variance_weights_zero_out(self):
        v = WithinSubjectVariance(0.25, 20.25)
        w = WeightPair(alpha=v.s_wb2, beta=v.s_wa2)
        assert predicted_covariance(w, v) == 0.0

    def test_equal_weights_unequal_precision(self):
        v = WithinSubjectVariance(0.25, 20.25)
        assert predicted_covariance(WeightPair(1.0, 1.0), v) == pytest.approx(-10.0)

    def test_reference_method_limit(self):
        # all weight on method B: cov(a-b, b) = -s_wb2
        for s_wb2 in (0.5, 2.0, 83.1):
            v = WithinSubjectVariance(1.3, s_wb2)
            assert predicted_covariance(WeightPair(0.0, 1.0), v) == pytest.approx(
                -s_wb2
            )

    def test_direction_flips_sign(self):
        v = WithinSubjectVariance(0.25, 20.25)
        w = WeightPair(1.0, 1.0)
        assert predicted_covariance(w, v, Direction.B_MINUS_A) == pytest.approx(10.0)

    def test_identity_equal_weights(self):
        w = WeightPair(1.0, 1.0)
        assert general_covariance_identity(w, 5.0, 3.0, 123.0) == pytest.approx(1.0)

    def test_identity_single_method(self):
        # cov(A - B, A) = var(A) - cov(A, B)
        w = WeightPair(1.0, 0.0)
        assert general_covariance_identity(w, 5.0, 3.0, 2.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310, 1e308])
    def test_extreme_weights_keep_precision(self, alpha):
        # the weight ratio alone matters, however small or large the weights are
        w = WeightPair(alpha, 0.0)
        assert predicted_covariance(w, WithinSubjectVariance(1.5, 0.0)) == 1.5
        assert general_covariance_identity(w, 2.5, 1.0, 1.0) == 1.5

    @given(
        st.floats(0.0, 10.0),
        st.floats(0.1, 30.0),
        st.floats(0.0, 50.0),
        st.floats(0.0, 50.0),
        st.floats(0.0, 10.0),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_identity_reduces_to_error_variance_form(
        self, k, sigma_c, s_wa2, s_wb2, alpha, beta
    ):
        # decompose var/cov per a shared-component model: the identity must
        # collapse to the pure within-variance prediction
        if alpha + beta <= 0 or s_wa2 + s_wb2 <= 0:
            return
        w = WeightPair(alpha, beta)
        v = WithinSubjectVariance(s_wa2, s_wb2)
        common = k * k * sigma_c * sigma_c
        got = general_covariance_identity(w, common + s_wa2, common + s_wb2, common)
        assert got == pytest.approx(predicted_covariance(w, v), rel=1e-9, abs=1e-9)


class TestAgreementResult:
    @pytest.mark.parametrize("edit, message", [
        (lambda mean, weighted: replace(mean, weights=WeightPair(1.0, 2.0)),
         "axis 'mean' does not match weights {'alpha': 1.0, 'beta': 2.0}"),
        (lambda mean, weighted: replace(weighted, weights=None),
         "axis 'weighted' does not match weights None"),
        (lambda mean, weighted: replace(mean, differences=mean.differences[:-1]),
         "points need two 1-D columns of equal length, got shapes ((40,), (39,))"),
        (lambda mean, weighted: replace(mean, axis_values=mean.axis_values[:, None],
                                        differences=mean.differences[:, None]),
         "points need two 1-D columns of equal length, got shapes ((40, 1), (40, 1))"),
    ], ids=["mean-with-weights", "weighted-without-weights", "short-differences", "2d-columns"])
    def test_rejects_a_result_that_contradicts_itself(self, edit, message):
        # each of these would be written by emit_report and rejected by parse_report
        sample = random_sample(np.random.default_rng(9))
        mean = analyze(sample)
        weighted = analyze(sample, axis="weighted", variances=WithinSubjectVariance(1.0, 2.0))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            edit(mean, weighted)

    def test_parses_enum_strings(self):
        sample = random_sample(np.random.default_rng(9))
        weighted = analyze(sample, axis="weighted", variances=WithinSubjectVariance(1.0, 2.0))
        edited = replace(weighted, axis="weighted", direction="a-b")
        assert edited.axis is AxisKind.WEIGHTED_AVERAGE
        assert edited.direction is Direction.A_MINUS_B
        assert edited == replace(weighted, direction=Direction.A_MINUS_B)


class TestAnalyze:
    def test_loa_structure(self):
        rng = np.random.default_rng(1)
        res = analyze(random_sample(rng))
        sd = np.sqrt(variance(res.differences))
        assert res.loa_low == pytest.approx(res.bias - 1.96 * sd)
        assert res.loa_high == pytest.approx(res.bias + 1.96 * sd)
        assert res.loa_low <= res.bias <= res.loa_high

    def test_directions(self):
        rng = np.random.default_rng(2)
        sample = random_sample(rng)
        ab = analyze(sample, direction="a-b")
        ba = analyze(sample, direction="b-a")
        np.testing.assert_allclose(ab.differences, -ba.differences)
        assert ab.bias == pytest.approx(-ba.bias)
        assert ab.fit.slope == pytest.approx(-ba.fit.slope, rel=1e-12)

    def test_default_direction_is_b_minus_a(self):
        rng = np.random.default_rng(3)
        sample = random_sample(rng)
        res = analyze(sample)
        assert res.direction is Direction.B_MINUS_A
        np.testing.assert_allclose(res.differences, sample.b - sample.a)

    def test_classic_axis_is_plain_mean(self):
        rng = np.random.default_rng(4)
        sample = random_sample(rng)
        res = analyze(sample)
        np.testing.assert_allclose(res.axis_values, (sample.a + sample.b) / 2)
        assert res.axis is AxisKind.ARITHMETIC_MEAN
        assert res.weights is None

    def test_equal_variances_match_classic(self):
        rng = np.random.default_rng(5)
        sample = random_sample(rng)
        classic = analyze(sample)
        weighted = analyze(
            sample,
            axis="weighted",
            variances=WithinSubjectVariance(2.5, 2.5),
        )
        assert weighted.bias == pytest.approx(classic.bias, rel=1e-12, abs=1e-12)
        assert weighted.fit.slope == pytest.approx(classic.fit.slope, rel=1e-12)
        assert weighted.fit.r == pytest.approx(classic.fit.r, rel=1e-12)
        assert weighted.fit.p_value == pytest.approx(classic.fit.p_value, rel=1e-12)

    def test_weighted_needs_variances(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="variances"):
            analyze(random_sample(rng), axis="weighted")

    @pytest.mark.parametrize("s_w2", [1.0, 1.5])
    def test_weighted_axis_near_largest_double(self, s_w2):
        res = analyze(PairedSample(NEAR_MAX_A, NEAR_MAX_B), axis="weighted",
                      variances=WithinSubjectVariance(s_w2, s_w2))
        np.testing.assert_allclose(res.axis_values, NEAR_MAX_A / 2 + NEAR_MAX_B / 2, rtol=1e-15)

    def test_overflowing_mean_axis_is_named(self):
        with pytest.raises(ValueError, match=re.escape("the sum a + b of the mean axis overflows")):
            analyze(PairedSample(NEAR_MAX_A, NEAR_MAX_B))

    @pytest.mark.parametrize("axis", ["mean", "weighted"])
    def test_overflowing_difference_is_named(self, axis):
        sample = PairedSample(a=[1e308, -1e308, 0.0], b=[-1e308, 1e308, 1.0])
        with pytest.raises(ValueError, match="the difference b-a overflows"):
            analyze(sample, axis=axis, variances=WithinSubjectVariance(1.0, 1.0))

    @pytest.mark.parametrize("axis", ["mean", "weighted"])
    def test_difference_is_named_where_the_axis_overflows_too(self, axis):
        # b - a and, on the mean axis, a + b overflow: the difference is named first
        sample = PairedSample(a=[1.7e308, -1.7e308, 0.0], b=[1.7e308, 1.7e308, 1.0])
        with pytest.raises(ValueError, match="^the difference b-a overflows"):
            analyze(sample, axis=axis, variances=WithinSubjectVariance(1.0, 1.0))

    @pytest.mark.parametrize("direction", ["a-b", "b-a"])
    @pytest.mark.parametrize("axis", ["mean", "weighted"])
    def test_sample_unchanged_and_fit_equals_a_fit_of_copies(self, axis, direction):
        # the fit centres the columns it is given in place; the result's columns are
        # built again, and the sample is only read
        sample = random_sample(np.random.default_rng(10), n=1000)
        a, b = sample.a.copy(), sample.b.copy()
        res = analyze(sample, axis=axis, direction=direction,
                      variances=WithinSubjectVariance(1.5, 6.0))
        assert np.array_equal(sample.a, a) and np.array_equal(sample.b, b)
        fit, bias, _ = linear_fit(res.axis_values.copy(), res.differences.copy())
        assert (res.fit, res.bias) == (fit, bias)
        axis_values = (a + b) / 2.0 if axis == "mean" else weighted_average(
            a, b, WithinSubjectVariance(1.5, 6.0))
        assert np.array_equal(res.axis_values, axis_values)
        assert np.array_equal(res.differences, a - b if direction == "a-b" else b - a)

    @pytest.mark.parametrize("axis", ["mean", "weighted"])
    def test_peak_memory_is_the_two_result_columns(self, axis):
        # the fit centres the analysis' own columns in place, and the result's columns
        # are built after it; a copy of either in the fit breaks the bound
        n = 200_000
        sample = random_sample(np.random.default_rng(11), n=n)
        variances = WithinSubjectVariance(1.5, 6.0)
        analyze(random_sample(np.random.default_rng(12)), axis=axis, variances=variances)
        tracemalloc.start()
        try:
            res = analyze(sample, axis=axis, variances=variances)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n == n
        assert peak <= 2 * n * 8 + 2**20

    def test_constant_axis_rejected(self):
        sample = PairedSample(a=[1.0, 2.0, 3.0], b=[3.0, 2.0, 1.0])
        with pytest.raises(DegenerateDataError, match="constant"):
            analyze(sample)  # all means are 2

    def test_confidence_whose_quantile_level_rounds_to_one(self):
        # 1 - (1 - c)/2 rounds to 1.0 for the largest double below 1, and for no other c < 1
        sample = random_sample(np.random.default_rng(8))
        message = "confidence 0.9999999999999999 is too close to 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            analyze(sample, confidence=0.9999999999999999)
        fit = analyze(sample, confidence=1.0 - 2.0**-52).fit
        assert math.isfinite(fit.ci_low) and math.isfinite(fit.ci_high)

    @pytest.mark.parametrize("v", [
        None, WithinSubjectVariance(1.0, 4.0), WithinSubjectVariance(0.0, 1.0),
        WithinSubjectVariance(20.25, 0.25),
    ], ids=["mean", "weighted-1-4", "weighted-0-1", "weighted-20.25-0.25"])
    def test_sample_cov_matches_identity_on_own_moments(self, v):
        # plain algebra: cov(diff, axis) computed two ways must agree, on either axis
        axis, w = ("mean", WeightPair(1.0, 1.0)) if v is None else (
            "weighted", WeightPair.from_variances(v))
        rng = np.random.default_rng(7)
        for _ in range(10):
            sample = random_sample(rng, n=25, spread=4.0)
            res = analyze(sample, axis=axis, direction="a-b", variances=v)
            lhs = covariance(res.differences, res.axis_values)
            rhs = general_covariance_identity(
                w,
                variance(sample.a),
                variance(sample.b),
                covariance(sample.a, sample.b),
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_label_swap_with_direction_flip_is_invariant(self):
        rng = np.random.default_rng(8)
        sample = random_sample(rng)
        v = WithinSubjectVariance(1.5, 6.0)
        swapped = PairedSample(a=sample.b, b=sample.a, subject_ids=sample.subject_ids)
        v_swapped = WithinSubjectVariance(6.0, 1.5)
        res = analyze(sample, axis="weighted", direction="a-b", variances=v)
        res_sw = analyze(swapped, axis="weighted", direction="b-a", variances=v_swapped)
        assert res.bias == pytest.approx(res_sw.bias)
        assert res.loa_low == pytest.approx(res_sw.loa_low)
        assert res.loa_high == pytest.approx(res_sw.loa_high)
        assert res.fit.slope == pytest.approx(res_sw.fit.slope, rel=1e-12)
        assert res.fit.r == pytest.approx(res_sw.fit.r, rel=1e-12)
        assert res.fit.p_value == pytest.approx(res_sw.fit.p_value, rel=1e-12)
        np.testing.assert_allclose(res.axis_values, res_sw.axis_values)

    @pytest.mark.parametrize("call, choices", [
        (lambda bad: analyze(PairedSample([1.0, 2.0, 4.0], [1.5, 2.0, 3.0]), axis=bad),
         "'mean', 'weighted'"),
        (lambda bad: analyze(PairedSample([1.0, 2.0, 4.0], [1.5, 2.0, 3.0]), direction=bad),
         "'a-b', 'b-a'"),
        (lambda bad: predicted_covariance(WeightPair(1.0, 2.0),
                                          WithinSubjectVariance(1.0, 2.0), direction=bad),
         "'a-b', 'b-a'"),
        (lambda bad: closed_form_moments(preset_config("c"), WeightPair(1.0, 2.0), bad),
         "'a-b', 'b-a'"),
        (lambda bad: monte_carlo_covariance(preset_config("c", exact_moments=False),
                                            WeightPair(1.0, 2.0), 2, bad), "'a-b', 'b-a'"),
        (lambda bad: replace(analyze(PairedSample([1.0, 2.0, 4.0], [1.5, 2.0, 3.0])), axis=bad),
         "'mean', 'weighted'"),
        (lambda bad: replace(analyze(PairedSample([1.0, 2.0, 4.0], [1.5, 2.0, 3.0])),
                             direction=bad), "'a-b', 'b-a'"),
    ], ids=["analyze-axis", "analyze-direction", "predicted_covariance", "closed_form_moments",
            "monte_carlo_covariance", "result-axis", "result-direction"])
    def test_bad_enum_string_names_the_choices(self, call, choices):
        with pytest.raises(ValueError, match=f"^expected one of {choices}, got 'sideways'$"):
            call("sideways")

    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
    @pytest.mark.parametrize("direction", ["a-b", "b-a"])
    @pytest.mark.parametrize("axis", ["mean", "weighted"])
    def test_limits_equal_a_separate_centring_of_the_differences(self, scale, direction, axis):
        # bias and SD taken from the fit's pass over the differences keep every bit of
        # a second pass of their own: centre, dot product, divisor n - 1, undo the shift
        a, b, _ = np.random.default_rng(9).normal(size=(50, 3)).T
        res = analyze(PairedSample(a * scale, b * scale), axis=axis, direction=direction,
                      variances=WithinSubjectVariance(1.5, 6.0))
        bias, centred, shift = _centred(res.differences)
        sd = math.ldexp(math.sqrt(np.dot(centred, centred) / (res.n - 1)), -shift)
        assert (res.bias, res.loa_low, res.loa_high) == (bias, bias - 1.96 * sd, bias + 1.96 * sd)

    @pytest.mark.parametrize("a, b", [
        ([0.0, 0.0, 1.0], [-1.7e308, 1.7e308, 1.7e308]),
        ([0.0, 1.0, 2.0, 3.0], [1.0e308, 1.7e308, 1.2e308, 0.2e308]),
    ], ids=["sd-overflows", "bias-plus-sd-overflows"])
    @pytest.mark.parametrize("axis", ["mean", "weighted"])
    def test_overflowing_limits_are_named(self, a, b, axis):
        message = "the limits of agreement overflows the largest double; rescale the measurements"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            analyze(PairedSample(a, b), axis=axis, variances=WithinSubjectVariance(1.0, 1.0))

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    @pytest.mark.parametrize("axis", ["mean", "weighted"])
    def test_far_from_unit_scale(self, scale, axis):
        a, b, _ = np.random.default_rng(1).normal(size=(100, 3)).T
        v = WithinSubjectVariance(1.5, 6.0) if axis == "weighted" else None
        ref = analyze(PairedSample(a, b), axis=axis, variances=v)
        res = analyze(PairedSample(a * scale, b * scale), axis=axis, variances=v)
        for name in ("slope", "slope_se", "r", "p_value"):
            assert getattr(res.fit, name) == pytest.approx(getattr(ref.fit, name), rel=1e-12)
        for got, want in ((res.bias, ref.bias), (res.loa_low, ref.loa_low),
                          (res.loa_high, ref.loa_high), (res.fit.intercept, ref.fit.intercept)):
            assert got == pytest.approx(want * scale, rel=1e-12)
