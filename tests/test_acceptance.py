"""Acceptance suite.

Each test checks one release criterion end to end at its stated tolerance
and prints a single ``criterion N (...): PASS/FAIL`` line (visible in the
live run; pytest -v additionally reports per-test status).

Criterion 7 needs an externally supplied blood-pressure replicate CSV (see
README); without the file it reports SKIP and the rest of the suite is
unaffected.
"""

import contextlib
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from methodagree.agreement import (
    AxisKind,
    Direction,
    PairedSample,
    WeightPair,
    WithinSubjectVariance,
    analyze,
    estimate_variances,
    paired_from_replicates,
    predicted_covariance,
)
from methodagree.cli import main
from methodagree.io import format_table, parse_replicated, round_half_away
from methodagree.numerics import (
    correlation_p_value,
    covariance,
    student_t_cdf,
    student_t_quantile,
    variance,
)
from methodagree.synthesis import (
    CASE_PRESETS,
    SyntheticConfig,
    closed_form_moments,
    generate,
    preset_config,
    preset_results,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BP_CSV_DEFAULT = REPO_ROOT / "data" / "bland1999_bp.csv"


@contextlib.contextmanager
def criterion(capsys, num, name):
    def emit(status: str) -> None:
        line = f"criterion {num} ({name}): {status}"
        if capsys is not None:
            with capsys.disabled():
                print(line)
        else:
            print(line)

    try:
        yield
    except pytest.skip.Exception:
        emit("SKIP (dataset not supplied)")
        raise
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


# (r, p, k, ci_low, ci_high) at printed precision; p of None means "<0.001".
REFERENCE_TABLE = {
    ("a", "mean"): (0.00, 1.00, 0.00, -0.04, 0.04),
    ("a", "weighted"): (0.00, 1.00, 0.00, -0.04, 0.04),
    ("b", "mean"): (-0.42, None, -0.10, -0.15, -0.06),
    ("b", "weighted"): (-0.42, None, -0.10, -0.15, -0.06),
    ("c", "mean"): (0.22, 0.03, 0.10, 0.01, 0.18),
    ("c", "weighted"): (0.00, 1.00, 0.00, -0.09, 0.09),
    ("d", "mean"): (0.01, 0.91, 0.01, -0.09, 0.10),
    ("d", "weighted"): (-0.22, 0.03, -0.10, -0.19, -0.01),
}


def test_criterion_1_reference_table_reproduction(capsys):
    with criterion(capsys, 1, "reference table reproduction"):
        start = time.perf_counter()
        entries = preset_results()
        table_text = format_table(entries)
        elapsed = time.perf_counter() - start

        for label, classic, weighted in entries:
            for axis_name, res in (("mean", classic), ("weighted", weighted)):
                r_exp, p_exp, k_exp, lo_exp, hi_exp = REFERENCE_TABLE[(label, axis_name)]
                cell = f"case {label}, {axis_name} axis"
                assert round_half_away(res.fit.r, 2) + 0.0 == r_exp, f"{cell}: r"
                if p_exp is None:
                    assert res.fit.p_value < 0.001, f"{cell}: p"
                else:
                    assert round_half_away(res.fit.p_value, 2) == p_exp, f"{cell}: p"
                assert round_half_away(res.fit.slope, 2) + 0.0 == k_exp, f"{cell}: k"
                assert round_half_away(res.fit.ci_low, 2) + 0.0 == lo_exp, f"{cell}: ci low"
                assert round_half_away(res.fit.ci_high, 2) + 0.0 == hi_exp, f"{cell}: ci high"

        # the formatted table carries the same 24 cells
        assert "0.22" in table_text and "<0.001" in table_text
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_oracle_equivalence(capsys):
    with criterion(capsys, 2, "closed-form oracle equivalence"):
        start = time.perf_counter()
        for label in CASE_PRESETS:
            config = preset_config(label, seed=21)
            sample = generate(config)
            v = config.error_variances()
            for axis, weights in (
                (AxisKind.ARITHMETIC_MEAN, WeightPair(1.0, 1.0)),
                (AxisKind.WEIGHTED_AVERAGE, WeightPair.from_variances(v)),
            ):
                for direction in Direction:
                    cf = closed_form_moments(config, weights, direction)
                    res = analyze(
                        sample, axis=axis, direction=direction, variances=v
                    )
                    sample_cov = covariance(res.differences, res.axis_values)
                    checks = [
                        (sample_cov, cf.cov),
                        (variance(res.differences), cf.var_diff),
                        (variance(res.axis_values), cf.var_axis),
                        (res.fit.r, cf.r),
                        (res.fit.slope, cf.slope),
                    ]
                    for got, want in checks:
                        assert np.isclose(got, want, rtol=1e-8, atol=1e-9), (
                            f"{label}/{axis.value}/{direction.value}: "
                            f"{got!r} vs {want!r}"
                        )
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_3_monte_carlo_covariance_prediction(capsys):
    from methodagree.synthesis import monte_carlo_covariance

    with criterion(capsys, 3, "Monte Carlo covariance prediction"):
        start = time.perf_counter()
        hits = 0
        combos = []
        for k in (0.0, 1.0):
            for s_a, s_b in ((1.5, 1.5), (0.5, 4.5)):
                for weight_rule in ("equal", "inverse", "reference"):
                    combos.append((k, s_a, s_b, weight_rule))
        assert len(combos) == 12

        for idx, (k, s_a, s_b, weight_rule) in enumerate(combos):
            config = SyntheticConfig(
                n=100_000, k_a=k, k_b=k, s_a=s_a, s_b=s_b, sigma_c=10.0,
                seed=3000 + idx, exact_moments=False,
            )
            if weight_rule == "equal":
                w = WeightPair(1.0, 1.0)
            elif weight_rule == "inverse":
                w = WeightPair(alpha=s_b**2, beta=s_a**2)
            else:
                w = WeightPair(0.0, 1.0)
            v = WithinSubjectVariance(s_a**2, s_b**2)
            predicted = predicted_covariance(w, v, Direction.A_MINUS_B)
            mean_cov, se = monte_carlo_covariance(
                config, w, trials=50, direction=Direction.A_MINUS_B
            )
            if abs(mean_cov - predicted) < 3.0 * se:
                hits += 1
        elapsed = time.perf_counter() - start
        assert hits >= 11, f"only {hits}/12 combinations inside 3*SE"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_4_equal_precision_degeneracy(capsys):
    with criterion(capsys, 4, "equal-precision degeneracy"):
        rng = np.random.default_rng(404)
        for _ in range(200):
            n = int(rng.integers(5, 80))
            truth = rng.normal(rng.uniform(-50, 50), rng.uniform(1, 30), size=n)
            sample = PairedSample(
                a=truth + rng.normal(0, rng.uniform(0.1, 5), size=n),
                b=truth + rng.normal(0, rng.uniform(0.1, 5), size=n),
            )
            shared = float(rng.uniform(0.01, 100.0))
            classic = analyze(sample)
            weighted = analyze(
                sample,
                axis=AxisKind.WEIGHTED_AVERAGE,
                variances=WithinSubjectVariance(shared, shared),
            )
            got = [
                weighted.bias, weighted.loa_low, weighted.loa_high,
                weighted.fit.slope, weighted.fit.r, weighted.fit.p_value,
                weighted.fit.ci_low, weighted.fit.ci_high,
            ]
            want = [
                classic.bias, classic.loa_low, classic.loa_high,
                classic.fit.slope, classic.fit.r, classic.fit.p_value,
                classic.fit.ci_low, classic.fit.ci_high,
            ]
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_criterion_5_zero_trend_property(capsys):
    with criterion(capsys, 5, "zero-trend property"):
        rng = np.random.default_rng(505)
        for i in range(100):
            k = float(rng.uniform(0.2, 2.0))
            config = SyntheticConfig(
                n=100,
                k_a=k,
                k_b=k,
                s_a=float(rng.uniform(0.05, 5.0)),
                s_b=float(rng.uniform(0.05, 5.0)),
                sigma_c=float(rng.uniform(1.0, 20.0)),
                seed=50_000 + i,
                exact_moments=True,
            )
            sample = generate(config)
            res = analyze(
                sample,
                axis=AxisKind.WEIGHTED_AVERAGE,
                variances=config.error_variances(),
            )
            sample_cov = covariance(res.differences, res.axis_values)
            assert abs(sample_cov) <= 1e-9, f"config {i}: cov={sample_cov!r}"
            assert abs(res.fit.slope) <= 1e-9, f"config {i}: k={res.fit.slope!r}"


def _t_density(x: float, df: int) -> float:
    return math.exp(
        math.lgamma((df + 1) / 2)
        - math.lgamma(df / 2)
        - 0.5 * math.log(df * math.pi)
        - ((df + 1) / 2) * math.log(1 + x * x / df)
    )


def _integrated_t_cdf(t: float, df: int) -> float:
    area, _ = integrate.quad(_t_density, 0.0, abs(t), args=(df,), epsabs=1e-12,
                             limit=200)
    return 0.5 + area if t >= 0 else 0.5 - area


def test_criterion_6_numerics_accuracy(capsys):
    with criterion(capsys, 6, "numerics accuracy"):
        grid = np.arange(-5.0, 5.01, 0.5)
        for df in (1, 2, 10, 98):
            for t in grid:
                oracle = _integrated_t_cdf(float(t), df)
                assert abs(student_t_cdf(float(t), df) - oracle) <= 1e-8
                q = student_t_cdf(float(t), df)
                assert abs(student_t_quantile(q, df) - float(t)) <= 1e-7
        p = correlation_p_value(0.2154, 100)
        assert 0.028 <= p <= 0.034, f"p={p}"


def test_criterion_7_real_data_check(capsys):
    with criterion(capsys, 7, "real-data check"):
        path = Path(os.environ.get("METHODAGREE_BP_CSV", BP_CSV_DEFAULT))
        if not path.is_file():
            pytest.skip(
                "blood-pressure replicate CSV not supplied "
                f"(looked at {path}); see README for how to activate this check"
            )
        reps = parse_replicated(path.read_text(encoding="utf-8"))
        pairs = paired_from_replicates(reps)
        v = estimate_variances(reps)
        weighted = analyze(pairs, axis=AxisKind.WEIGHTED_AVERAGE, variances=v)
        classic = analyze(pairs)
        assert weighted.fit.slope == pytest.approx(0.01, abs=0.01)
        assert weighted.fit.ci_low == pytest.approx(-0.13, abs=0.01)
        assert weighted.fit.ci_high == pytest.approx(0.14, abs=0.01)
        assert classic.fit.slope == pytest.approx(-0.07, abs=0.01)
        assert classic.fit.ci_low == pytest.approx(-0.21, abs=0.01)
        assert classic.fit.ci_high == pytest.approx(0.07, abs=0.01)


def test_criterion_8_cli_determinism(capsys, tmp_path):
    with criterion(capsys, 8, "CLI artifact determinism"):
        sim_dirs = [tmp_path / "sim1", tmp_path / "sim2"]
        for d in sim_dirs:
            code = main(["simulate", "--case", "d", "--seed", "11", "--out", str(d)])
            assert code == 0
        artifact_names = [
            "pairs.csv",
            "report_mean.json",
            "report_weighted.json",
            "plot_mean.svg",
            "plot_weighted.svg",
        ]
        for name in artifact_names:
            assert (sim_dirs[0] / name).read_bytes() == (sim_dirs[1] / name).read_bytes()

        pairs_csv = sim_dirs[0] / "pairs.csv"
        blobs = []
        for tag in ("r1", "r2"):
            report = tmp_path / f"{tag}.json"
            plot = tmp_path / f"{tag}.svg"
            code = main([
                "analyze", "--input", str(pairs_csv),
                "--swa", "0.25", "--swb", "20.25",
                "--report", str(report), "--plot", str(plot),
            ])
            assert code == 0
            blobs.append((report.read_bytes(), plot.read_bytes()))
        assert blobs[0] == blobs[1]
