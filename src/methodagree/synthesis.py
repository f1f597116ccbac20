"""Deterministic synthetic paired-measurement generator and Monte Carlo check.

Builds measurement pairs a = k_a * c + s_a * e_a, b = k_b * c + s_b * e_b
from a shared signal c and independent errors, either with *exact* sample
moments (the three underlying signals are whitened so their sample means,
variances and covariances hit their nominal values exactly, making every
downstream statistic seed-independent) or as plain independent draws.
:func:`monte_carlo_covariance` samples cov(difference, weighted axis) without
building the pairs: each trial's 2x2 scatter matrix is Wishart, drawn exactly
by Bartlett's decomposition from two uniforms.

Draws are reproducible across runs and platforms: uniform variates come
from a seeded PCG64 stream, whose raw output numpy keeps stable, and are
mapped through inverse CDFs (normal; chi-square for the Monte Carlo draw).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv, ndtri

from .agreement import (
    AgreementResult,
    AxisKind,
    Direction,
    PairedSample,
    WeightPair,
    WithinSubjectVariance,
    _integer,
    _real,
    _unit_scaled,
    analyze,
    general_covariance_identity,
)
from .numerics import orthonormalize

__all__ = [
    "SyntheticConfig",
    "CASE_PRESETS",
    "ClosedFormMoments",
    "preset_config",
    "generate",
    "closed_form_moments",
    "monte_carlo_covariance",
    "preset_results",
]


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of one synthetic comparison.

    ``k_a``/``k_b`` scale the common signal into each method's measurement,
    ``s_a``/``s_b`` are the error standard deviations, ``sigma_c`` the
    common-signal standard deviation. With ``exact_moments`` the generated
    signals are whitened to exact sample moments (needs ``n >= 4``).
    """

    n: int = 100
    k_a: float = 1.0
    k_b: float = 1.0
    s_a: float = 1.5
    s_b: float = 1.5
    sigma_c: float = 10.0
    seed: int = 1
    exact_moments: bool = True

    def __post_init__(self):
        for name in ("k_a", "k_b", "s_a", "s_b", "sigma_c"):
            _real(name, getattr(self, name))
        if _integer("seed", self.seed) < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if _integer("n", self.n) < 3:
            raise ValueError(f"need n >= 3, got {self.n}")
        if self.exact_moments and self.n < 4:
            raise ValueError("exact-moment whitening needs n >= 4")
        if self.s_a < 0.0 or self.s_b < 0.0:
            raise ValueError("error standard deviations must be nonnegative")
        if self.sigma_c <= 0.0:
            raise ValueError("sigma_c must be positive")

    def error_variances(self) -> WithinSubjectVariance:
        """The true within-subject variances implied by the config."""
        return WithinSubjectVariance(s_wa2=self.s_a**2, s_wb2=self.s_b**2)


#: The four canonical comparison cases: equal/unequal error spread crossed
#: with equal/unequal common-signal scaling.
CASE_PRESETS: dict[str, dict[str, float]] = {
    "a": dict(k_a=1.0, k_b=1.0, s_a=1.5, s_b=1.5),
    "b": dict(k_a=1.0, k_b=0.9, s_a=1.5, s_b=1.5),
    "c": dict(k_a=1.0, k_b=1.0, s_a=0.5, s_b=4.5),
    "d": dict(k_a=1.0, k_b=0.9, s_a=0.5, s_b=4.5),
}


def preset_config(label: str, **fields) -> SyntheticConfig:
    """Config for one of the canonical cases 'a'..'d'; ``fields`` set the other
    :class:`SyntheticConfig` fields (``n``, ``sigma_c``, ``seed``, ``exact_moments``)."""
    try:
        params = CASE_PRESETS[label]
    except KeyError:
        raise ValueError(
            f"unknown case {label!r}; expected one of {sorted(CASE_PRESETS)}"
        ) from None
    return SyntheticConfig(**params, **fields)


def _to_normals(u: np.ndarray) -> np.ndarray:
    # Inverse-CDF transform of PCG64 uniforms, in place; the raw uniform
    # stream is stable across numpy releases, unlike the ziggurat sampler.
    np.maximum(u, 2.0**-54, out=u)
    return ndtri(u, out=u)


def generate(config: SyntheticConfig) -> PairedSample:
    """Generate one paired sample. Bit-reproducible for a fixed config."""
    rng = np.random.default_rng(config.seed)
    signals = _to_normals(rng.random((config.n, 3)))
    if config.exact_moments:
        signals = orthonormalize(signals)
    c = config.sigma_c * signals[:, 0]
    return PairedSample(a=config.k_a * c + config.s_a * signals[:, 1],
                        b=config.k_b * c + config.s_b * signals[:, 2])


@dataclass(frozen=True)
class ClosedFormMoments:
    """Sample moments of the difference plot, computed without sampling."""

    cov: float
    var_diff: float
    var_axis: float
    r: float
    slope: float


def closed_form_moments(
    config: SyntheticConfig,
    w: WeightPair,
    direction: Direction | str = Direction.B_MINUS_A,
) -> ClosedFormMoments:
    """Exact difference-plot moments under the exact-moment construction.

    With whitened signals the sample variances and covariances of a and b
    are polynomial in the config parameters, so the covariance, variances,
    correlation and trend slope of the difference plot follow in closed
    form. This is the independent check for everything :func:`generate` +
    :func:`~methodagree.agreement.analyze` produce.
    """
    direction = Direction(direction)
    sc2 = config.sigma_c**2
    var_a = config.k_a**2 * sc2 + config.s_a**2
    var_b = config.k_b**2 * sc2 + config.s_b**2
    cov_ab = config.k_a * config.k_b * sc2
    alpha, beta = _unit_scaled(w)

    cov = general_covariance_identity(w, var_a, var_b, cov_ab)
    if direction is Direction.B_MINUS_A:
        cov = -cov
    var_diff = (config.k_a - config.k_b) ** 2 * sc2 + config.s_a**2 + config.s_b**2
    var_axis = (alpha**2 * var_a + beta**2 * var_b
                + 2.0 * alpha * beta * cov_ab) / (alpha + beta) ** 2

    if var_diff > 0.0 and var_axis > 0.0:
        r = cov / np.sqrt(var_diff * var_axis)
    else:
        r = 0.0
    slope = cov / var_axis if var_axis > 0.0 else 0.0
    return ClosedFormMoments(
        cov=float(cov),
        var_diff=float(var_diff),
        var_axis=float(var_axis),
        r=float(r),
        slope=float(slope),
    )


def monte_carlo_covariance(
    config: SyntheticConfig,
    w: WeightPair,
    trials: int,
    direction: Direction | str = Direction.A_MINUS_B,
) -> tuple[float, float]:
    """Mean and standard error of sample cov(difference, weighted axis)
    across independent trials.

    Requires ``exact_moments`` off: whitening would tie the draws to their
    nominal moments and defeat the sampling experiment. The axis and the
    difference are linear in the three standard-normal signals, with
    coefficient vectors v and u, so a trial's 2x2 scatter matrix of (axis,
    difference) over n subjects is Wishart(n - 1, Sigma), Sigma the Gram
    matrix of v and u. Bartlett's decomposition gives its off-diagonal exactly,
    from a chi-square variate with m = n - 1 degrees of freedom and a
    standard normal z: cov = ((u.v) * chi2 + |u x v| * sqrt(chi2) * z) / m.
    Trial i maps uniforms 2i and 2i + 1 of ``default_rng(config.seed)``
    through the inverse chi-square and inverse normal CDFs, so the result is
    deterministic and each trial costs O(1), whatever n.
    """
    if config.exact_moments:
        raise ValueError("monte_carlo_covariance needs exact_moments=False")
    if _integer("trials", trials) < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    direction = Direction(direction)

    sign = 1.0 if direction is Direction.A_MINUS_B else -1.0
    alpha, beta = _unit_scaled(w)
    c = config.sigma_c
    v = np.array([c * (alpha * config.k_a + beta * config.k_b),
                  alpha * config.s_a, beta * config.s_b]) / (alpha + beta)
    u = sign * np.array([c * (config.k_a - config.k_b), config.s_a, -config.s_b])
    m = config.n - 1
    uniforms = np.random.default_rng(config.seed).random((trials, 2))
    chi2 = 2.0 * gammaincinv(m / 2, uniforms[:, 0])
    covs = ((u @ v) * chi2 + np.linalg.norm(np.cross(u, v)) * np.sqrt(chi2)
            * _to_normals(uniforms[:, 1])) / m
    return float(covs.mean()), float(covs.std(ddof=1) / np.sqrt(trials))


def _run_both_axes(config: SyntheticConfig, direction: Direction | str
                   ) -> tuple[PairedSample, AgreementResult, AgreementResult]:
    """Generate the sample of ``config``; return it with its mean- and weighted-axis results."""
    sample = generate(config)
    classic = analyze(sample, axis=AxisKind.ARITHMETIC_MEAN, direction=direction)
    weighted = analyze(sample, axis=AxisKind.WEIGHTED_AVERAGE, direction=direction,
                       variances=config.error_variances())
    return sample, classic, weighted


def preset_results() -> list[tuple[str, AgreementResult, AgreementResult]]:
    """Run the four canonical cases (n = 100, sigma_c = 10.0, seed 1) through both analyses.

    Returns (label, mean-axis result, weighted-axis result) per case, with
    differences taken b - a, 95% slope intervals and the weighted axis built
    from the presets' true error variances.
    """
    return [(label, *_run_both_axes(preset_config(label), Direction.B_MINUS_A)[1:])
            for label in sorted(CASE_PRESETS)]
