"""Deterministic synthetic paired-measurement generator and Monte Carlo check.

Builds measurement pairs a = k_a * c + s_a * e_a, b = k_b * c + s_b * e_b
from a shared signal c and independent errors, either with *exact* sample
moments (the three underlying signals are whitened so their sample means,
variances and covariances hit their nominal values exactly, making every
downstream statistic seed-independent) or as plain independent draws.
The difference and the weighted axis are linear in the three signals, and
the Gram matrix of their coefficient vectors (v, u) is their covariance:
:func:`closed_form_moments` returns it as a whitened sample's exact moments,
and :func:`monte_carlo_covariance` draws each trial's 2x2 scatter matrix from
it (Wishart, by Bartlett's decomposition from two uniforms) without building
the pairs.

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
    _require_finite,
    _unit_scaled,
    analyze,
)
from .numerics import _ldexp, _pow2_shift, _slope_and_r, orthonormalize

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
        for name in ("k_a", "k_b", "s_a", "s_b", "sigma_c"):  # Python floats: they overflow to inf
            object.__setattr__(self, name, float(_real(name, getattr(self, name))))
        if _integer("seed", self.seed) < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if _integer("n", self.n) < 3:
            raise ValueError(f"need n >= 3, got {self.n}")
        if not isinstance(self.exact_moments, (bool, np.bool_)):
            raise ValueError(f"exact_moments must be a bool, got {self.exact_moments!r}")
        if self.exact_moments and self.n < 4:
            raise ValueError("exact-moment whitening needs n >= 4")
        if self.s_a < 0.0 or self.s_b < 0.0:
            raise ValueError("error standard deviations must be nonnegative")
        if self.sigma_c <= 0.0:
            raise ValueError("sigma_c must be positive")

    def error_variances(self) -> WithinSubjectVariance:
        """The true within-subject variances implied by the config."""
        # x * x: x**2 raises a bare OverflowError, where x * x gives inf for the field check
        return WithinSubjectVariance(s_wa2=self.s_a * self.s_a, s_wb2=self.s_b * self.s_b)


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


_RESCALE = "rescale sigma_c, s_a and s_b"  # the cure where a synthetic moment overflows
_DRAW_BLOCK = 8192  # rows of uniforms per ``random`` call in generate


def _to_normals(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # Inverse-CDF transform of PCG64 uniforms, clamped in place; the raw uniform
    # stream is stable across numpy releases, unlike the ziggurat sampler.
    np.maximum(u, 2.0**-54, out=u)
    return ndtri(u, out=out)


def generate(config: SyntheticConfig) -> PairedSample:
    """Generate one paired sample. Bit-reproducible for a fixed config."""
    rng = np.random.default_rng(config.seed)
    # (3, n) signals, drawn _DRAW_BLOCK subjects at a time: successive draws
    # continue one stream, so every uniform is that of one random((n, 3)) call
    rows, block = np.empty((3, config.n)), np.empty((min(_DRAW_BLOCK, config.n), 3))
    for lo in range(0, config.n, _DRAW_BLOCK):
        u = rng.random(out=block[:config.n - lo])
        _to_normals(u.T, out=rows[:, lo:lo + len(u)])
    if config.exact_moments:
        rows = orthonormalize(rows)
    # k * c + s * e with the error rows scaled in place: the same roundings, no
    # temporary; fresh arrays, as views would keep all of ``rows`` alive in the sample
    try:
        with np.errstate(over="raise"):
            c = np.multiply(rows[0], config.sigma_c, out=rows[0])
            rows[1] *= config.s_a
            rows[2] *= config.s_b
            a = config.k_a * c
            a += rows[1]
            b = config.k_b * c
            b += rows[2]
    except FloatingPointError:
        raise ValueError("a synthetic measurement overflows the largest double; "
                         f"{_RESCALE}") from None
    return PairedSample(a=a, b=b)


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

    Whitened, the difference and the weighted axis are exact combinations of
    three orthonormal signals, with coefficient vectors u and v, so their
    moments are the Gram matrix of (v, u): cov = u.v, var_diff = u.u and
    var_axis = v.v; r and the trend slope follow. This is the independent
    check for everything :func:`generate` + :func:`~methodagree.agreement.analyze`
    produce. A moment or slope that overflows raises ValueError naming it.
    """
    u, v = _loadings(config, w, Direction(direction))
    # each vector times the power of two that puts its largest entry in [0.5, 1):
    # exact, so the products neither under- nor overflow, and in the normal range
    # each moment below is the unscaled one, bit for bit
    p, q = _pow2_shift(u), _pow2_shift(v)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        u, v = np.ldexp(u, p), np.ldexp(v, q)
        uv, uu, vv = float(u @ v), float(u @ u), float(v @ v)
    cov, var_diff, var_axis = _ldexp(uv, -p - q), _ldexp(uu, -2 * p), _ldexp(vv, -2 * q)
    # the fit's own slope and r; the slope is scale-free: sigma_c, s_a and s_b scale u and v alike
    slope, r = _slope_and_r(vv, uv, uu, q - p) if vv > 0.0 else (0.0, 0.0)
    _require_finite(("cov", (cov,), _RESCALE), ("var_diff", (var_diff,), _RESCALE),
                    ("var_axis", (var_axis,), _RESCALE),
                    ("slope", (slope,),
                     "the axis barely varies next to the difference, at any scale"))
    return ClosedFormMoments(cov=cov, var_diff=var_diff, var_axis=var_axis, r=r, slope=slope)


def _loadings(config: SyntheticConfig, w: WeightPair, direction: Direction
              ) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient vectors (u, v) of the difference and the weighted axis on
    the three unit signals (common signal, error of a, error of b)."""
    sign = 1.0 if direction is Direction.A_MINUS_B else -1.0
    alpha, beta = _unit_scaled(w)
    c = config.sigma_c
    v = np.array([c * (alpha * config.k_a + beta * config.k_b),
                  alpha * config.s_a, beta * config.s_b]) / (alpha + beta)
    u = sign * np.array([c * (config.k_a - config.k_b), config.s_a, -config.s_b])
    return u, v


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
    deterministic and each trial costs O(1), whatever n. A u.v, |u x v| or
    covariance that overflows raises ValueError naming that step.
    """
    if config.exact_moments:
        raise ValueError("monte_carlo_covariance needs exact_moments=False")
    if _integer("trials", trials) < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    u, v = _loadings(config, w, Direction(direction))
    m = config.n - 1
    uniforms = np.random.default_rng(config.seed).random((trials, 2))
    chi2 = 2.0 * gammaincinv(m / 2, uniforms[:, 0])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        dot, cross = u @ v, np.linalg.norm(np.cross(u, v))
        covs = (dot * chi2 + cross * np.sqrt(chi2) * _to_normals(uniforms[:, 1])) / m
        mean, se = float(covs.mean()), float(covs.std(ddof=1) / np.sqrt(trials))
    _require_finite(("u.v", (dot,), _RESCALE), ("|u x v|", (cross,), _RESCALE),
                    ("the sampled covariances", (mean, se), _RESCALE))
    return mean, se


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
