"""Deterministic synthetic paired-measurement generator.

Builds measurement pairs a = k_a * c + s_a * e_a, b = k_b * c + s_b * e_b
from a shared signal c and independent errors, either with *exact* sample
moments (the three underlying signals are whitened so their sample means,
variances and covariances hit their nominal values exactly, making every
downstream statistic seed-independent) or as plain independent draws for
Monte Carlo work.

Draws are reproducible across runs and platforms: uniform variates come
from a seeded PCG64 stream and are mapped through the inverse normal CDF.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .agreement import (
    AgreementResult,
    AxisKind,
    Direction,
    PairedSample,
    WeightPair,
    WithinSubjectVariance,
    _require_finite,
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


def _require_integer(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)):  # 100.0 would fail later, inside numpy
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
        _require_integer("n", self.n)
        _require_integer("seed", self.seed)
        _require_finite(self, "k_a", "k_b", "s_a", "s_b", "sigma_c")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.n < 3:
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


#: Doubles of uniforms per Monte Carlo block (128 KiB): enough trials to
#: amortise numpy's per-call overhead at small n, one trial at large n.
_MC_BLOCK_DOUBLES = 2**14

# Constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx:
# hashmix, mix, mix_entropy, generate_state) and of PCG64's seeding
# (pcg64_set_seed, which runs pcg_setseq_128_srandom_r with the 128-bit LCG
# multiplier below).
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hasher(hash_const: int, mult: int):
    """numpy's ``hashmix`` with its running constant, over np.uint32 arrays.

    The constant evolves independently of the data, so it stays a Python int
    masked to 32 bits. Every operand of the hash is an np.uint32 array or
    scalar: arrays wrap mod 2**32 without a warning (a numpy-scalar overflow
    would warn), and the promotion is the same under legacy rules and NEP 50.
    """
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _spawned_pcg64_states(seed: int, count: int) -> Iterator[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``SeedSequence(seed).spawn(count)[i]``, for each i.

    The SeedSequence hash runs once, vectorised over the spawn index i: the
    entropy is the seed's 32-bit words, zero-padded to the pool size, then
    the word i (one word while i < 2**32). Only the last 128-bit seeding step
    runs per trial, as the states are consumed.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.array([word], dtype=np.uint32) for word in words]
    entropy.append(np.arange(count, dtype=np.uint32))

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(4, np.uint64): eight words cycling over the pool, read
    # pairwise as little-endian uint64 (low word first)
    hashmix = _hasher(_INIT_B, _MULT_B)
    state_words = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(8)], axis=1)
    seeds = state_words.astype("<u4").view("<u8")

    for state_hi, state_lo, seq_hi, seq_lo in seeds.tolist():
        # pcg_setseq_128_srandom_r: state 0, inc = seq << 1 | 1, step,
        # add the initial state, step
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
        yield state, inc


def _to_normals(u: np.ndarray) -> np.ndarray:
    # Inverse-CDF transform of PCG64 uniforms, in place; the raw uniform
    # stream is stable across numpy releases, unlike the ziggurat sampler.
    np.maximum(u, 2.0**-54, out=u)
    return ndtri(u, out=u)


def _measurements(config: SyntheticConfig, signals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = config.sigma_c * signals[..., 0]
    a = config.k_a * c + config.s_a * signals[..., 1]
    b = config.k_b * c + config.s_b * signals[..., 2]
    return a, b


def generate(config: SyntheticConfig) -> PairedSample:
    """Generate one paired sample. Bit-reproducible for a fixed config."""
    rng = np.random.default_rng(config.seed)
    signals = _to_normals(rng.random((config.n, 3)))
    if config.exact_moments:
        signals = orthonormalize(signals)
    a, b = _measurements(config, signals)
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
    across independently seeded trials.

    Requires ``exact_moments`` off: whitening would tie the draws to their
    nominal moments and defeat the sampling experiment. Trial i draws its
    uniforms from the stream of ``SeedSequence(config.seed).spawn(trials)[i]``,
    so the result is deterministic and trials are independent. The PCG64
    states of all trials are derived in one vectorised pass, and one
    generator is set to each in turn. Trials are then transformed and reduced
    in blocks, which matches a trial-by-trial evaluation to rounding.
    """
    if config.exact_moments:
        raise ValueError("monte_carlo_covariance needs exact_moments=False")
    _require_integer("trials", trials)
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    direction = Direction(direction)

    n = config.n
    sign = 1.0 if direction is Direction.A_MINUS_B else -1.0
    alpha, beta = _unit_scaled(w)
    states = _spawned_pcg64_states(int(config.seed), int(trials))
    bit_generator = np.random.PCG64(0)  # its state is set before each trial
    rng = np.random.Generator(bit_generator)
    block = np.empty((max(1, _MC_BLOCK_DOUBLES // (3 * n)), n, 3))
    covs = np.empty(trials)
    for start in range(0, trials, len(block)):
        u = block[: trials - start]
        for out, (state, inc) in zip(u, states):
            bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            rng.random(out=out)
        a, b = _measurements(config, _to_normals(u))
        d = sign * (a - b)
        axis = (alpha * a + beta * b) / (alpha + beta)
        d -= d.mean(axis=1, keepdims=True)
        axis -= axis.mean(axis=1, keepdims=True)
        covs[start : start + len(u)] = np.einsum("ij,ij->i", d, axis) / (n - 1)
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
