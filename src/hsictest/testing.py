"""Permutation-based calibration of HSIC statistics.

The null distribution comes from relabeling one side: Gram matrices and
median-heuristic bandwidths are computed once on the observed data, and each
replicate reindexes the centered y-side matrix by a random permutation.  That
is exact, not an approximation: H commutes with permutation matrices, so
reindexing HLH equals recomputing H L_pi H.

p-values use the add-one estimator (1 + #{T_b >= T_0}) / (B + 1), counting
ties as exceedances; it never returns 0 and stays valid under exchangeability.

Monte Carlo replicates come from one counter-based Philox stream per test, the
cell (seed, STREAM_PERMUTATION, 0) of :mod:`hsictest.rng`: replicate b is the
stable argsort of the stream's raw 64-bit words b*n .. b*n + n - 1.  Replicate b
therefore depends on (seed, n, b) alone, the replicates of a B-permutation test
are a prefix of those of any larger B, and each one is reachable on its own by
``Philox.advance``.  A non-finite observed or null statistic raises
``ArithmeticError`` rather than yielding a p-value.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .datagen import GeneratorSpec, sample
from .hsic import Dataset, HsicValue, centered_gram_entries, hsic_biased
from .kernels import KernelSpec, resolve_bandwidth
from .rng import (
    RNG_SCHEME,
    STREAM_PERMUTATION,
    STREAM_TRIAL_DATA,
    STREAM_TRIAL_TEST,
    derive_seed,
    rng_for,
)

EXHAUSTIVE_MAX_N = 6

# Permuted statistics are evaluated in batches bounded by this many floats.
_BATCH_FLOAT_BUDGET = 4_000_000


@dataclass(frozen=True)
class PermutationConfig:
    num_permutations: int
    alpha: float
    seed: int

    def __post_init__(self):
        if self.num_permutations < 1:
            raise ValueError("num_permutations must be at least 1")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class TestResult:
    statistic: HsicValue
    p_value: float
    reject: bool
    null_quantile: float
    num_permutations: int
    seed: int
    alpha: float
    method: str
    rng: str


def p_value_from_null(observed: float, null_statistics: np.ndarray) -> float:
    """Add-one Monte Carlo p-value; ties count as exceedances."""
    b = len(null_statistics)
    exceedances = int(np.count_nonzero(np.asarray(null_statistics) >= observed))
    return (1 + exceedances) / (b + 1)


def _draw_permutations(seed: int, num: int, n: int) -> np.ndarray:
    """num permutations of range(n) drawn from one Philox stream.

    Row b is the stable argsort of raw 64-bit words b*n .. b*n + n - 1 of the
    (seed, STREAM_PERMUTATION, 0) Philox stream, so it depends on (seed, n, b)
    alone: the rows for ``num`` are a prefix of the rows for any larger
    ``num``, and row b can be drawn by itself after ``advance((b * n) // 4)``
    (Philox yields four words per counter step).  Uniform 64-bit keys give a
    uniform permutation; a tie (probability about n^2 / 2^65 per row) keeps
    index order, so it stays deterministic.
    """
    bits = rng_for(seed, STREAM_PERMUTATION, 0).bit_generator.random_raw((num, n))
    return np.argsort(bits, axis=1, kind="stable")


def _permuted_statistics(kc: np.ndarray, lc: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """V-statistics for each permutation: sum(Kc * Lc[p, p]) / n^2, batched."""
    num, n = perms.shape
    batch = max(1, _BATCH_FLOAT_BUDGET // (n * n))
    out = np.empty(num)
    for start in range(0, num, batch):
        p = perms[start : start + batch]
        gathered = lc[p[:, :, None], p[:, None, :]]
        out[start : start + batch] = np.einsum("ij,bij->b", kc, gathered)
    out /= n * n
    return out


def _check_finite(observed: HsicValue, null: np.ndarray) -> None:
    # A NaN or inf statistic would otherwise count as an exceedance-free
    # observation and come out as p = 1/(B+1), a confident wrong rejection.
    if not (math.isfinite(observed.raw) and np.isfinite(null).all()):
        raise ArithmeticError(
            "non-finite HSIC statistic: the kernel values overflowed or are undefined"
        )


def _resolved_kernels(data: Dataset, kx: KernelSpec, ky: KernelSpec):
    # Resolution happens once, on the unpermuted data, and is frozen across
    # replicates; the marginal point sets are permutation-invariant anyway.
    return (
        resolve_bandwidth(kx, data.x_points),
        resolve_bandwidth(ky, data.y_points),
    )


def permutation_test(
    data: Dataset, kx: KernelSpec, ky: KernelSpec, cfg: PermutationConfig
) -> TestResult:
    """Monte Carlo permutation test of independence using biased HSIC."""
    if data.n < 2:
        raise ValueError("permutation test needs at least 2 paired samples")
    kx, ky = _resolved_kernels(data, kx, ky)
    observed = hsic_biased(data, kx, ky)
    kc = centered_gram_entries(kx, data.x_points)
    lc = centered_gram_entries(ky, data.y_points)
    perms = _draw_permutations(cfg.seed, cfg.num_permutations, data.n)
    null = _permuted_statistics(kc, lc, perms)
    _check_finite(observed, null)
    p = p_value_from_null(observed.raw, null)
    return TestResult(
        statistic=observed,
        p_value=p,
        reject=p <= cfg.alpha,
        null_quantile=float(np.quantile(null, 1.0 - cfg.alpha)),
        num_permutations=cfg.num_permutations,
        seed=cfg.seed,
        alpha=cfg.alpha,
        method="monte_carlo",
        rng=RNG_SCHEME,
    )


def exhaustive_permutation_test(
    data: Dataset, kx: KernelSpec, ky: KernelSpec, alpha: float
) -> TestResult:
    """Exact permutation test enumerating all n! relabelings (n <= 6).

    The p-value is #{pi : T_pi >= T_0} / n! over the full symmetric group
    (the identity is included, so p >= 1/n!); the Monte Carlo estimator
    converges to this value as the replicate count grows.
    """
    n = data.n
    if n < 2:
        raise ValueError("permutation test needs at least 2 paired samples")
    if n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration is limited to n <= {EXHAUSTIVE_MAX_N}")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly between 0 and 1")
    kx, ky = _resolved_kernels(data, kx, ky)
    observed = hsic_biased(data, kx, ky)
    kc = centered_gram_entries(kx, data.x_points)
    lc = centered_gram_entries(ky, data.y_points)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    null = _permuted_statistics(kc, lc, perms)
    _check_finite(observed, null)
    p = int(np.count_nonzero(null >= observed.raw)) / math.factorial(n)
    return TestResult(
        statistic=observed,
        p_value=p,
        reject=p <= alpha,
        null_quantile=float(np.quantile(null, 1.0 - alpha)),
        num_permutations=math.factorial(n),
        seed=0,
        alpha=alpha,
        method="exhaustive",
        rng="exhaustive enumeration (no randomness)",
    )


@dataclass(frozen=True)
class PowerResult:
    rejection_rate: float
    trials: int
    p_values: tuple[float, ...]
    alpha: float


def power_experiment(
    sampler: GeneratorSpec,
    kx: KernelSpec,
    ky: KernelSpec,
    cfg: PermutationConfig,
    num_trials: int,
    n: int,
    threads: int | None = 1,
) -> PowerResult:
    """Rejection rate of the permutation test over independent sampler draws.

    Trial t is fully determined by (cfg.seed, t): its dataset seed and its
    permutation seed are both derived from that pair, so results are
    identical whatever the thread count.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be at least 1")

    def one_trial(t: int) -> float:
        data_spec = replace(sampler, seed=derive_seed(cfg.seed, STREAM_TRIAL_DATA, t))
        trial_cfg = replace(cfg, seed=derive_seed(cfg.seed, STREAM_TRIAL_TEST, t))
        return permutation_test(sample(data_spec, n), kx, ky, trial_cfg).p_value

    workers = threads or 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            p_values = tuple(pool.map(one_trial, range(num_trials)))
    else:
        p_values = tuple(one_trial(t) for t in range(num_trials))
    rate = sum(p <= cfg.alpha for p in p_values) / num_trials
    return PowerResult(
        rejection_rate=rate, trials=num_trials, p_values=p_values, alpha=cfg.alpha
    )
