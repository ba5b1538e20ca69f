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

The null has two paths, chosen by n alone.  Below ``TAKE_MIN_N`` points a
batch of replicates is gathered at once by 3-D fancy indexing and reduced by
one einsum, since per-replicate Python overhead dominates tiny Grams.  From
``TAKE_MIN_N`` on, each replicate is a row ``take`` then a column ``take`` of
the centered y-side Gram, reduced by ``hsic.centered_product``, the very
reduction of the observed statistic; the replicates are split into contiguous
chunks run on a thread pool of up to ``threads`` workers.  Every replicate is
computed the same way whatever the chunking, so the null does not depend on
the thread count.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .datagen import GeneratorSpec, sample
from .hsic import Dataset, HsicValue, biased_value, centered_gram_entries, centered_product
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

# Below TAKE_MIN_N points, permuted statistics are evaluated in batches
# bounded by this many floats.
_BATCH_FLOAT_BUDGET = 4_000_000

# Smallest n whose null runs one replicate at a time by row-then-column take.
# Measured single-threaded per replicate (numpy 2.4, 2-vCPU x86-64 VM):
# batched gather vs take/take, 0.34 vs 3.1 us at n=8, 7.2 vs 8.2 us at n=32,
# 8.9 vs 8.8 us at n=36, 11 vs 10 us at n=40, 20 vs 10 us at n=64 and
# 6.5 vs 2.8 ms at n=1000.
TAKE_MIN_N = 40


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


def _pool_size(threads: int, tasks: int) -> int:
    """Workers for ``tasks`` independent jobs: ``threads``, capped by tasks and CPUs."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    return min(threads, tasks, os.cpu_count() or 1)


def _permuted_statistics(
    kc: np.ndarray, lc: np.ndarray, perms: np.ndarray, threads: int = 1
) -> np.ndarray:
    """V-statistics for each permutation: sum(Kc * Lc[p, p]) / n^2."""
    num, n = perms.shape
    workers = _pool_size(threads, num)  # also validates threads on the batched path
    out = np.empty(num)
    if n < TAKE_MIN_N:
        batch = max(1, _BATCH_FLOAT_BUDGET // (n * n))
        for start in range(0, num, batch):
            p = perms[start : start + batch]
            gathered = lc[p[:, :, None], p[:, None, :]]
            out[start : start + batch] = np.einsum("ij,bij->b", kc, gathered)
        out /= n * n
        return out

    # Each chunk reuses two n x n buffers allocated here, on the calling
    # thread: taking into fresh arrays on the pool threads made peak memory
    # depend on how the threads' allocations happened to interleave.  The
    # indices are a permutation, so mode="clip" changes no value; it only
    # lets ``take`` write into ``out`` without an extra buffered copy.
    def run(chunk: np.ndarray, rows: np.ndarray, both: np.ndarray) -> None:
        for b in chunk:
            p = perms[b]
            lc.take(p, axis=0, out=rows, mode="clip")
            rows.take(p, axis=1, out=both, mode="clip")
            out[b] = centered_product(kc, both)

    chunks = np.array_split(np.arange(num), workers)
    buffers = [(np.empty((n, n)), np.empty((n, n))) for _ in chunks]
    if workers == 1:
        run(chunks[0], *buffers[0])
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, chunks, *zip(*buffers)))
    return out


def _check_finite(null: np.ndarray) -> None:
    # A NaN null statistic never counts as an exceedance, so it would pull p
    # toward 1/(B+1), a confident wrong rejection.  The observed value is
    # checked when its HsicValue is built.
    if not np.isfinite(null).all():
        raise ArithmeticError(
            "non-finite HSIC statistic: the kernel values overflowed or are undefined"
        )


def _centered_grams(data: Dataset, kx: KernelSpec, ky: KernelSpec):
    # Resolution happens once, on the unpermuted data, and is frozen across
    # replicates; the marginal point sets are permutation-invariant anyway.
    return (
        centered_gram_entries(resolve_bandwidth(kx, data.x_points), data.x_points),
        centered_gram_entries(resolve_bandwidth(ky, data.y_points), data.y_points),
    )


def permutation_test(
    data: Dataset,
    kx: KernelSpec,
    ky: KernelSpec,
    cfg: PermutationConfig,
    threads: int = 1,
) -> TestResult:
    """Monte Carlo permutation test of independence using biased HSIC.

    ``threads`` bounds the worker pool of the null statistics; the result
    does not depend on it.
    """
    if data.n < 2:
        raise ValueError("permutation test needs at least 2 paired samples")
    kc, lc = _centered_grams(data, kx, ky)
    observed = biased_value(kc, lc)
    perms = _draw_permutations(cfg.seed, cfg.num_permutations, data.n)
    null = _permuted_statistics(kc, lc, perms, threads)
    _check_finite(null)
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
    kc, lc = _centered_grams(data, kx, ky)
    observed = biased_value(kc, lc)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    null = _permuted_statistics(kc, lc, perms)
    _check_finite(null)
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
    workers = _pool_size(1 if threads is None else threads, num_trials)

    def one_trial(t: int) -> float:
        data_spec = replace(sampler, seed=derive_seed(cfg.seed, STREAM_TRIAL_DATA, t))
        trial_cfg = replace(cfg, seed=derive_seed(cfg.seed, STREAM_TRIAL_TEST, t))
        return permutation_test(sample(data_spec, n), kx, ky, trial_cfg).p_value

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            p_values = tuple(pool.map(one_trial, range(num_trials)))
    else:
        p_values = tuple(one_trial(t) for t in range(num_trials))
    rate = sum(p <= cfg.alpha for p in p_values) / num_trials
    return PowerResult(
        rejection_rate=rate, trials=num_trials, p_values=p_values, alpha=cfg.alpha
    )
